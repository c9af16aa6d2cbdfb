import json
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgclab import nn
from pgclab.attack import (
    ARCHS,
    PURPOSES,
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    SPLITS,
    PairedDataset,
    _grid_argmin,
    _grid_errors,
    build_dataset,
    calibrate_pixel_threshold,
    calibrate_threshold,
    estimate_grey,
    load_dataset,
    network_rows,
    split_arrays,
    stream_seed,
    threshold_grid,
    train_attack,
)
from pgclab.channel import ChannelParams, preset, print_scans
from pgclab.codegen import (
    BYTE0_255,
    Geometry,
    ModuleMatrix,
    PixelImage,
    binarize,
    ink_intensity,
    modules_from_pixels,
    render,
    split_blocks,
)
from pgclab.errors import (
    FormatError,
    MissingInputError,
    ParameterError,
    PgcError,
    StateError,
    UnknownIdError,
)
from pgclab.imgio import write_pbm, write_pgm
from pgclab.nn import ACT_IDENTITY, LayerSpec, MlpModel, TrainConfig
from block_loss import block_sum_loss
from written_dataset import written_dataset


IDENTITY = {"ID": ChannelParams()}


def identity_dataset(tmp_path, split=(5, 2, 1), seed=3):
    return written_dataset(tmp_path, split, IDENTITY, seed)


def write_identity(root, split=(1, 1, 0), seed=3):
    """Write an identity-channel dataset at root and return build_dataset's
    dataset: its originals and no scan."""
    return build_dataset(split, Geometry(), IDENTITY, seed, root)


def identity_model(dim=576):
    """One affine layer fixed at the identity map."""
    return MlpModel(
        [LayerSpec(dim, dim, ACT_IDENTITY)],
        [np.eye(dim, dtype=np.float32)],
        [np.zeros(dim, np.float32)],
    )


def train_val(ds, printer):
    """The training and validation splits' arrays, as cmd_train cuts them."""
    return split_arrays(ds, printer, SPLIT_TRAIN), split_arrays(ds, printer, SPLIT_VAL)


def thr_estimates(ds, printer):
    """The Thr baseline's test estimates, as cmd_attack computes them."""
    t = calibrate_pixel_threshold(ds, printer)
    return [
        modules_from_pixels(binarize(ink_intensity(ds.scans[printer][i]), t),
                            ds.geometry.module_px)
        for i in ds.indices(SPLIT_TEST)
    ]


# ---------------------------------------------------------------- dataset

def test_block_counts_small(tmp_path):
    ds = written_dataset(tmp_path, (2, 1, 1), IDENTITY, 0)
    assert ds.block_counts() == {SPLIT_TRAIN: 512, SPLIT_VAL: 256, SPLIT_TEST: 256}
    assert ds.n_images == 4
    assert ds.printers == ("ID",)
    assert ds.indices(SPLIT_TRAIN) == [0, 1]
    assert ds.indices(SPLIT_VAL) == [2]
    assert ds.indices(SPLIT_TEST) == [3]


def test_build_dataset_is_deterministic(tmp_path):
    a = written_dataset(tmp_path, (1, 1, 1), IDENTITY, 9)
    b = written_dataset(tmp_path, (1, 1, 1), IDENTITY, 9)
    for i in range(3):
        np.testing.assert_array_equal(a.originals[i].bits, b.originals[i].bits)
        np.testing.assert_array_equal(a.scans["ID"][i].pixels, b.scans["ID"][i].pixels)
    c = written_dataset(tmp_path, (1, 1, 1), IDENTITY, 10)
    assert not np.array_equal(a.originals[0].bits, c.originals[0].bits)


def test_scan_seeds_differ_per_printer_and_image(tmp_path):
    params = {"A": preset("SA"), "B": preset("SA")}
    build_dataset((1, 1, 0), Geometry(), params, 4, tmp_path)
    a, b = (load_dataset(tmp_path, pid).scans[pid] for pid in ("A", "B"))
    assert not np.array_equal(a[0].pixels, b[0].pixels)
    assert not np.array_equal(a[0].pixels, a[1].pixels)


def test_stream_seed_pinned_values():
    """SeedSequence's hash is stable across NumPy versions, so these hold
    until the seed rule itself changes, which moves every output byte."""
    assert stream_seed(7, "scan", "SA", 3) == 148933556228538132701386657978959284885
    assert stream_seed(0, "code") == 299241392925811974005613627798309631486
    assert stream_seed(11, "init") == 332328155819082487300887337753089090457
    assert stream_seed(11, "shuffle") == 127176511418942046098690796079071725883


def test_stream_seed_is_the_first_128_bits_of_the_keyed_sequence():
    words = np.random.SeedSequence(
        5, spawn_key=(PURPOSES.index("reprint-fake"), ord("H") + (ord("P") << 8), 9)
    ).generate_state(4)
    assert stream_seed(5, "reprint-fake", "HP", 9) == sum(
        int(w) << (32 * k) for k, w in enumerate(words))


def test_training_init_and_code_0_have_their_own_streams():
    for s in (0, 1, 11):
        assert stream_seed(s, "init") != stream_seed(s, "code", index=0)
        assert stream_seed(s, "shuffle") != stream_seed(s, "init")


_keys = st.tuples(
    st.sampled_from(PURPOSES),
    st.text(st.characters(exclude_characters="\x00"), max_size=6),
    st.integers(0, 2**32 - 1),
)


@given(st.integers(0, 2**64), _keys, _keys)
@settings(max_examples=200, deadline=None)
@example(0, ("scan", "A", 1), ("scan", "A\x01", 0))
@example(0, ("scan", "", 256), ("scan", "\x01", 0))
@example(0, ("scan", "\udcff", 0), ("scan", "\xff", 0))
@example(3, ("code", "", 4), ("scan", "", 4))
def test_distinct_keys_give_distinct_seeds(seed, a, b):
    assert (stream_seed(seed, *a) == stream_seed(seed, *b)) == (a == b)
    assert stream_seed(seed, *a) == stream_seed(seed, *a)


# Tiny codes (8 x 8 modules of 3 pixels) through the identity channel.
TINY = Geometry(rows=8, cols=8, module_px=3)


@pytest.mark.parametrize("a,b", [(1, 7), (0, 4)])
def test_nearby_dataset_seeds_share_no_code(tmp_path, a, b):
    datasets = [written_dataset(tmp_path, (70, 0, 0), IDENTITY, s, TINY) for s in (a, b)]
    codes = [{m.bits.tobytes() for m in ds.originals} for ds in datasets]
    assert len(codes[0]) == len(codes[1]) == 70
    assert codes[0].isdisjoint(codes[1])


def test_a_printers_dataset_bytes_do_not_depend_on_the_other_printers(tmp_path):
    """SA's originals and scans are the same built alone and among four
    printers: each stream is keyed by its printer's id, not its place."""
    def sa_bytes(printers):
        root = tmp_path / "-".join(printers)
        build_dataset((3, 1, 1), TINY, {pid: preset(pid) for pid in printers}, 5, root)
        files = sorted(root.glob("originals/*")) + sorted(root.glob("scans/SA/*"))
        return [(f.relative_to(root), f.read_bytes()) for f in files]

    alone = sa_bytes(["SA"])
    assert len(alone) == 10
    assert sa_bytes(["SA", "LX", "CA", "HP"]) == alone


# Each a field of a PairedDataset that breaks one of its rules, and the
# message that names the rule.
BAD_DATASET_FIELDS = [
    (dict(split_sizes=(2, 1, -1)), "split_sizes must be an integer >= 0"),
    (dict(split_sizes=(2, 1.0, 1)), "split_sizes must be an integer, not 1.0"),
    (dict(split_sizes=(2, True, 1)), "split_sizes must be an integer, not True"),
    (dict(split_sizes=(2, 1, -1, 2)), "split_sizes must be three counts"),
    (dict(split_sizes=[2, 1, 1]), "split_sizes must be three counts"),
    (dict(split_sizes=(0, 0, 0)), "at least one code"),
    (dict(seed=-1), "seed must be an integer >= 0"),
    (dict(seed=True), "seed must be an integer, not True"),
    (dict(seed=1.0), "seed must be an integer, not 1.0"),
    (dict(channel_params={}), "at least one printer"),
    (dict(channel_params={"a/b": ChannelParams()}), "not a plain file name"),
]
BAD_DATASET_IDS = ["size-negative", "size-real", "size-bool", "sizes-four", "sizes-list",
                   "no-code", "seed-negative", "seed-bool", "seed-real", "no-printer",
                   "printer-path"]


@pytest.mark.parametrize("field, needle", BAD_DATASET_FIELDS, ids=BAD_DATASET_IDS)
def test_paired_dataset_checks_its_fields(field, needle):
    good = dict(geometry=Geometry(), seed=0, split_sizes=(2, 1, 1), originals=[], scans={},
                channel_params=IDENTITY)
    PairedDataset(**good)
    with pytest.raises(ParameterError, match=needle):
        PairedDataset(**{**good, **field})


@pytest.mark.parametrize("field, needle", BAD_DATASET_FIELDS, ids=BAD_DATASET_IDS)
def test_a_refused_build_leaves_the_dataset_there(tmp_path, field, needle):
    """build_dataset checks its arguments before it deletes the manifest
    or writes a file."""
    write_identity(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    args = dict(split_sizes=(2, 1, 1), geometry=Geometry(), printer_params=IDENTITY, seed=0)
    field = {"printer_params" if k == "channel_params" else k: v for k, v in field.items()}
    with pytest.raises(ParameterError, match=needle):
        build_dataset(**{**args, **field}, out_dir=tmp_path)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    load_dataset(tmp_path, "ID")


def test_split_arrays_shapes_and_ranges(tmp_path):
    ds = identity_dataset(tmp_path)
    x, t = split_arrays(ds, "ID", SPLIT_TRAIN)
    # The inputs take 1 byte per pixel, the packed targets 1 bit.
    assert x.shape == (5 * 256, 576) and t.shape == (5 * 256, 72)
    assert x.dtype == np.uint8 and t.dtype == np.uint8
    ink, bits = network_rows(x, t)
    assert ink.dtype == np.float32 and bits.dtype == np.uint8
    assert bits.shape == x.shape
    assert set(np.unique(bits)) <= {0, 1}
    # identity channel: scan ink equals rendered bits exactly
    np.testing.assert_array_equal(ink, bits)
    with pytest.raises(UnknownIdError):
        split_arrays(ds, "XX", SPLIT_TRAIN)
    with pytest.raises(ParameterError):
        split_arrays(ds, "ID", "holdout")


def float32_split(ds, printer, tag):
    """The split as (float32 ink intensity, float32 bits) arrays, concatenated
    image by image: the form split_arrays once returned."""
    idx = ds.indices(tag)
    x = [split_blocks(ink_intensity(ds.scans[printer][i]), ds.geometry.block_px) for i in idx]
    t = [split_blocks(ds.rendered_original(i), ds.geometry.block_px) for i in idx]
    return np.concatenate(x), np.concatenate(t).astype(np.float32)


def test_split_arrays_match_the_concatenated_blocks(tmp_path):
    """The preallocated arrays hold the scans' own bytes, blocked, and their
    network_rows gives the bits of the float32 ink split."""
    ds = written_dataset(tmp_path, (3, 1, 0), {"SA": preset("SA")}, 2)
    x, t = split_arrays(ds, "SA", SPLIT_TRAIN)
    assert x.dtype == np.uint8
    idx = ds.indices(SPLIT_TRAIN)
    want_bytes = np.concatenate([split_blocks(ds.scans["SA"][i], 24) for i in idx])
    want_x, want_t = float32_split(ds, "SA", SPLIT_TRAIN)
    assert x.tobytes() == want_bytes.tobytes()
    assert network_rows(x, t)[0].tobytes() == want_x.tobytes()
    bits = np.unpackbits(t, axis=1, count=ds.geometry.block_dim)
    assert bits.astype(np.float32).tobytes() == want_t.tobytes()


@pytest.mark.parametrize("geometry", [Geometry(), Geometry(6, 6, 5, 5), Geometry(3, 6, 2, 3)],
                         ids=["576", "25", "9"])
def test_split_arrays_packed_targets_unpack_to_the_rendered_blocks(tmp_path, geometry):
    """Each row of targets is its block's bits packed with np.packbits; a
    block_dim that is not a multiple of 8 pads the last byte with zeros."""
    ds = written_dataset(tmp_path, (2, 1, 0), IDENTITY, 4, geometry)
    dim = geometry.block_dim
    for tag in (SPLIT_TRAIN, SPLIT_VAL):
        x, t = split_arrays(ds, "ID", tag)
        assert t.shape == (x.shape[0], -(-dim // 8)) and t.dtype == np.uint8
        want = np.concatenate([split_blocks(ds.rendered_original(i), geometry.block_px)
                               for i in ds.indices(tag)])
        np.testing.assert_array_equal(np.unpackbits(t, axis=1, count=dim), want)
        assert not np.unpackbits(t, axis=1)[:, dim:].any()
        np.testing.assert_array_equal(network_rows(x, t)[1], want)


def test_split_arrays_empty_tag(tmp_path):
    ds = written_dataset(tmp_path, (2, 0, 0), IDENTITY, 1)
    x, t = split_arrays(ds, "ID", SPLIT_VAL)
    assert x.shape == (0, 576) and t.shape == (0, 72)


# ---------------------------------------------------------------- training

def test_train_history_and_determinism(tmp_path):
    ds = identity_dataset(tmp_path)
    cfg = TrainConfig(epochs=3, batch_size=128, learning_rate=1e-3, seed=5)
    m1, h1, _ = train_attack(*train_val(ds, "ID"), "bn", cfg)
    m2, h2, _ = train_attack(*train_val(ds, "ID"), "bn", cfg)
    assert len(h1) == 3
    assert h1 == h2
    assert h1[-1] < h1[0]
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)


def test_train_rejects_bad_inputs(tmp_path):
    ds = written_dataset(tmp_path, (0, 1, 1), IDENTITY, 2)
    with pytest.raises(StateError):
        train_attack(*train_val(ds, "ID"), "bn", TrainConfig(epochs=1))
    ds2 = identity_dataset(tmp_path)
    with pytest.raises(ParameterError):
        train_attack(*train_val(ds2, "ID"), "resnet", TrainConfig(epochs=1))
    with pytest.raises(UnknownIdError):
        train_attack(*train_val(ds2, "XX"), "bn", TrainConfig(epochs=1))


@pytest.mark.parametrize("arch", ["bn", "fc2"])
def test_train_attack_peak_memory_is_what_it_must_hold(tmp_path, arch):
    """The traced peak of train_attack is at most the block arrays, the
    packed targets, five copies of the parameters (the model, the best
    epoch's snapshot, Adam's two moments and one step's gradients) and the
    activations of every layer over two row blocks, plus 1 MB of slack.
    A whole split's float output, 0/1 targets at a byte per bit, or a
    second step's gradients beside the first's would not fit."""
    import tracemalloc

    ds = written_dataset(tmp_path, (2, 8, 0), {"SA": preset("SA")}, 5)
    cfg = TrainConfig(epochs=1, batch_size=128, learning_rate=1e-3, seed=1)
    train_attack(*train_val(ds, "SA"), arch, cfg)
    tracemalloc.start()
    try:
        m, _, _ = train_attack(*train_val(ds, "SA"), arch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(ds.block_counts()[tag] for tag in (SPLIT_TRAIN, SPLIT_VAL))
    dim = ds.geometry.block_dim
    params = sum(p.nbytes for p in m.weights + m.biases)
    widths = m.in_dim + sum(spec.out_dim for spec in m.layers)
    acts = 2 * nn.ROW_BLOCK * widths * 4
    assert peak <= rows * dim + rows * -(-dim // 8) + 5 * params + acts + 2**20


def calibration_peak(tmp_path, n_val):
    """tracemalloc's peak over load_dataset and calibrate_pixel_threshold
    of a dataset of one training and n_val validation codes, each a
    384x384-byte scan."""
    import tracemalloc

    root = tmp_path / f"val{n_val}"
    build_dataset((1, n_val, 0), Geometry(rows=64, cols=64, module_px=6, block_px=24),
                  IDENTITY, 2, root)
    tracemalloc.start()
    try:
        calibrate_pixel_threshold(load_dataset(root, "ID"), "ID")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibrate_pixel_threshold_holds_one_scan_at_a_time(tmp_path):
    """The peak is one code's calibration: its scan and rendered original,
    and a row strip's uint16 (target bit, byte) key with np.bincount's
    intp copy of it.  The bound allows two scans' bytes and a whole code's
    key and intp copy, ten bytes a pixel, plus 128 kB of slack.  8
    validation codes peak below that as 2 do; the 8 scans held at once
    would not fit beside one code's key."""
    scan_bytes = 384 * 384
    calibration_peak(tmp_path, 1)  # fills the first-use caches
    for n_val in (2, 8):
        assert calibration_peak(tmp_path, n_val) < (2 + 8) * scan_bytes + 2**17


def test_archs_tuple():
    assert ARCHS == ("fc2", "fc3", "fc4", "bn")


# At the first rate the network learns, so its outputs depend on its
# inputs; at the second it saturates early, so an earlier epoch is kept.
@pytest.mark.parametrize("learning_rate,earlier_kept", [(1e-3, False), (0.05, True)])
def test_returned_model_is_best_validation_epoch(tmp_path, learning_rate, earlier_kept):
    """Replay the schedule independently on the float32 ink split, with
    block-sum validation losses: the history, val_loss, returned weights
    (the snapshot of the epoch with the lowest validation loss) and
    threshold must have the replay's bits."""
    ds = written_dataset(tmp_path, (5, 3, 1), {"SA": preset("SA")}, 6)
    cfg = TrainConfig(epochs=5, batch_size=128, learning_rate=learning_rate, seed=2)
    train, val = train_val(ds, "SA")
    kept, history, val_loss = train_attack(train, val, "bn", cfg)
    threshold = calibrate_threshold(kept, val)

    x, t = float32_split(ds, "SA", SPLIT_TRAIN)
    xv, tv = float32_split(ds, "SA", SPLIT_VAL)
    assert xv.shape[0] % nn.ROW_BLOCK == 0 and xv.shape[0] > 2 * nn.ROW_BLOCK
    model = nn.build_bn(576, stream_seed(cfg.seed, "init"))
    state = nn.init_adam(model)
    rng = np.random.default_rng(stream_seed(cfg.seed, "shuffle"))
    want_history, vals, snaps = [], [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(x.shape[0])
        total = 0.0
        for s in range(0, x.shape[0], cfg.batch_size):
            sel = perm[s : s + cfg.batch_size]
            value, gw, gb = nn.loss_and_grads(model, x[sel], t[sel], cfg)
            nn.optimizer_step(model, (gw, gb), state, cfg)
            total += value * len(sel)
        want_history.append(total / x.shape[0])
        vals.append(block_sum_loss(model, xv, tv))
        snaps.append([p.copy() for p in model.weights + model.biases])
    k = int(np.argmin(vals))
    assert (k < cfg.epochs - 1) == earlier_kept
    assert history == want_history
    assert val_loss == vals[k]
    for a, b in zip(kept.weights + kept.biases, snaps[k], strict=True):
        np.testing.assert_array_equal(a, b)
    assert threshold == calibrate_grid(nn._forward_acts(kept, xv)[-1], tv)[0]


def test_val_loss_is_the_kept_models_validation_loss(tmp_path):
    ds = written_dataset(tmp_path, (5, 2, 1), {"SA": preset("SA")}, 6)
    cfg = TrainConfig(epochs=3, batch_size=128, learning_rate=1e-3, seed=2)
    train, val = train_val(ds, "SA")
    model, _, val_loss = train_attack(train, val, "bn", cfg)
    assert val_loss == nn.batch_loss(model, *val, prep=network_rows)
    no_val = written_dataset(tmp_path, (3, 0, 0), IDENTITY, 1)
    with pytest.raises(StateError, match="empty validation split"):
        train_attack(*train_val(no_val, "ID"), "bn", TrainConfig(epochs=1))


# ---------------------------------------------------------------- calibration

def test_threshold_grid_is_101_hundredths():
    g = threshold_grid()
    assert len(g) == 101
    assert g[0] == 0.0 and g[-1] == 1.0
    np.testing.assert_allclose(np.diff(g), 0.01, atol=1e-12)


def test_calibrate_grid_constant_half_prefers_smallest():
    values = np.full(10, 0.5)
    targets = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], np.float32)
    t, err = calibrate_grid(values, targets)
    assert t == 0.0
    assert err == pytest.approx(0.5)


def test_calibrate_grid_matches_exhaustive_sweep():
    rng = np.random.default_rng(6)
    for _ in range(20):
        values = rng.random(40)
        targets = rng.integers(0, 2, 40).astype(np.float64)
        t, err = calibrate_grid(values, targets)
        best = min(
            (float(np.mean((values >= g) != targets)), g) for g in threshold_grid()
        )
        assert err == best[0]
        # smallest threshold among those attaining the minimum
        attaining = [g for g in threshold_grid()
                     if float(np.mean((values >= g) != targets)) == best[0]]
        assert t == min(attaining)


def calibrate_grid(values, targets):
    """The grid point t and error rate minimizing mean bit disagreement over
    all values at once, ties toward the smallest t: the one-shot form of
    calibrate_threshold's and calibrate_pixel_threshold's criterion."""
    return _grid_argmin(_grid_errors(values, targets), np.size(values))


def calibrate_grid_sweep(values, targets):
    """The exhaustive 101-pass sweep calibrate_grid must equal exactly."""
    values = np.asarray(values)
    targets = np.asarray(targets).astype(bool)
    best_t, best_err = 0.0, np.inf
    for t in threshold_grid():
        err = float(np.mean((values >= t) != targets))
        if err < best_err:
            best_t, best_err = float(t), err
    return best_t, best_err


_GRID_VALUES = st.one_of(
    st.sampled_from([k / 100 for k in range(101)]),  # on a grid point
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _calibration_cases(draw):
    n = draw(st.integers(1, 80))
    values = draw(st.lists(_GRID_VALUES, min_size=n, max_size=n))
    targets = draw(st.one_of(
        st.just([0] * n), st.just([1] * n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    ))
    return np.array(values), np.array(targets, np.float32)


@settings(max_examples=200, deadline=None)
@given(_calibration_cases(), st.sampled_from([np.float32, np.float64]))
@example((np.array([0.29]), np.array([1], np.float32)), np.float32)
@example((np.array([0.29]), np.array([0], np.float32)), np.float32)
@example((np.array([0.0, 1.0]), np.array([0, 0], np.float32)), np.float64)
@example((np.array([0.0, 1.0]), np.array([1, 1], np.float32)), np.float64)
def test_calibrate_grid_equals_sweep(case, dtype):
    values, targets = case
    with np.errstate(over="ignore"):
        values = values.astype(dtype)
    assert calibrate_grid(values, targets) == calibrate_grid_sweep(values, targets)


def test_calibrate_grid_on_float32_grid_points():
    """float32(k/100) sits just above or below the float64 grid point; the
    comparison is in float64, so each one is on the side the sweep finds."""
    for k in range(101):
        v = np.float32(k / 100)
        for target in (0.0, 1.0):
            values, targets = np.array([v]), np.array([target], np.float32)
            assert calibrate_grid(values, targets) == calibrate_grid_sweep(values, targets)
    values = np.tile(np.arange(101, dtype=np.float64) / 100, 3).astype(np.float32)
    targets = np.random.default_rng(4).integers(0, 2, values.size).astype(np.float32)
    assert calibrate_grid(values, targets) == calibrate_grid_sweep(values, targets)
    assert calibrate_grid(values.reshape(3, 101), targets.reshape(3, 101)) == \
        calibrate_grid_sweep(values, targets)


def test_calibrate_grid_on_float32_equals_on_its_float64_cast():
    """Each class sorts in the values' own dtype; the grid comparison stays
    in float64, so float32(0.01), just below 0.01, is still below it."""
    assert np.float64(np.float32(0.01)) < 0.01
    on_grid = (np.arange(101) / 100).astype(np.float32)
    below = np.nextafter(on_grid, np.float32(-1))
    above = np.nextafter(on_grid, np.float32(2))
    rng = np.random.default_rng(47)
    for values in (on_grid, below, above, np.concatenate([on_grid, below, above])):
        for targets in (np.zeros(values.size), np.ones(values.size),
                        rng.integers(0, 2, values.size)):
            want = calibrate_grid(values.astype(np.float64), targets)
            assert calibrate_grid(values, targets) == want
    for k in range(101):
        for v in (on_grid[k], below[k]):
            for target in (0, 1):
                assert calibrate_grid(np.array([v]), np.array([target])) == \
                    calibrate_grid(np.array([v], np.float64), np.array([target]))


def test_calibrate_grid_rejects_empty():
    with pytest.raises(StateError):
        calibrate_grid(np.array([]), np.array([]))


def _val_dataset(bits, scans):
    """A dataset whose first code is training and the rest validation, and
    the validation pixels' ink values and targets."""
    n, rows, cols = bits.shape[0] - 1, bits.shape[1], bits.shape[2]
    images = [PixelImage(scan, BYTE0_255) for scan in scans]
    ds = PairedDataset(
        geometry=Geometry(rows, cols, 2, 2), seed=0, split_sizes=(1, n, 0),
        originals=[ModuleMatrix(b) for b in bits], scans={"P": images},
        channel_params={"P": ChannelParams()},
    )
    values = np.concatenate([ink_intensity(img).pixels.ravel() for img in images[1:]])
    targets = np.concatenate([ds.rendered_original(i).pixels.ravel() for i in range(1, n + 1)])
    return ds, values, targets


@st.composite
def _val_scans(draw):
    """A dataset of validation scans, and its pixel values and targets."""
    rows, cols, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "one class", "one value"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (n + 1, rows, cols), dtype=np.uint8)
    scans = rng.integers(0, 256, (n + 1, 2 * rows, 2 * cols), dtype=np.uint8)
    if kind == "one class":
        bits[:] = draw(st.integers(0, 1))
    elif kind == "one value":
        scans[:] = draw(st.integers(0, 255))
    return _val_dataset(bits, scans)


def _val_edge_case(bit=None, byte=None):
    """Random bits and scans, with every original bit set to bit and every
    scan pixel set to byte when given."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, (3, 4, 5), dtype=np.uint8)
    scans = rng.integers(0, 256, (3, 8, 10), dtype=np.uint8)
    if bit is not None:
        bits[:] = bit
    if byte is not None:
        scans[:] = byte
    return _val_dataset(bits, scans)


@settings(max_examples=150, deadline=None)
@given(_val_scans())
def test_calibrate_pixel_threshold_equals_the_grid_over_all_pixels(case):
    """The 512-bin histogram of uint8 scans picks what calibrate_grid
    picks from every pixel's float ink value."""
    ds, values, targets = case
    assert calibrate_pixel_threshold(ds, "P") == calibrate_grid(values, targets)[0]


@pytest.mark.parametrize("bit, byte", [(0, None), (None, 0), (None, 255), (1, 128)],
                         ids=["no-dark-pixels", "all-byte-0", "all-byte-255",
                              "all-dark-one-byte"])
def test_calibrate_pixel_threshold_edge_cases_equal_the_grid(bit, byte):
    """Count tables with a zero half or a single nonzero level pick what
    calibrate_grid picks from every pixel."""
    ds, values, targets = _val_edge_case(bit, byte)
    assert calibrate_pixel_threshold(ds, "P") == calibrate_grid(values, targets)[0]


def test_calibrate_threshold_identity_recovery(tmp_path):
    """Exact outputs: every grid point in (0, 1] is error-free; pick 0.01."""
    ds = identity_dataset(tmp_path)
    val = split_arrays(ds, "ID", SPLIT_VAL)
    assert calibrate_threshold(identity_model(), val) == pytest.approx(0.01)


def _levels_case(rng, n):
    """Scan bytes of four luminance levels and targets that mostly follow
    them: the errors are flat between the levels, so grid points tie."""
    x = rng.choice(np.array([0, 51, 153, 255], np.uint8), (n, 576))
    t = (x <= 153).astype(np.uint8)
    t[rng.random(t.shape) < 0.05] ^= 1
    return identity_model(), x, t


def _random_case(rng, n):
    x = rng.integers(0, 256, (n, 576), dtype=np.uint8)
    t = rng.integers(0, 2, (n, 576), dtype=np.uint8)
    return nn.build_bn(576, 9), x, t


@pytest.mark.parametrize("case", [_levels_case, _random_case])
@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_calibrate_threshold_by_blocks_equals_the_grid_over_all_outputs(case, blocks):
    """The error counts added up row block by row block pick the threshold
    calibrate_grid picks from the one-shot output of the whole split."""
    rng = np.random.default_rng(blocks)
    model, x, t = case(rng, blocks * nn.ROW_BLOCK + 45)
    val = (x, np.packbits(t, axis=1))
    threshold = calibrate_threshold(model, val)
    outputs = nn._forward_acts(model, network_rows(*val)[0])[-1]
    assert threshold == calibrate_grid(outputs, t)[0]
    if case is _levels_case:
        errors = [np.sum((outputs >= g) != t) for g in threshold_grid()]
        assert errors.count(min(errors)) > 1  # the minimum is a tie


def test_calibrate_threshold_peak_memory_does_not_grow_with_the_split():
    """Calibration holds one row block's ink, activations, outputs and
    sorted classes, however many rows the validation split has."""
    import tracemalloc

    model = nn.build_fc(2, 576, 5)
    rng = np.random.default_rng(8)
    peaks = []
    for n in (4 * nn.ROW_BLOCK, 16 * nn.ROW_BLOCK + 45):
        x = rng.integers(0, 256, (n, 576), dtype=np.uint8)
        t = rng.integers(0, 256, (n, 72), dtype=np.uint8)
        calibrate_threshold(model, (x, t))
        tracemalloc.start()
        try:
            calibrate_threshold(model, (x, t))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 24 * 2 * nn.ROW_BLOCK * 576 + 2**20


def test_calibrate_pixel_threshold_identity(tmp_path):
    ds = identity_dataset(tmp_path)
    t = calibrate_pixel_threshold(ds, "ID")
    assert t == pytest.approx(0.01)
    assert t in threshold_grid()


# ---------------------------------------------------------------- estimation

def test_estimate_identity_roundtrip(tmp_path):
    ds = identity_dataset(tmp_path)
    model = identity_model()
    threshold = calibrate_threshold(model, split_arrays(ds, "ID", SPLIT_VAL))
    for i in ds.indices(SPLIT_TEST):
        grey = estimate_grey(model, ds.scans["ID"][i], ds.geometry.block_px)
        assert grey.pixels.shape == (384, 384)
        xhat = modules_from_pixels(binarize(grey, threshold), ds.geometry.module_px)
        np.testing.assert_array_equal(xhat.bits, ds.originals[i].bits)


def test_thr_estimates_identity_is_exact(tmp_path):
    ds = identity_dataset(tmp_path)
    estimates = thr_estimates(ds, "ID")
    assert len(estimates) == len(ds.indices(SPLIT_TEST))
    for est, i in zip(estimates, ds.indices(SPLIT_TEST)):
        np.testing.assert_array_equal(est.bits, ds.originals[i].bits)


def test_thr_estimates_degrade_with_noise(tmp_path):
    # iid pixel noise alone is absorbed by the 36-pixel majority vote, so
    # the heavy-noise channel is a realistic printer with the noise raised
    from pgclab.channel import with_fields
    noisy = written_dataset(
        tmp_path, (5, 2, 1), {"NZ": with_fields(preset("SA"), {"noise_sigma": 0.5})}, 3
    )
    est_noisy = thr_estimates(noisy, "NZ")
    clean = identity_dataset(tmp_path)
    est_clean = thr_estimates(clean, "ID")
    def mean_err(ests, ds):
        return float(np.mean([
            np.mean(e.bits != ds.originals[i].bits)
            for e, i in zip(ests, ds.indices(SPLIT_TEST))
        ]))
    assert mean_err(est_clean, clean) == 0.0
    assert mean_err(est_noisy, noisy) > 0.0


# ---------------------------------------------------------------- persistence

def reference_scan(ds, printer, i):
    """The scan build_dataset makes of code i, made here in one piece."""
    seed = stream_seed(ds.seed, "scan", printer, i)
    return print_scans([render(ds.originals[i], ds.geometry.module_px)],
                       ds.channel_params[printer], seed)[0]


def test_build_load_dataset_roundtrip(tmp_path):
    ds = build_dataset((1, 1, 1), Geometry(), {"SA": preset("SA")}, 8, tmp_path)
    assert ds.scans == {}
    assert (tmp_path / "manifest.json").exists()
    back = load_dataset(tmp_path, "SA")
    assert back.seed == ds.seed
    assert back.split_sizes == ds.split_sizes
    assert [back.indices(tag) for tag in SPLITS] == [[0], [1], [2]]
    assert back.geometry == ds.geometry
    assert back.printers == ds.printers
    assert back.channel_params["SA"] == ds.channel_params["SA"]
    for i in range(3):
        np.testing.assert_array_equal(back.originals[i].bits, ds.originals[i].bits)
        np.testing.assert_array_equal(back.scans["SA"][i].pixels,
                                      reference_scan(ds, "SA", i).pixels)


def test_manifest_names_the_six_channel_parameters(tmp_path):
    """Every scan is 8-bit, so a printer's manifest entry holds the six
    channel parameters and no quantize flag."""
    build_dataset((1, 1, 0), Geometry(), {"SA": preset("SA")}, 8, tmp_path)
    printers = json.loads((tmp_path / "manifest.json").read_text())["printers"]
    assert list(printers) == ["SA"]
    assert sorted(printers["SA"]) == sorted(["dot_gain_radius", "dot_gain_prob", "psf_sigma",
                                             "gain", "offset", "noise_sigma"])


def test_load_dataset_one_printer_keeps_every_printer(tmp_path):
    params = {pid: preset(pid) for pid in ("SA", "LX", "HP")}
    ds = build_dataset((1, 1, 0), Geometry(), params, 8, tmp_path)
    back = load_dataset(tmp_path, "LX")
    assert set(back.scans) == {"LX"}
    assert back.printers == ds.printers == ("HP", "LX", "SA")
    assert back.channel_params == ds.channel_params
    for i in range(2):
        np.testing.assert_array_equal(back.scans["LX"][i].pixels,
                                      reference_scan(ds, "LX", i).pixels)
    with pytest.raises(UnknownIdError):
        split_arrays(back, "SA", SPLIT_TRAIN)
    with pytest.raises(UnknownIdError):
        load_dataset(tmp_path, "CA")


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(MissingInputError, match="gen"):
        load_dataset(tmp_path / "nowhere", "ID")


def test_load_dataset_rejects_bad_manifest(tmp_path):
    write_identity(tmp_path, (1, 0, 0), 1)
    mf = tmp_path / "manifest.json"
    mf.write_text("{not json")
    with pytest.raises(FormatError):
        load_dataset(tmp_path, "ID")
    mf.write_text('{"version": 99}')
    with pytest.raises(FormatError):
        load_dataset(tmp_path, "ID")


def edit_manifest(root, edit):
    mf = root / "manifest.json"
    manifest = json.loads(mf.read_text())
    edit(manifest)
    mf.write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m.update(originals=7), r"differs in originals\)"),
    (lambda m: m.update(originals=[3]), r"differs in originals\)"),
    (lambda m: m.update(scans=["scans/ID/scan_0000.pgm"]), r"differs in scans\)"),
    (lambda m: m["scans"].update(ID=5), r"differs in scans\)"),
    (lambda m: m["scans"].update(ID={"SA": 5}), r"differs in scans\)"),
    (lambda m: m.update(printers=[]), "malformed manifest"),
    (lambda m: m.update(seed="x"), "malformed manifest"),
], ids=["originals-int", "originals-element", "scans-list", "scans-entry-int",
        "scans-entry-dict", "printers-list", "seed-text"])
def test_load_dataset_rejects_wrong_manifest_types(tmp_path, edit, needle):
    write_identity(tmp_path)
    edit_manifest(tmp_path, edit)
    with pytest.raises(FormatError, match=needle):
        load_dataset(tmp_path, "ID")


@pytest.mark.parametrize("key", ["originals", "scans"])
@pytest.mark.parametrize("path", ["../outside.pbm", "{abs}", "originals/../../outside.pbm",
                                  "file_link.pbm", "dir_link/outside.pbm", ""])
def test_load_dataset_rejects_paths_outside_the_dataset(tmp_path, key, path):
    """A readable image outside the dataset, named by any path but the one
    gen writes: the manifest is not gen's."""
    root = tmp_path / "ds"
    write_identity(root)
    src = root / ("originals/code_0000.pbm" if key == "originals" else "scans/ID/scan_0000.pgm")
    outside = tmp_path / "outside.pbm"
    outside.write_bytes(src.read_bytes())
    (root / "file_link.pbm").symlink_to(outside)
    (root / "dir_link").symlink_to(tmp_path)
    path = path.format(abs=outside)

    def edit(m):
        if key == "originals":
            m["originals"][0] = path
        else:
            m["scans"]["ID"][0] = path

    edit_manifest(root, edit)
    with pytest.raises(FormatError, match=rf"differs in {key}\)"):
        load_dataset(root, "ID")


@pytest.mark.parametrize("rel", ["originals/code_0000.pbm", "scans/ID/scan_0000.pgm",
                                 "scans/ID"])
def test_load_dataset_rejects_a_canonical_link_out_of_the_dataset(tmp_path, rel):
    """The manifest names only the paths gen writes, but the file or scans
    directory there may be a link to a readable copy outside."""
    root = tmp_path / "ds"
    write_identity(root)
    target = root / rel
    outside = tmp_path / "outside"
    if target.is_dir():
        shutil.copytree(target, outside)
        shutil.rmtree(target)
    else:
        outside.write_bytes(target.read_bytes())
        target.unlink()
    target.symlink_to(outside)
    with pytest.raises(FormatError, match="lies outside"):
        load_dataset(root, "ID")


def test_load_dataset_rejects_a_printer_id_that_leaves_the_dataset(tmp_path):
    root = tmp_path / "a" / "ds"
    write_identity(root)
    (tmp_path / "a" / "ID").mkdir()
    shutil.copy(root / "scans" / "ID" / "scan_0000.pgm", tmp_path / "a" / "ID")

    def edit(m):
        m["printers"]["../../ID"] = m["printers"].pop("ID")
        m["scans"] = {"../../ID": [f"scans/../../ID/scan_{i:04d}.pgm" for i in range(2)]}

    edit_manifest(root, edit)
    with pytest.raises(FormatError, match="not a plain file name"):
        load_dataset(root, "ID")


@pytest.mark.parametrize("pid", ["", ".", "..", "../../ID", "a/b", "a\\b", "I\0D", "/ID"])
def test_build_dataset_refuses_a_printer_id_that_is_not_a_file_name(tmp_path, pid):
    """A printer id names a directory under scans/: anything but one plain
    path component is refused before a file is written."""
    root = tmp_path / "a" / "ds"
    params = {"SA": ChannelParams(), pid: ChannelParams()}
    with pytest.raises(ParameterError, match="printer id"):
        build_dataset((1, 1, 0), Geometry(), params, 3, root)
    assert list(tmp_path.rglob("*")) == []


def test_load_dataset_rejects_a_printer_id_no_file_name_holds(tmp_path):
    write_identity(tmp_path)

    def edit(m):
        m["printers"]["I\0D"] = m["printers"].pop("ID")
        m["scans"] = {"I\0D": [f"scans/I\0D/scan_{i:04d}.pgm" for i in range(2)]}

    edit_manifest(tmp_path, edit)
    with pytest.raises(FormatError, match="not a plain file name"):
        load_dataset(tmp_path, "ID")


@pytest.mark.parametrize("path", ["originals/code_0001.pbm", "scans/ID/scan_0001.pgm"])
def test_load_dataset_rejects_images_off_the_geometry(tmp_path, path):
    """An original is refused by load_dataset, a scan when it is first read."""
    write_identity(tmp_path)
    if path.endswith(".pbm"):
        write_pbm(ModuleMatrix(np.zeros((16, 16), np.uint8)), tmp_path / path)
        with pytest.raises(FormatError, match="size does not match"):
            load_dataset(tmp_path, "ID")
    else:
        # 96 px divides into 24 px blocks, so only the size check refuses it.
        write_pgm(PixelImage(np.full((96, 96), 200, np.uint8), BYTE0_255), tmp_path / path)
        scans = load_dataset(tmp_path, "ID").scans["ID"]
        scans[0]
        with pytest.raises(FormatError, match="scan_0001.pgm, whose size does not match"):
            scans[1]


def test_load_dataset_follows_links_inside_the_dataset(tmp_path):
    ds = write_identity(tmp_path)
    code = tmp_path / "originals" / "code_0000.pbm"
    code.unlink()
    code.symlink_to(tmp_path / "originals" / "code_0001.pbm")
    back = load_dataset(tmp_path, "ID")
    assert back.originals[0].bits.tobytes() == ds.originals[1].bits.tobytes()


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m["printers"]["ID"].update(psf_sigma="2.2"), "psf_sigma must be a number"),
    (lambda m: m["printers"]["ID"].update(dot_gain_radius=1.5), "dot_gain_radius must be an integer"),
    (lambda m: m["printers"]["ID"].update(noise_sigma=float("nan")), "noise_sigma must be a finite number"),
    # A manifest written while scans could be float carries quantize: true.
    (lambda m: m["printers"]["ID"].update(quantize=True), "unknown channel parameter.*quantize"),
    (lambda m: m["printers"]["ID"].update(gain=-1.0), "gain must be > 0"),
    (lambda m: m["printers"]["ID"].update(nozzle=3), "unknown channel parameter"),
    (lambda m: m.update(seed=3.7), "seed must be an integer"),
    (lambda m: m.update(seed=True), "seed must be an integer"),
    (lambda m: m.update(seed=-1), "seed must be an integer"),
    (lambda m: m.update(split_sizes=[1.0, 1, 0]), "split_sizes must be an integer"),
    (lambda m: m.update(split_sizes=[1, 1]), "split_sizes must be three counts"),
    (lambda m: m.update(split_sizes=[10 ** 12, 0, 0]), "more codes than the file can list"),
    (lambda m: m.update(split=["train", "test"]), r"differs in split\)"),
    (lambda m: m.update(split="tv"), r"differs in split\)"),
    (lambda m: m["geometry"].update(rows="24"), "geometry.rows must be an integer"),
    (lambda m: m["geometry"].update(block_px=7), "does not divide"),
    (lambda m: m.update(format_version=True), "unsupported manifest version"),
    (lambda m: m["scans"].update(SA=[]), r"differs in scans\)"),
    (lambda m: m["scans"]["ID"].pop(), r"differs in scans\)"),
    (lambda m: m["originals"].append("originals/code_0000.pbm"), r"differs in originals\)"),
    (lambda m: m.update(comment="x"), r"differs in comment\)"),
    (lambda m: m.update(splits=m.pop("split")), r"differs in split, splits\)"),
], ids=["sigma-text", "radius-real", "noise-nan", "quantize-written", "gain-negative",
        "unknown-param", "seed-real", "seed-bool", "seed-negative", "sizes-real", "sizes-two",
        "sizes-huge", "split-tag", "split-text", "rows-text", "block-off-grid", "version-bool",
        "scans-unknown-printer", "scans-short", "originals-long", "extra-key", "renamed-key"])
def test_load_dataset_rejects_values_of_the_wrong_type(tmp_path, edit, needle):
    """A manifest value of the wrong type or out of range, or any manifest
    but the one gen writes, ends in FormatError; no value is coerced, and
    none ends in another exception."""
    write_identity(tmp_path)
    edit_manifest(tmp_path, edit)
    with pytest.raises(FormatError, match=needle):
        load_dataset(tmp_path, "ID")


def test_load_dataset_reports_a_missing_image(tmp_path):
    write_identity(tmp_path)
    (tmp_path / "scans" / "ID" / "scan_0001.pgm").unlink()
    with pytest.raises(MissingInputError, match="scan_0001.pgm"):
        load_dataset(tmp_path, "ID")
    code = tmp_path / "originals" / "code_0000.pbm"
    code.unlink()
    code.mkdir()
    with pytest.raises(MissingInputError, match="not a file"):
        load_dataset(tmp_path, "ID")


def test_load_dataset_reads_no_scan_and_each_access_reads_one(tmp_path, monkeypatch):
    from pgclab import imgio

    write_identity(tmp_path, (5, 2, 1))
    scan_paths = [tmp_path / "scans" / "ID" / f"scan_{i:04d}.pgm" for i in range(8)]
    want = [imgio.read_pgm(path).pixels.tobytes() for path in scan_paths]
    want_t = calibrate_pixel_threshold(load_dataset(tmp_path, "ID"), "ID")
    read = []
    real_read_pgm = imgio.read_pgm

    def counted(path):
        read.append(path)
        return real_read_pgm(path)

    monkeypatch.setattr(imgio, "read_pgm", counted)
    back = load_dataset(tmp_path, "ID")
    assert read == []
    assert len(back.originals) == 8
    for i in (3, 0, 7, 3):
        del read[:]
        assert back.scans["ID"][i].pixels.tobytes() == want[i]
        assert len(read) == 1 and read[0].endswith(f"scan_{i:04d}.pgm")
    del read[:]
    assert calibrate_pixel_threshold(back, "ID") == want_t
    assert len(read) == 2
    with pytest.raises(IndexError):
        back.scans["ID"][8]


def test_a_truncated_scan_is_refused_when_it_is_read(tmp_path):
    write_identity(tmp_path)
    scan = tmp_path / "scans" / "ID" / "scan_0001.pgm"
    scan.write_bytes(scan.read_bytes()[:-1])
    back = load_dataset(tmp_path, "ID")
    with pytest.raises(FormatError, match="truncated PGM raster"):
        calibrate_pixel_threshold(back, "ID")
    scan.unlink()
    with pytest.raises(MissingInputError, match="scan_0001.pgm, which is not a file"):
        back.scans["ID"][1]


FUZZ_GEOMETRY = Geometry(rows=24, cols=24, module_px=6, block_px=24)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A written three-code dataset and its manifest, for mutating."""
    root = tmp_path_factory.mktemp("fuzz_dataset")
    params = {"ID": ChannelParams(), "SA": preset("SA")}
    build_dataset((1, 1, 1), FUZZ_GEOMETRY, params, 4, root)
    return root, json.loads((root / "manifest.json").read_text())


# Every field of the manifest, by its path.
MANIFEST_FIELDS = (
    [(key,) for key in ("format_version", "geometry", "seed", "split_sizes", "split",
                        "printers", "originals", "scans")]
    + [("geometry", key) for key in ("rows", "cols", "module_px", "block_px")]
    + [("split_sizes", 0), ("split", 1), ("originals", 0), ("scans", "ID"), ("scans", "SA", 2),
       ("printers", "ID"), ("printers", "SA")]
    + [("printers", "SA", key) for key in ("dot_gain_radius", "dot_gain_prob", "psf_sigma",
                                           "gain", "offset", "noise_sigma")]
)
def _json_containers(inner):
    keys = st.sampled_from(["ID", "SA", "rows", "psf_sigma", "quantize", "x"])
    return st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3)


MANIFEST_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["train", "val", "test", "ID", "SA", "originals",
                       "originals/code_0001.pbm", "scans/SA/scan_0000.pgm", "manifest.json"]),
    _json_containers,
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(MANIFEST_FIELDS), value=MANIFEST_VALUES)
@example(field=("printers", "SA", "psf_sigma"), value="2.2")
@example(field=("seed",), value=3.7)
@example(field=("split", 1), value=["val"])
@example(field=("scans", "SA", 2), value="originals")
@example(field=("geometry", "module_px"), value=3821)
def test_load_dataset_loads_or_raises_pgc_error(fuzz_dataset, field, value):
    """One field of a valid manifest replaced by any JSON value: the dataset
    loads and its splits can be used, or a typed error is raised."""
    root, manifest = fuzz_dataset
    manifest = json.loads(json.dumps(manifest))
    *parents, last = field
    holder = manifest
    for key in parents:
        holder = holder[key]
    holder[last] = value
    (root / "manifest.json").write_text(json.dumps(manifest))
    for pid in ("ID", "SA"):
        try:
            ds = load_dataset(root, pid)
            for tag in SPLITS:
                split_arrays(ds, pid, tag)
            calibrate_pixel_threshold(ds, pid)
        except PgcError:
            pass


# ---------------------------------------------------------------- convergence

def test_epoch_losses_mostly_non_increasing(tmp_path):
    """At a quarter of the default learning rate the epoch-end full-train
    loss should be monotone; tolerate rare float-level upticks."""
    ds = written_dataset(tmp_path, (8, 2, 2), {"SA": preset("SA")}, 7)
    cfg = TrainConfig(epochs=12, batch_size=128, learning_rate=2.5e-4, seed=1)
    _, history, _ = train_attack(*train_val(ds, "SA"), "bn", cfg)
    diffs = np.diff(history)
    bad = diffs[diffs > 0]
    assert bad.size <= 1
    if bad.size:
        assert bad.max() < 1e-6
