import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import gradient_check, model_astype, reference_gradient_check
from pgclab import nn
from pgclab.errors import DimensionError, FormatError, ParameterError, PgcError, StateError
from pgclab.nn import (
    ACT_IDENTITY,
    ACT_RELU,
    ACT_SIGMOID,
    CODE_DIM,
    REG_L2_WEIGHTS,
    LayerSpec,
    MlpModel,
    TrainConfig,
    batch_loss,
    build_bn,
    build_fc,
    forward,
    init_adam,
    load_model,
    loss_and_grads,
    optimizer_step,
    save_model,
    weight_sq_sum,
)


def small_model(dims, acts, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    layers, ws, bs = [], [], []
    for i, act in enumerate(acts):
        layers.append(LayerSpec(dims[i], dims[i + 1], act))
        ws.append(rng.normal(0, 0.5, (dims[i + 1], dims[i])).astype(dtype))
        bs.append(rng.normal(0, 0.1, dims[i + 1]).astype(dtype))
    return MlpModel(layers, ws, bs)


def dims(m):
    return [m.in_dim] + [s.out_dim for s in m.layers]


def n_params(m):
    return sum(w.size for w in m.weights) + sum(b.size for b in m.biases)


def bias_model(pred):
    """A one-layer identity model whose output is pred for every input."""
    pred = np.asarray(pred, np.float32)
    return MlpModel([LayerSpec(1, pred.size, ACT_IDENTITY)],
                    [np.zeros((pred.size, 1), np.float32)], [pred])


# ---------------------------------------------------------------- builders

def test_build_fc_shapes():
    m = build_fc(2, seed=0)
    assert dims(m) == [576, 576, 576, 576]
    assert [s.activation for s in m.layers] == [ACT_RELU, ACT_RELU, ACT_SIGMOID]
    assert all(w.shape == (576, 576) for w in m.weights)
    assert all(w.dtype == np.float32 for w in m.weights)
    assert all(not b.any() for b in m.biases)
    bound = math.sqrt(6.0 / (576 + 576))
    assert all(np.abs(w).max() <= bound for w in m.weights)
    assert len(build_fc(4, seed=0).weights) == 5


def test_build_fc_rejects_other_depths():
    for bad in (0, 1, 5):
        with pytest.raises(ParameterError):
            build_fc(bad, seed=0)


def test_build_bn_shapes():
    m = build_bn(seed=3)
    assert dims(m) == [576, 256, 128, 36, 128, 256, 576]
    assert [s.activation for s in m.layers[:-1]] == [ACT_RELU] * 5
    assert m.layers[-1].activation == ACT_SIGMOID
    d = dims(m)
    expect = sum(a * b for a, b in zip(d[:-1], d[1:])) + sum(d[1:])
    assert n_params(m) == expect


def test_builders_are_deterministic():
    a, b = build_bn(seed=7), build_bn(seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = build_bn(seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


# ---------------------------------------------------------------- forward

def test_zero_model_outputs_half():
    m = build_fc(2, seed=0)
    for w in m.weights:
        w[:] = 0
    x = np.random.default_rng(0).random((3, CODE_DIM), dtype=np.float32)
    np.testing.assert_array_equal(forward(m, x), np.full((3, CODE_DIM), 0.5, np.float32))


def test_forward_hand_computed_affine():
    m = MlpModel(
        [LayerSpec(2, 2, ACT_IDENTITY)],
        [np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)],
        [np.array([0.5, -1.0], np.float32)],
    )
    out = forward(m, np.array([[1.0, 2.0]], np.float32))
    np.testing.assert_allclose(out, [[5.5, 10.0]], atol=1e-6)


def test_forward_sigmoid_range_and_shapes():
    m = build_bn(seed=1)
    x = np.random.default_rng(1).random((5, CODE_DIM), dtype=np.float32)
    y = forward(m, x)
    assert y.shape == (5, CODE_DIM)
    assert y.dtype == np.float32
    assert (y > 0).all() and (y < 1).all()
    single = forward(m, x[:1])
    assert single.shape == (1, CODE_DIM)
    # batched matmul may differ from the one-row path in the last ulp
    np.testing.assert_allclose(single[0], y[0], rtol=1e-6)


def test_forward_rejects_wrong_width():
    m = small_model([4, 3], [ACT_SIGMOID])
    with pytest.raises(DimensionError):
        forward(m, np.zeros((2, 5), np.float32))
    with pytest.raises(DimensionError):
        forward(m, np.zeros(4, np.float32))


# ---------------------------------------------------------------- loss

def test_batch_loss_examples():
    x = np.zeros((1, 1), np.float32)
    assert batch_loss(bias_model([0.25, 0.75]), x, [[0.25, 0.75]]) == 0.0
    assert batch_loss(bias_model([0.5, 0.5]), x, [[0.0, 1.0]]) == pytest.approx(0.5)


def test_batch_loss_regularizer_matches_bruteforce():
    m = small_model([3, 4, 2], [ACT_RELU, ACT_SIGMOID], seed=2)
    cfg = TrainConfig(lam=0.1, regularizer=REG_L2_WEIGHTS)
    x = np.array([[0.3, 0.1, 0.8]], np.float32)
    target = np.array([[1.0, 0.0]])
    pred = forward(m, x).astype(np.float64)
    plain = float(np.sum((pred - target) ** 2))
    sq = sum(float(v) ** 2 for w in m.weights for v in w.ravel())
    got = batch_loss(m, x, target, cfg)
    assert got == pytest.approx(plain + 0.1 * sq, rel=1e-6)
    assert weight_sq_sum(m) == pytest.approx(sq, rel=1e-6)


def test_batch_loss_is_mean_over_samples():
    m = small_model([4, 3], [ACT_SIGMOID], seed=3)
    x = np.random.default_rng(4).random((6, 4), dtype=np.float32)
    t = np.random.default_rng(5).random((6, 3), dtype=np.float32)
    per = [batch_loss(m, x[i : i + 1], t[i : i + 1]) for i in range(6)]
    assert batch_loss(m, x, t) == pytest.approx(float(np.mean(per)), rel=1e-6)


def test_batch_loss_rejects_mismatched_shapes():
    m = small_model([4, 3], [ACT_SIGMOID])
    x = np.zeros((2, 4), np.float32)
    for t in (np.zeros((2, 4)), np.zeros((3, 3)), np.zeros(6)):
        with pytest.raises(DimensionError):
            batch_loss(m, x, t)
    with pytest.raises(DimensionError):
        batch_loss(m, np.zeros((0, 4), np.float32), np.zeros((0, 3)))


# ---------------------------------------------------------------- gradients

def test_zero_gradient_at_exact_fit():
    m = small_model([3, 3], [ACT_IDENTITY], seed=6)
    x = np.random.default_rng(7).random((4, 3))
    t = forward(m, x)
    _, gw, gb = loss_and_grads(m, x, t)
    for g in gw + gb:
        assert not g.any()


def test_batch_gradient_is_mean_of_singles():
    m = small_model([5, 4, 2], [ACT_RELU, ACT_SIGMOID], seed=8, dtype=np.float64)
    rng = np.random.default_rng(9)
    x = rng.random((2, 5))
    t = rng.random((2, 2))
    _, gw, gb = loss_and_grads(m, x, t)
    _, gw0, gb0 = loss_and_grads(m, x[:1], t[:1])
    _, gw1, gb1 = loss_and_grads(m, x[1:], t[1:])
    for g, a, b in zip(gw, gw0, gw1):
        np.testing.assert_allclose(g, (a + b) / 2, rtol=1e-12, atol=1e-15)
    for g, a, b in zip(gb, gb0, gb1):
        np.testing.assert_allclose(g, (a + b) / 2, rtol=1e-12, atol=1e-15)


def test_loss_and_grads_value_is_batch_loss():
    m = small_model([6, 5, 3], [ACT_RELU, ACT_SIGMOID], seed=10)
    rng = np.random.default_rng(11)
    x = rng.random((4, 6), dtype=np.float32)
    t = rng.random((4, 3), dtype=np.float32)
    cfg = TrainConfig(lam=0.01, regularizer=REG_L2_WEIGHTS)
    value, _, _ = loss_and_grads(m, x, t, cfg)
    assert value == batch_loss(m, x, t, cfg)


@pytest.mark.parametrize(
    "dims,acts,cfg",
    [
        ([7, 5, 3], [ACT_RELU, ACT_SIGMOID], None),
        ([6, 8, 8, 6], [ACT_RELU, ACT_RELU, ACT_SIGMOID], None),
        ([5, 4, 5], [ACT_SIGMOID, ACT_IDENTITY], None),
        ([9, 6, 2], [ACT_RELU, ACT_SIGMOID], TrainConfig(lam=0.05, regularizer=REG_L2_WEIGHTS)),
        ([32, 16, 8, 16, 32], [ACT_RELU] * 3 + [ACT_SIGMOID], None),
    ],
)
def test_gradient_check_small_models(dims, acts, cfg):
    m = small_model(dims, acts, seed=sum(dims))
    rng = np.random.default_rng(12)
    x = rng.random((6, dims[0]), dtype=np.float32)
    t = rng.random((6, dims[-1]), dtype=np.float32)
    err = gradient_check(m, x, t, cfg, n_coords=n_params(m), step=1e-3, seed=0)
    assert err <= 1e-3
    assert err == reference_gradient_check(m, x, t, cfg, n_coords=n_params(m), step=1e-3, seed=0)


@pytest.mark.parametrize("model", [lambda: build_fc(2, seed=1), lambda: build_bn(seed=2)],
                         ids=["fc2", "bn"])
def test_gradient_check_matches_whole_network_reruns_on_criterion_1(model):
    """Rerunning only the perturbed layer and those after it gives the
    bits of whole-network reruns, on criterion 1's inputs."""
    rng = np.random.default_rng(0)
    x = rng.random((8, 576), dtype=np.float32)
    t = rng.integers(0, 2, (8, 576)).astype(np.float32)
    assert gradient_check(model(), x, t, n_coords=2000, step=1e-3, seed=0) \
        == reference_gradient_check(model(), x, t, n_coords=2000, step=1e-3, seed=0)


# ---------------------------------------------------------------- optimizer

def test_adam_noop_on_zero_gradients():
    m = small_model([4, 3], [ACT_SIGMOID], seed=13)
    before = [w.copy() for w in m.weights]
    st = init_adam(m)
    zeros = ([np.zeros_like(w) for w in m.weights], [np.zeros_like(b) for b in m.biases])
    optimizer_step(m, zeros, st, TrainConfig())
    for w, b in zip(m.weights, before):
        np.testing.assert_array_equal(w, b)


def test_adam_first_step_matches_closed_form():
    m = model_astype(small_model([3, 2], [ACT_IDENTITY], seed=14), np.float64)
    before_w = [w.copy() for w in m.weights]
    before_b = [b.copy() for b in m.biases]
    rng = np.random.default_rng(15)
    gw = [rng.normal(0, 1, w.shape) for w in m.weights]
    gb = [rng.normal(0, 1, b.shape) for b in m.biases]
    cfg = TrainConfig(learning_rate=0.01)
    st = init_adam(m)
    optimizer_step(m, (gw, gb), st, cfg)
    assert st.step == 1
    for p0, p1, g in zip(before_w + before_b, m.weights + m.biases, gw + gb):
        expect = p0 - 0.01 * g / (np.abs(g) + nn.ADAM_EPS)
        np.testing.assert_allclose(p1, expect, rtol=1e-10, atol=1e-12)


def test_adam_requires_state():
    m = small_model([3, 2], [ACT_SIGMOID])
    g = ([np.zeros_like(w) for w in m.weights], [np.zeros_like(b) for b in m.biases])
    with pytest.raises(StateError):
        optimizer_step(m, g, None, TrainConfig())


def test_single_small_step_reduces_loss():
    m = model_astype(small_model([16, 8, 4], [ACT_RELU, ACT_SIGMOID], seed=16), np.float64)
    rng = np.random.default_rng(17)
    x = rng.random((8, 16))
    t = rng.integers(0, 2, (8, 4)).astype(np.float64)
    cfg = TrainConfig(learning_rate=1e-5)
    before, gw, gb = loss_and_grads(m, x, t, cfg)
    optimizer_step(m, (gw, gb), init_adam(m), cfg)
    after = batch_loss(m, x, t, cfg)
    assert after < before


def test_training_runs_identically_from_same_seed():
    cfg = TrainConfig(learning_rate=1e-3)
    rng = np.random.default_rng(18)
    x = rng.random((16, 6), dtype=np.float32)
    t = rng.random((16, 4), dtype=np.float32)
    histories = []
    finals = []
    for _ in range(2):
        m = small_model([6, 5, 4], [ACT_RELU, ACT_SIGMOID], seed=19)
        st = init_adam(m)
        vals = []
        for _ in range(10):
            v, gw, gb = loss_and_grads(m, x, t, cfg)
            optimizer_step(m, (gw, gb), st, cfg)
            vals.append(v)
        histories.append(vals)
        finals.append(m)
    assert histories[0] == histories[1]
    for a, b in zip(finals[0].weights, finals[1].weights):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- model file

def test_save_load_roundtrip(tmp_path):
    m = small_model([8, 5, 8], [ACT_RELU, ACT_SIGMOID], seed=20)
    p = tmp_path / "m.pgcm"
    save_model(m, 0.25, p)
    m2, thr = load_model(p)
    assert thr == 0.25
    assert [tuple(s.__dict__.items()) for s in m2.layers] == [
        tuple(s.__dict__.items()) for s in m.layers
    ]
    for a, b in zip(m.weights + m.biases, m2.weights + m2.biases):
        np.testing.assert_array_equal(a, b)
    x = np.random.default_rng(21).random((100, 8), dtype=np.float32)
    np.testing.assert_array_equal(forward(m, x), forward(m2, x))


def test_load_rejects_a_model_without_threshold(tmp_path):
    """Flag byte 0 once marked a model without a threshold; no verb writes one."""
    m = small_model([4, 3], [ACT_IDENTITY], seed=22)
    p = tmp_path / "m.pgcm"
    save_model(m, 0.5, p)
    p.write_bytes(p.read_bytes()[:-5] + b"\x00")
    with pytest.raises(FormatError, match="threshold flag 0"):
        load_model(p)


@pytest.mark.parametrize("threshold", [math.nan, 2.0, -0.5])
def test_save_refuses_a_threshold_outside_the_unit_interval(tmp_path, threshold):
    p = tmp_path / "m.pgcm"
    with pytest.raises(ParameterError, match="threshold"):
        save_model(small_model([4, 3], [ACT_IDENTITY], seed=22), threshold, p)
    assert not p.exists()


def test_saved_file_size_formula(tmp_path):
    m = small_model([8, 5, 8], [ACT_RELU, ACT_SIGMOID], seed=23)
    p = tmp_path / "m.pgcm"
    save_model(m, 0.5, p)
    assert p.stat().st_size == 12 + 12 * len(m.layers) + 4 * n_params(m) + 1 + 4


def test_load_rejects_corrupt_files(tmp_path):
    m = small_model([4, 3], [ACT_SIGMOID], seed=24)
    p = tmp_path / "m.pgcm"
    save_model(m, 0.5, p)
    raw = bytearray(p.read_bytes())

    for mutate in (
        lambda b: b"XXXX" + bytes(b[4:]),                      # magic
        lambda b: bytes(b[:4]) + b"\x63\x00\x00\x00" + bytes(b[8:]),  # version 99
        lambda b: bytes(b[:20]) + b"\x07\x00\x00\x00" + bytes(b[24:]),  # act code
        lambda b: bytes(b[:-3]),                               # truncated
        lambda b: bytes(b) + b"xx",                            # trailing junk
        lambda b: bytes(b[:-5]) + b"\x02" + bytes(b[-4:]),     # flag byte
        *[lambda b, t=t: bytes(b[:-4]) + struct.pack("<f", t)  # threshold
          for t in (math.nan, 2.0, -0.5)],
    ):
        q = tmp_path / "bad.pgcm"
        q.write_bytes(mutate(raw))
        with pytest.raises(FormatError):
            load_model(q)


@pytest.fixture(scope="module")
def pgcm_bytes(tmp_path_factory):
    """A valid two-layer model file with a threshold."""
    m = small_model([4, 3, 2], [ACT_RELU, ACT_SIGMOID], seed=25)
    p = tmp_path_factory.mktemp("pgcm") / "m.pgcm"
    save_model(m, 0.5, p)
    return p.read_bytes()


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 130), st.integers(0, 255)), max_size=4),
    word=st.none() | st.tuples(st.sampled_from([4, 8, 12, 16, 20, 24, 28, 32]),
                               st.integers(0, 2**32 - 1)),
    cut=st.integers(0, 140),
    tail=st.binary(max_size=8),
)
@example(edits=[], word=(12, 2**31), cut=140, tail=b"")
@example(edits=[], word=(12, 0), cut=140, tail=b"")
@example(edits=[], word=(8, 0), cut=140, tail=b"")
def test_load_model_loads_or_raises_pgc_error(pgcm_bytes, tmp_path_factory, edits, word, cut,
                                             tail):
    """Mutated PGCM bytes: bytes overwritten, a header word replaced, the
    file cut short or extended.  The model loads or a typed error is raised."""
    data = bytearray(pgcm_bytes)
    for pos, value in edits:
        if pos < len(data):
            data[pos] = value
    if word is not None:
        pos, value = word
        data[pos : pos + 4] = value.to_bytes(4, "little")
    p = tmp_path_factory.getbasetemp() / "fuzzed.pgcm"
    p.write_bytes(bytes(data[:cut]) + tail)
    try:
        m, _ = load_model(p)
    except PgcError:
        return
    m.validate()


# ---------------------------------------------------------------- misc

def test_train_config_validation():
    for bad in (
        dict(epochs=0),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(lam=-1.0),
        dict(regularizer="l3"),
        dict(lam=0.1, regularizer="none"),
        dict(seed=-1),
        # Each field has its default's type: an int may stand for a float,
        # a bool for neither, and a float must be finite.
        dict(epochs=2.5),
        dict(batch_size=True),
        dict(seed=1.5),
        dict(learning_rate=float("nan")),
        dict(learning_rate="x"),
    ):
        with pytest.raises(ParameterError):
            TrainConfig(**bad)
    TrainConfig(learning_rate=1, lam=0)


def test_layer_spec_validation():
    with pytest.raises(DimensionError):
        LayerSpec(0, 3, ACT_RELU)
    with pytest.raises(ParameterError):
        LayerSpec(3, 3, "tanh")


# ---------------------------------------------------------------- bit identity
# The training step's array code is written for speed; these oracles are
# the plain forms it must reproduce bit for bit.

def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def sigmoid_masked(z):
    """Sigmoid branching on sign through boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grads_plain(m, x, t):
    """Forward, batch loss and backward with a fresh array per operation."""
    acts = [x]
    for spec, w, b in zip(m.layers, m.weights, m.biases):
        z = acts[-1] @ w.T + b
        if spec.activation == ACT_RELU:
            z = np.maximum(z, 0)
        elif spec.activation == ACT_SIGMOID:
            z = sigmoid_masked(z)
        acts.append(z)
    d = acts[-1].astype(np.float64) - t.astype(np.float64)
    value = float(np.sum(d * d)) / x.shape[0]
    grad_w, grad_b = [None] * len(m.layers), [None] * len(m.layers)
    da = (2.0 / x.shape[0]) * (acts[-1] - t)
    for k in range(len(m.layers) - 1, -1, -1):
        a = acts[k + 1]
        if m.layers[k].activation == ACT_SIGMOID:
            dz = da * a * (1.0 - a)
        elif m.layers[k].activation == ACT_RELU:
            dz = da * (a > 0)
        else:
            dz = da
        grad_w[k] = dz.T @ acts[k]
        grad_b[k] = np.sum(dz, axis=0)
        if k > 0:
            da = dz @ m.weights[k]
    return value, grad_w, grad_b


def adam_per_array(params, grads, moments, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update with a temporary per operation; moments are (m, v) pairs."""
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for p, g, (mom, vel) in zip(params, grads, moments):
        mom *= b1
        mom += (1.0 - b1) * g
        vel *= b2
        vel += (1.0 - b2) * (g * g)
        p -= lr * (mom / c1) / (np.sqrt(vel / c2) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_masked_form(dtype):
    info = np.finfo(dtype)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    special = np.array(
        [0.0, -0.0, 88.0, -88.0, 1e4, -1e4, 1.0, -1.0, 17.0, -17.0, 40.0, -40.0,
         710.0, -710.0, -745.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max,
         info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal],
        dtype=dtype,
    )
    rng = np.random.default_rng(30)
    if dtype == np.float32:
        # Every 4099th of the 2**32 bit patterns: every exponent, both
        # signs, and quiet and signalling NaN payloads.
        patterns = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(uint)
    else:
        patterns = rng.integers(0, 2**64, 2**20, dtype=uint)
    z = np.concatenate([
        special,
        rng.normal(0.0, 8.0, 128 * 576).astype(dtype),
        (rng.normal(0.0, 1.0, 1001) * info.smallest_subnormal * 64).astype(dtype),
        patterns.view(dtype),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        want = sigmoid_masked(z)
        np.testing.assert_array_equal(_bits(nn._sigmoid(z.copy())), _bits(want))
        batch = z[len(special) : len(special) + 128 * 576].reshape(128, 576)
        want = sigmoid_masked(batch)
        np.testing.assert_array_equal(_bits(nn._sigmoid(batch)), _bits(want))


@pytest.mark.parametrize("build", [build_bn, lambda seed: build_fc(2, seed)])
def test_loss_and_grads_bit_identical_to_plain_form(build):
    m = build(31)
    rng = np.random.default_rng(32)
    x = rng.random((128, CODE_DIM), dtype=np.float32)
    t = rng.integers(0, 2, (128, CODE_DIM)).astype(np.float32)
    value, gw, gb = loss_and_grads(m, x, t)
    want_value, want_w, want_b = loss_and_grads_plain(m, x, t)
    assert value == want_value
    for got, want in zip(gw + gb, want_w + want_b):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    assert batch_loss(m, x, t) == want_value
    md = model_astype(m, np.float64)
    xd, td = x.astype(np.float64), t.astype(np.float64)
    _, gw, gb = loss_and_grads(md, xd, td)
    _, want_w, want_b = loss_and_grads_plain(md, xd, td)
    for got, want in zip(gw + gb, want_w + want_b):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("build", [build_bn, lambda seed: build_fc(2, seed)])
def test_optimizer_step_bit_identical_to_per_array_adam(build):
    """Six consecutive steps on real gradients, compared after each.  Both
    models have arrays that span several Adam chunks, the last one partial
    (fc2's 576x576 weights span six); each array is updated in place."""
    m = build(33)
    assert any(w.size > nn.ADAM_CHUNK and w.size % nn.ADAM_CHUNK for w in m.weights)
    params = [p.copy() for p in m.weights + m.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    state = init_adam(m)
    arrays = m.weights + m.biases + state.m_w + state.m_b + state.v_w + state.v_b
    cfg = TrainConfig(learning_rate=0.05)
    rng = np.random.default_rng(34)
    for step in range(1, 7):
        x = rng.random((128, CODE_DIM), dtype=np.float32)
        t = rng.integers(0, 2, (128, CODE_DIM)).astype(np.float32)
        _, gw, gb = loss_and_grads(m, x, t, cfg)
        optimizer_step(m, (gw, gb), state, cfg)
        adam_per_array(params, gw + gb, moments, step, cfg.learning_rate)
        got_all = m.weights + m.biases + state.m_w + state.m_b + state.v_w + state.v_b
        want_all = params + [mom for mom, _ in moments] + [vel for _, vel in moments]
        for got, same, want in zip(got_all, arrays, want_all, strict=True):
            assert got is same
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_adam_rejects_non_contiguous_arrays():
    # The update writes through flat views, which a copy would silently lose.
    m = small_model([4, 3], [ACT_SIGMOID], seed=13)
    st = init_adam(m)
    m.weights[0] = np.asfortranarray(m.weights[0])
    grads = ([np.ones_like(w) for w in m.weights], [np.ones_like(b) for b in m.biases])
    with pytest.raises(StateError):
        optimizer_step(m, grads, st, TrainConfig())


# ---------------------------------------------------------------- memory
# Inference runs over row blocks, holds one activation at a time, and sums
# the loss over leaves of its output; the sigmoid reuses its input.  These
# pin the results to the one-shot forms that kept every activation and a
# float64 copy of the whole output.

BUILDERS = [build_bn, lambda seed: build_fc(2, seed)]
B = nn.ROW_BLOCK
ROW_COUNTS = [1, 33, 34, B - 1, B, B + 1, 2 * B + 1, 2560, 2816]


def one_shot_loss(m, x, t):
    """batch_loss as one pass over every row and one np.sum over a float64
    copy of the whole output."""
    d = nn._forward_acts(m, x)[-1].astype(np.float64)
    d -= t
    d *= d
    return float(np.sum(d)) / x.shape[0]


def test_row_blocks_have_at_least_the_block_rows():
    for n in [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 5 * B + 7]:
        blocks = list(nn.row_blocks(n))
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        if n < 2 * B:
            assert sizes == [n]
        else:
            assert min(sizes) >= B and max(sizes) < 2 * B


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_forward_bit_identical_to_last_of_all_activations(build, dtype):
    m = model_astype(build(41), dtype)
    rng = np.random.default_rng(42)
    for n in ROW_COUNTS:
        x = rng.random((n, CODE_DIM)).astype(dtype)
        want = nn._forward_acts(m, x)[-1]
        got = forward(m, x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_batch_loss_bit_identical_to_one_shot_form(build, dtype):
    m = model_astype(build(47), dtype)
    rng = np.random.default_rng(48)
    for n in ROW_COUNTS:
        x = rng.random((n, CODE_DIM)).astype(dtype)
        t = rng.integers(0, 2, (n, CODE_DIM), dtype=np.uint8)
        assert batch_loss(m, x, t) == one_shot_loss(m, x, t)


def scale_and_unpack(x, t):
    """A prep of byte inputs and packed 0/1 targets, as attack.network_rows."""
    return x.astype(np.float32) / np.float32(255), np.unpackbits(t, axis=1, count=CODE_DIM)


def test_prep_maps_each_row_block_to_the_input_and_targets():
    m = build_bn(49)
    x = np.random.default_rng(50).integers(0, 256, (2 * B + 3, CODE_DIM), dtype=np.uint8)
    bits = (x > 127).astype(np.uint8)
    seen = []

    def prep(rows, packed):
        seen.append((rows.shape[0], packed.shape[0]))
        return scale_and_unpack(rows, packed)

    scaled = x.astype(np.float32) / np.float32(255)
    assert batch_loss(m, x, np.packbits(bits, axis=1), prep=prep) == \
        one_shot_loss(m, scaled, bits)
    assert seen == [(B, B), (B + 3, B + 3)]
    with pytest.raises(DimensionError):
        batch_loss(m, x, np.packbits(bits, axis=1)[1:], prep=prep)
    with pytest.raises(DimensionError):
        batch_loss(m, x, np.packbits(bits, axis=1), prep=lambda a, b: (a, b))


STREAM_ROWS = [1, 33, 34, B - 1, B, B + 1, 2 * B - 1, 2560, 12800]


@pytest.mark.parametrize("with_prep", [False, True], ids=["no-prep", "prep"])
@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_streamed_batch_loss_is_the_one_shot_objective(build, with_prep):
    """batch_loss, which never makes the whole batch's output, has the bits
    of _objective over the one-shot output, at row counts either side of
    ROW_BLOCK and of _SUM_LEAF's leaves, with the l2_weights regularizer
    and without it."""
    assert B * CODE_DIM > nn._SUM_LEAF  # so some leaves straddle two row blocks
    m = build(51)
    cfgs = [None, TrainConfig(lam=1e-4, regularizer=REG_L2_WEIGHTS)]
    rng = np.random.default_rng(52)
    for n in STREAM_ROWS:
        bits = rng.integers(0, 2, (n, CODE_DIM), dtype=np.uint8)
        if with_prep:
            x = rng.integers(0, 256, (n, CODE_DIM), dtype=np.uint8)
            packed = np.packbits(bits, axis=1)
            got = [batch_loss(m, x, packed, cfg, prep=scale_and_unpack) for cfg in cfgs]
            out = nn._output(m, scale_and_unpack(x, packed)[0])
        else:
            x = rng.random((n, CODE_DIM), dtype=np.float32)
            got = [batch_loss(m, x, bits, cfg) for cfg in cfgs]
            out = nn._output(m, x)
        want = [nn._objective(m, out, bits, cfg) for cfg in cfgs]
        assert got == want, n
        assert want[1] > want[0]


_SPECIALS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300]


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 300), st.integers(0, 3 * nn._SUM_LEAF + 4099)),
    pred_dtype=st.sampled_from([np.float32, np.float64]),
    target_dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    specials=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(_SPECIALS)),
                      max_size=4),
    cuts=st.lists(st.integers(0, 2**31), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3 * nn._SUM_LEAF + 1, pred_dtype=np.float32, target_dtype=np.uint8,
         specials=[], cuts=[], seed=0)
@example(n=nn._SUM_LEAF, pred_dtype=np.float64, target_dtype=np.float64,
         specials=[(7, np.nan), (9, np.inf)], cuts=[], seed=1)
@example(n=3 * nn._SUM_LEAF + 9, pred_dtype=np.float32, target_dtype=np.uint8,
         specials=[], cuts=[1, 5, 5, nn._SUM_LEAF - 3, 2 * nn._SUM_LEAF], seed=2)
def test_leafwise_square_error_sum_is_np_sum(n, pred_dtype, target_dtype, specials, cuts,
                                             seed):
    """_sq_err_sum has the bits of np.sum over the whole float64 difference
    array, at every length, with non-finite predictions included, however
    the elements are cut into the pieces it is given."""
    rng = np.random.default_rng(seed)
    pred = rng.random(n).astype(pred_dtype)
    if target_dtype == np.uint8:
        t = rng.integers(0, 2, n, dtype=np.uint8)
    else:
        t = rng.normal(0.5, 2.0, n).astype(target_dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, v in specials:
            if n:
                pred[i % n] = v
        d = pred.astype(np.float64)
        d -= t
        d *= d
        want = np.sum(d)
        bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
        pieces = iter([(pred[lo:hi], t[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
        got = nn._sq_err_sum(pieces, n)
    assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_uint8_targets_give_the_float32_targets_bits(build):
    m = build(43)
    rng = np.random.default_rng(44)
    x = rng.random((200, CODE_DIM), dtype=np.float32)
    bits = rng.integers(0, 2, (200, CODE_DIM), dtype=np.uint8)
    cfg = TrainConfig(lam=1e-4, regularizer=REG_L2_WEIGHTS)
    assert batch_loss(m, x, bits) == batch_loss(m, x, bits.astype(np.float32))
    assert batch_loss(m, x, bits, cfg) == batch_loss(m, x, bits.astype(np.float32), cfg)
    value, gw, gb = loss_and_grads(m, x, bits, cfg)
    want_value, want_w, want_b = loss_and_grads(m, x, bits.astype(np.float32), cfg)
    assert value == want_value
    for got, want in zip(gw + gb, want_w + want_b, strict=True):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_batch_loss_peak_memory_does_not_grow_with_the_batch(build):
    """One row block's float32 output beside the next block's activations,
    and one leaf's float64 differences, are all that batch_loss holds at
    its peak, however many rows the batch has."""
    import tracemalloc

    m = build(45)
    rng = np.random.default_rng(46)
    widths = m.in_dim + sum(spec.out_dim for spec in m.layers)
    for n in (2048, 8192):
        x = rng.random((n, CODE_DIM), dtype=np.float32)
        t = rng.integers(0, 2, (n, CODE_DIM), dtype=np.uint8)
        batch_loss(m, x, t)
        tracemalloc.start()
        try:
            batch_loss(m, x, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * B * (2 * m.out_dim + widths) + 8 * nn._SUM_LEAF + 2**20, n
