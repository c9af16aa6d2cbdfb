import math
import os
import shutil
import struct
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from block_loss import block_sum_loss
from gradcheck import gradient_check, model_astype, reference_gradient_check
from pgclab import nn
from pgclab.errors import DimensionError, FormatError, ParameterError, PgcError, StateError
from pgclab.nn import (
    ACT_IDENTITY,
    ACT_RELU,
    ACT_SIGMOID,
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


# A 24-pixel block's width, as the shipped geometry cuts it.
DIM = 576


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
    m = build_fc(2, DIM, seed=0)
    assert dims(m) == [576, 576, 576, 576]
    assert [s.activation for s in m.layers] == [ACT_RELU, ACT_RELU, ACT_SIGMOID]
    assert all(w.shape == (576, 576) for w in m.weights)
    assert all(w.dtype == np.float32 for w in m.weights)
    assert all(not b.any() for b in m.biases)
    bound = math.sqrt(6.0 / (576 + 576))
    assert all(np.abs(w).max() <= bound for w in m.weights)
    assert len(build_fc(4, DIM, seed=0).weights) == 5
    assert dims(build_fc(3, 256, seed=0)) == [256] * 5


def test_build_fc_rejects_other_depths():
    for bad in (0, 1, 5):
        with pytest.raises(ParameterError):
            build_fc(bad, DIM, seed=0)


def test_build_bn_shapes():
    m = build_bn(DIM, seed=3)
    assert dims(m) == [576, 256, 128, 36, 128, 256, 576]
    assert [s.activation for s in m.layers[:-1]] == [ACT_RELU] * 5
    assert m.layers[-1].activation == ACT_SIGMOID
    d = dims(m)
    expect = sum(a * b for a, b in zip(d[:-1], d[1:])) + sum(d[1:])
    assert n_params(m) == expect
    # Only the outer widths follow the blocks.
    assert dims(build_bn(256, seed=3)) == [256, 256, 128, 36, 128, 256, 256]


def test_builders_are_deterministic():
    a, b = build_bn(DIM, seed=7), build_bn(DIM, seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = build_bn(DIM, seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


# ---------------------------------------------------------------- forward

def test_zero_model_outputs_half():
    m = build_fc(2, DIM, seed=0)
    for w in m.weights:
        w[:] = 0
    x = np.random.default_rng(0).random((3, DIM), dtype=np.float32)
    np.testing.assert_array_equal(forward(m, x), np.full((3, DIM), 0.5, np.float32))


def test_forward_hand_computed_affine():
    m = MlpModel(
        [LayerSpec(2, 2, ACT_IDENTITY)],
        [np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)],
        [np.array([0.5, -1.0], np.float32)],
    )
    out = forward(m, np.array([[1.0, 2.0]], np.float32))
    np.testing.assert_allclose(out, [[5.5, 10.0]], atol=1e-6)


def test_forward_sigmoid_range_and_shapes():
    m = build_bn(DIM, seed=1)
    x = np.random.default_rng(1).random((5, DIM), dtype=np.float32)
    y = forward(m, x)
    assert y.shape == (5, DIM)
    assert y.dtype == np.float32
    assert (y > 0).all() and (y < 1).all()
    single = forward(m, x[:1])
    assert single.shape == (1, DIM)
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


@pytest.mark.parametrize("model", [lambda: build_fc(2, DIM, seed=1), lambda: build_bn(DIM, seed=2)],
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

@pytest.fixture(params=["kernel", "numpy"])
def adam_path(request, monkeypatch):
    """Runs a test on the float32 path optimizer_step takes here (the
    compiled kernel, where a C compiler builds it) and on the numpy passes
    forced."""
    if request.param == "numpy":
        monkeypatch.setattr(nn, "_adam_kernel", lambda: None)
    return request.param


def test_adam_noop_on_zero_gradients():
    m = small_model([4, 3], [ACT_SIGMOID], seed=13)
    before = [w.copy() for w in m.weights]
    st = init_adam(m)
    zeros = ([np.zeros_like(w) for w in m.weights], [np.zeros_like(b) for b in m.biases])
    optimizer_step(m, zeros, st, TrainConfig())
    for w, b in zip(m.weights, before):
        np.testing.assert_array_equal(w, b)


@pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-10, 1e-12),
                                               (np.float32, 1e-6, 1e-6)])
def test_adam_first_step_matches_closed_form(adam_path, dtype, rtol, atol):
    m = model_astype(small_model([3, 2], [ACT_IDENTITY], seed=14), dtype)
    before_w = [w.copy() for w in m.weights]
    before_b = [b.copy() for b in m.biases]
    rng = np.random.default_rng(15)
    gw = [rng.normal(0, 1, w.shape).astype(dtype) for w in m.weights]
    gb = [rng.normal(0, 1, b.shape).astype(dtype) for b in m.biases]
    cfg = TrainConfig(learning_rate=0.01)
    st = init_adam(m)
    optimizer_step(m, (gw, gb), st, cfg)
    assert st.step == 1
    for p0, p1, g in zip(before_w + before_b, m.weights + m.biases, gw + gb):
        expect = p0 - 0.01 * g / (np.abs(g) + nn.ADAM_EPS)
        np.testing.assert_allclose(p1, expect, rtol=rtol, atol=atol)


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


def test_int_settings_train_as_their_floats():
    """A config's "learning_rate": 1 reaches TrainConfig as the int 1; it
    trains a model to the same bits as 1.0."""
    rng = np.random.default_rng(47)
    x = rng.random((8, 6), dtype=np.float32)
    t = rng.integers(0, 2, (8, 4), dtype=np.uint8)
    weights = []
    for cfg in (TrainConfig(learning_rate=1, lam=1, regularizer=REG_L2_WEIGHTS),
                TrainConfig(learning_rate=1.0, lam=1.0, regularizer=REG_L2_WEIGHTS)):
        m = small_model([6, 5, 4], [ACT_RELU, ACT_SIGMOID], seed=48)
        state = init_adam(m)
        for _ in range(3):
            _, gw, gb = loss_and_grads(m, x, t, cfg)
            optimizer_step(m, (gw, gb), state, cfg)
        weights.append([_bits(p).tobytes() for p in m.weights + m.biases])
    assert weights[0] == weights[1]


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


@pytest.mark.parametrize("build", [lambda seed: build_bn(DIM, seed), lambda seed: build_fc(2, DIM, seed)])
def test_loss_and_grads_bit_identical_to_plain_form(build):
    m = build(31)
    rng = np.random.default_rng(32)
    x = rng.random((128, DIM), dtype=np.float32)
    t = rng.integers(0, 2, (128, DIM)).astype(np.float32)
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


@pytest.mark.parametrize("build", [lambda seed: build_bn(DIM, seed), lambda seed: build_fc(2, DIM, seed)])
def test_optimizer_step_bit_identical_to_per_array_adam(adam_path, build):
    """Six consecutive steps on real gradients, compared after each; each
    array is updated in place."""
    m = build(33)
    params = [p.copy() for p in m.weights + m.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    state = init_adam(m)
    arrays = m.weights + m.biases + state.mom + state.vel
    cfg = TrainConfig(learning_rate=0.05)
    rng = np.random.default_rng(34)
    for step in range(1, 7):
        x = rng.random((128, DIM), dtype=np.float32)
        t = rng.integers(0, 2, (128, DIM)).astype(np.float32)
        _, gw, gb = loss_and_grads(m, x, t, cfg)
        optimizer_step(m, (gw, gb), state, cfg)
        adam_per_array(params, gw + gb, moments, step, cfg.learning_rate)
        got_all = m.weights + m.biases + state.mom + state.vel
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


def _subnormal_count(arrays):
    tiny = np.finfo(arrays[0].dtype).tiny
    return sum(int(np.count_nonzero((a != 0) & (np.abs(a) < tiny))) for a in arrays)


def _fading_input_run(steps):
    """A small model trained on one batch whose first three inputs are 0
    after the third step, so the first layer's weights on them get exactly
    0 gradients and their first moments decay into the subnormal range.
    Returns the losses, the parameters and the moments after each step."""
    m = small_model([6, 5, 4], [ACT_RELU, ACT_SIGMOID], seed=20)
    rng = np.random.default_rng(21)
    x = rng.random((8, 6), dtype=np.float32)
    t = rng.integers(0, 2, (8, 4)).astype(np.float32)
    cfg = TrainConfig(learning_rate=1e-3)
    st = init_adam(m)
    record = []
    for step in range(steps):
        if step == 3:
            x[:, :3] = 0
        value, gw, gb = loss_and_grads(m, x, t, cfg)
        optimizer_step(m, (gw, gb), st, cfg)
        record.append((value, [p.copy() for p in m.weights + m.biases],
                       [a.copy() for a in st.mom + st.vel]))
    return record


def test_flushing_subnormal_moments_keeps_the_weights_bits(adam_path, monkeypatch):
    """Over 1100 steps the fading inputs' first moments pass through the
    subnormal range and get stuck there without the flush; with it, fewer
    are subnormal at the end, every loss and parameter keeps its bits, and
    each flush step leaves no subnormal moment."""
    flushed = _fading_input_run(1100)
    monkeypatch.setattr(nn, "ADAM_FLUSH_EVERY", 10**9)
    plain = _fading_input_run(1100)
    assert _subnormal_count(flushed[-1][2]) < _subnormal_count(plain[-1][2])
    for step, ((value, params, moments), (want_value, want_params, _)) in enumerate(
            zip(flushed, plain), start=1):
        assert value == want_value
        for got, want in zip(params, want_params):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        if step % nn.ADAM_FLUSH_EVERY == 0:
            assert _subnormal_count(moments) == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_subnormal_moment_survives_a_flush(adam_path, dtype):
    """Moments seeded with subnormals of both signs, normals, zeros, inf
    and NaN, in a 300x300 layer: a zero-gradient flush step scales each by
    its decay rate and sets exactly the subnormal results to 0; the step
    after it, no flush step, keeps them."""
    m = model_astype(small_model([300, 300], [ACT_SIGMOID], seed=22), dtype)
    info = np.finfo(dtype)
    pool = np.array([0.0, -0.0, np.inf, np.nan, 1.0, -2.5e-3, 2 * info.tiny, -1e3 * info.tiny,
                     info.tiny, -info.tiny,
                     info.smallest_subnormal, -info.smallest_subnormal,
                     4 * info.smallest_subnormal, info.tiny / 3, -info.tiny / 2], dtype)
    rng = np.random.default_rng(23)
    st = init_adam(m)
    zeros = ([np.zeros_like(w) for w in m.weights], [np.zeros_like(b) for b in m.biases])
    for step, flush in ((nn.ADAM_FLUSH_EVERY, True), (nn.ADAM_FLUSH_EVERY + 1, False)):
        decayed = []
        for moments, beta in ((st.mom, nn.ADAM_BETA1), (st.vel, nn.ADAM_BETA2)):
            for a in moments:
                a[...] = rng.choice(pool, a.shape)
                if beta == nn.ADAM_BETA2:
                    np.abs(a, out=a)  # second moments are never negative
                decayed.append(a * beta)
        st.step = step - 1
        with np.errstate(invalid="ignore"):  # the weights of inf and NaN moments
            optimizer_step(m, zeros, st, TrainConfig())
        assert st.step == step
        for got, want in zip(st.mom + st.vel, decayed):
            if flush:
                want[np.abs(want) < info.tiny] = 0
            np.testing.assert_array_equal(got, want)
        assert (_subnormal_count(st.mom + st.vel) == 0) == flush


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _adam_steps(m, grads, moments, first_step, steps):
    """A copy of m's parameters and its moments after steps Adam steps on
    fixed gradients, from moments set to the given values at step
    first_step."""
    m = MlpModel(m.layers, [w.copy() for w in m.weights], [b.copy() for b in m.biases])
    st = init_adam(m)
    for a, value in zip(st.mom + st.vel, moments, strict=True):
        a[...] = value
    st.step = first_step
    with np.errstate(all="ignore"):
        for _ in range(steps):
            optimizer_step(m, grads, st, TrainConfig(learning_rate=0.05))
    return m.weights + m.biases + st.mom + st.vel


def _bits_nan_aside(a):
    """The bits of a, every NaN made one NaN: where a NaN gradient meets a
    NaN moment, numpy's add returns either NaN by the element's place."""
    return _bits(np.where(np.isnan(a), np.float32(np.nan), a))


@needs_cc
@pytest.mark.parametrize("grad", ["finite", "nan", "inf"])
@pytest.mark.parametrize("n", [1, 3, 17, 65537])
def test_adam_kernel_gives_the_numpy_passes_bits(monkeypatch, n, grad):
    """A (1, n) weight and its bias, from moments holding NaN, inf, +-0,
    subnormal and normal values, over three steps with a flush step in the
    middle: the kernel and the numpy passes forced give the same bits, NaN
    payloads aside, also where every fifth gradient is NaN or +-inf."""
    assert nn._adam_kernel() is not None
    m = small_model([n, 1], [ACT_SIGMOID], seed=n)
    info = np.finfo(np.float32)
    pool = np.array([0.0, -0.0, np.inf, np.nan, -np.nan, info.smallest_subnormal,
                     -info.tiny / 3, info.tiny, 1e-3, -2.0], np.float32)
    rng = np.random.default_rng(n)
    moments = [rng.choice(pool, p.shape) for p in (m.weights + m.biases) * 2]
    gw = [rng.normal(0, 1, w.shape).astype(np.float32) for w in m.weights]
    gb = [rng.normal(0, 1, b.shape).astype(np.float32) for b in m.biases]
    if grad != "finite":
        for g in gw + gb:
            g.reshape(-1)[::5] = np.float32(grad)
            g.reshape(-1)[2::5] = -np.float32(grad)
    kernel = _adam_steps(m, (gw, gb), moments, nn.ADAM_FLUSH_EVERY - 2, 3)
    monkeypatch.setattr(nn, "_adam_kernel", lambda: None)
    numpy = _adam_steps(m, (gw, gb), moments, nn.ADAM_FLUSH_EVERY - 2, 3)
    for got, want in zip(kernel, numpy, strict=True):
        np.testing.assert_array_equal(_bits_nan_aside(got), _bits_nan_aside(want))


@needs_cc
def test_the_kernel_is_the_float32_path_where_cc_builds_it(monkeypatch):
    """float32 arrays never reach the numpy passes; float64 arrays do."""
    reached = []
    monkeypatch.setattr(nn, "_adam_numpy", lambda p, *rest: reached.append(p.dtype))
    for dtype in (np.float32, np.float64):
        m = small_model([4, 3], [ACT_SIGMOID], seed=13, dtype=dtype)
        before = [p.copy() for p in m.weights + m.biases]
        grads = ([np.ones_like(w) for w in m.weights], [np.ones_like(b) for b in m.biases])
        optimizer_step(m, grads, init_adam(m), TrainConfig())
        moved = [not np.array_equal(p, q) for p, q in zip(m.weights + m.biases, before)]
        assert moved == [dtype == np.float32] * 2
    assert reached == [np.float64, np.float64]


def _falls_back_to_the_numpy_bits(monkeypatch):
    """Training with a kernel getter that builds afresh, once, gives the
    bits of the numpy passes forced, over a flush step."""
    monkeypatch.setattr(nn, "_adam_kernel", cache(nn._build_adam_kernel))
    built = _fading_input_run(nn.ADAM_FLUSH_EVERY + 2)
    assert nn._adam_kernel() is None
    monkeypatch.setattr(nn, "_adam_kernel", lambda: None)
    forced = _fading_input_run(nn.ADAM_FLUSH_EVERY + 2)
    for (value, params, moments), (want_value, want_params, want_moments) in zip(built, forced):
        assert value == want_value
        for got, want in zip(params + moments, want_params + want_moments):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_a_failed_build_falls_back_to_the_numpy_bits(tmp_path, monkeypatch):
    """A compiler that exits 1 leaves no kernel in the cache, and training
    runs on the numpy passes."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    ran = tmp_path / "ran"
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\necho \"$@\" >> {ran}\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert nn._build_adam_kernel() is None
    assert "-ffp-contract=off" in ran.read_text()
    assert list((tmp_path / "cache").rglob("*.so")) == []
    _falls_back_to_the_numpy_bits(monkeypatch)


@needs_cc
def test_a_kernel_that_fails_its_probe_falls_back_to_the_numpy_bits(tmp_path, monkeypatch):
    """A kernel that adds its step builds, is cached, and is refused."""
    source = open(nn._ADAM_SOURCE).read()
    wrong = source.replace("p[i] = p[i] - ", "p[i] = p[i] + ")
    assert wrong != source
    (tmp_path / "_adam.c").write_text(wrong)
    monkeypatch.setattr(nn, "_ADAM_SOURCE", str(tmp_path / "_adam.c"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert nn._build_adam_kernel() is None
    assert len(list((tmp_path / "cache" / "pgclab").glob("adam-*.so"))) == 1
    _falls_back_to_the_numpy_bits(monkeypatch)


@pytest.mark.parametrize("bad", ["transposed gradient", "longer gradient", "shorter moment",
                                 "missing gradient"])
def test_adam_refuses_misshapen_arrays_before_writing_any(adam_path, bad):
    """The kernel reads raw pointers over the parameter's length, so every
    gradient and moment must have its parameter's shape.  The misfit sits
    in the last parameter, so an update that checked as it went would have
    written the others first."""
    m = small_model([4, 3, 2], [ACT_RELU, ACT_SIGMOID], seed=13)
    st = init_adam(m)
    gw = [np.ones_like(w) for w in m.weights]
    gb = [np.ones_like(b) for b in m.biases]
    if bad == "transposed gradient":
        gw[-1] = np.ones((3, 2), np.float32)  # for the (2, 3) weight
    elif bad == "longer gradient":
        gb[-1] = np.ones(3, np.float32)
    elif bad == "shorter moment":
        st.vel[-1] = np.zeros(1, np.float32)
    else:
        gb = gb[:-1]
    before = [a.copy() for a in m.weights + m.biases + st.mom + st.vel]
    with pytest.raises(DimensionError):
        optimizer_step(m, (gw, gb), st, TrainConfig())
    assert st.step == 0
    for a, want in zip(m.weights + m.biases + st.mom + st.vel, before, strict=True):
        np.testing.assert_array_equal(_bits(a), _bits(want))


# ---------------------------------------------------------------- memory
# Inference runs over row blocks, holds one activation at a time, and sums
# the loss block by block; the sigmoid reuses its input.  These pin the
# results to the one-shot forms that kept every activation and a float64
# copy of the whole output.

BUILDERS = [lambda seed: build_bn(DIM, seed), lambda seed: build_fc(2, DIM, seed)]
B = nn.ROW_BLOCK
ROW_COUNTS = [1, 33, 34, B - 1, B, B + 1, 2 * B + 1, 2560, 2816]


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
        x = rng.random((n, DIM)).astype(dtype)
        want = nn._forward_acts(m, x)[-1]
        got = forward(m, x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(_bits(got), _bits(want))


def scale_and_unpack(x, t):
    """A prep of byte inputs and packed 0/1 targets, as attack.network_rows."""
    return x.astype(np.float32) / np.float32(255), np.unpackbits(t, axis=1, count=DIM)


def test_prep_maps_each_row_block_to_the_input_and_targets():
    m = build_bn(DIM, 49)
    x = np.random.default_rng(50).integers(0, 256, (2 * B + 3, DIM), dtype=np.uint8)
    bits = (x > 127).astype(np.uint8)
    seen = []

    def prep(rows, packed):
        seen.append((rows.shape[0], packed.shape[0]))
        return scale_and_unpack(rows, packed)

    scaled = x.astype(np.float32) / np.float32(255)
    assert batch_loss(m, x, np.packbits(bits, axis=1), prep=prep) == \
        block_sum_loss(m, scaled, bits)
    assert seen == [(B, B), (B + 3, B + 3)]
    with pytest.raises(DimensionError):
        batch_loss(m, x, np.packbits(bits, axis=1)[1:], prep=prep)
    with pytest.raises(DimensionError):
        batch_loss(m, x, np.packbits(bits, axis=1), prep=lambda a, b: (a, b))


STREAM_ROWS = [1, 33, 34, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 2560, 12800]


@pytest.mark.parametrize("with_prep", [False, True], ids=["no-prep", "prep"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_streamed_batch_loss_is_the_one_shot_objective(build, dtype, with_prep):
    """batch_loss, which never makes the whole batch's output, has the bits
    of the block sums over the one-shot output, at row counts either side
    of ROW_BLOCK, in float32 and float64 models, with the l2_weights
    regularizer and without it."""
    m = model_astype(build(51), dtype)
    cfgs = [None, TrainConfig(lam=1e-4, regularizer=REG_L2_WEIGHTS)]
    rng = np.random.default_rng(52)
    for n in STREAM_ROWS:
        bits = rng.integers(0, 2, (n, DIM), dtype=np.uint8)
        if with_prep:
            x = rng.integers(0, 256, (n, DIM), dtype=np.uint8)
            packed = np.packbits(bits, axis=1)
            got = [batch_loss(m, x, packed, cfg, prep=scale_and_unpack) for cfg in cfgs]
            x = scale_and_unpack(x, packed)[0]
        else:
            x = rng.random((n, DIM), dtype=dtype)
            got = [batch_loss(m, x, bits, cfg) for cfg in cfgs]
        want = [block_sum_loss(m, x, bits, cfg) for cfg in cfgs]
        assert got == want, n
        assert want[1] > want[0]


@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_training_loss_is_one_sum_over_the_batch(build):
    """loss_and_grads adds up a batch's squared errors with one np.sum, on
    a batch of three row blocks whose block sums round differently."""
    m = build(53)
    rng = np.random.default_rng(60)
    x = rng.random((3 * B, DIM), dtype=np.float32)
    t = rng.integers(0, 2, (3 * B, DIM), dtype=np.uint8)
    d = nn._forward_acts(m, x)[-1].astype(np.float64).ravel()
    d -= t.ravel()
    d *= d
    want = float(np.sum(d)) / (3 * B)
    assert block_sum_loss(m, x, t) != want
    assert loss_and_grads(m, x, t)[0] == want


@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_uint8_targets_give_the_float32_targets_bits(build):
    m = build(43)
    rng = np.random.default_rng(44)
    x = rng.random((200, DIM), dtype=np.float32)
    bits = rng.integers(0, 2, (200, DIM), dtype=np.uint8)
    cfg = TrainConfig(lam=1e-4, regularizer=REG_L2_WEIGHTS)
    assert batch_loss(m, x, bits) == batch_loss(m, x, bits.astype(np.float32))
    assert batch_loss(m, x, bits, cfg) == batch_loss(m, x, bits.astype(np.float32), cfg)
    value, gw, gb = loss_and_grads(m, x, bits, cfg)
    want_value, want_w, want_b = loss_and_grads(m, x, bits.astype(np.float32), cfg)
    assert value == want_value
    for got, want in zip(gw + gb, want_w + want_b, strict=True):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_integer_and_float_targets_give_the_same_bits():
    """Targets are taken as given: 0/1 targets of any of these dtypes give
    a float32 model the same loss and gradients, bit for bit."""
    m = small_model([6, 5, 4], [ACT_RELU, ACT_SIGMOID], seed=45)
    rng = np.random.default_rng(46)
    x = rng.random((40, 6), dtype=np.float32)
    bits = rng.integers(0, 2, (40, 4), dtype=np.uint8)
    cfg = TrainConfig(lam=1e-3, regularizer=REG_L2_WEIGHTS)
    want_loss = batch_loss(m, x, bits, cfg)
    want_value, want_w, want_b = loss_and_grads(m, x, bits, cfg)
    for dtype in (np.int64, np.float32, np.float64):
        t = bits.astype(dtype)
        assert batch_loss(m, x, t, cfg) == want_loss
        value, gw, gb = loss_and_grads(m, x, t, cfg)
        assert value == want_value
        for got, want in zip(gw + gb, want_w + want_b, strict=True):
            np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("build", BUILDERS, ids=["bn", "fc2"])
def test_batch_loss_peak_memory_does_not_grow_with_the_batch(build):
    """One row block's float32 output beside the next block's activations,
    and one block's float64 errors, are all that batch_loss holds at its
    peak, however many rows the batch has."""
    import tracemalloc

    m = build(45)
    rng = np.random.default_rng(46)
    widths = m.in_dim + sum(spec.out_dim for spec in m.layers)
    for n in (2048, 8192):
        x = rng.random((n, DIM), dtype=np.float32)
        t = rng.integers(0, 2, (n, DIM), dtype=np.uint8)
        batch_loss(m, x, t)
        tracemalloc.start()
        try:
            batch_loss(m, x, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * B * (2 * m.out_dim + widths) + 8 * B * m.out_dim + 2**20, n
