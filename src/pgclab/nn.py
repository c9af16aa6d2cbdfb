"""Dense-network engine: build, run, differentiate, update, persist.

Small and self-contained on purpose.  Parameters and activations are
float32; loss terms accumulate in float64.  Everything is deterministic
given the seeds, with fixed reduction orders.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ParameterError,
    StateError,
    check_field_types,
)

ACT_IDENTITY = "identity"
ACT_RELU = "relu"
ACT_SIGMOID = "sigmoid"
ACTIVATIONS = (ACT_IDENTITY, ACT_RELU, ACT_SIGMOID)

# On-disk activation codes.
_ACT_CODE = {ACT_IDENTITY: 0, ACT_RELU: 1, ACT_SIGMOID: 2}
_CODE_ACT = {v: k for k, v in _ACT_CODE.items()}

REG_NONE = "none"
REG_L2_WEIGHTS = "l2_weights"


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionError("layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")


@dataclass
class MlpModel:
    """A stack of affine layers with elementwise activations.

    weights[k] has shape (out_dim, in_dim); biases[k] has shape (out_dim,).
    """

    layers: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("model has no layers")
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise DimensionError("parameter lists do not match layer count")
        for k, spec in enumerate(self.layers):
            if k + 1 < len(self.layers) and spec.out_dim != self.layers[k + 1].in_dim:
                raise DimensionError(f"layers {k} and {k + 1} do not chain")
            if self.weights[k].shape != (spec.out_dim, spec.in_dim):
                raise DimensionError(f"weight {k} shape {self.weights[k].shape}")
            if self.biases[k].shape != (spec.out_dim,):
                raise DimensionError(f"bias {k} shape {self.biases[k].shape}")

    # The lists can change after the model is made; save_model checks again.
    validate = __post_init__

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 128
    learning_rate: float = 1e-3
    lam: float = 0.0
    regularizer: str = REG_NONE
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, "training.")
        if self.epochs < 1:
            raise ParameterError("training.epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("training.batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ParameterError("training.learning_rate must be > 0")
        if self.lam < 0:
            raise ParameterError("training.lam must be >= 0")
        if self.regularizer not in (REG_NONE, REG_L2_WEIGHTS):
            raise ParameterError(f"training.regularizer must be {REG_NONE!r} or "
                                 f"{REG_L2_WEIGHTS!r}, not {self.regularizer!r}")
        if self.lam > 0 and self.regularizer == REG_NONE:
            raise ParameterError(f"training.lam {self.lam} needs regularizer "
                                 f"{REG_L2_WEIGHTS!r}, not {REG_NONE!r}")
        if self.seed < 0:
            raise ParameterError("training.seed must be >= 0")


def _init_params(specs: list[LayerSpec], seed: int):
    # Uniform Glorot bounds sqrt(6 / (fan_in + fan_out)), zero biases.
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        weights.append(w.astype(np.float32))
        biases.append(np.zeros(spec.out_dim, dtype=np.float32))
    return weights, biases


def build_fc(hidden_layers: int, dim: int, seed: int) -> MlpModel:
    """Fully connected model of dim-pixel blocks, every layer dim wide."""
    if hidden_layers not in (2, 3, 4):
        raise ParameterError("hidden_layers must be 2, 3 or 4")
    dims = [dim] * (hidden_layers + 2)
    specs = [
        LayerSpec(dims[k], dims[k + 1], ACT_RELU if k < hidden_layers else ACT_SIGMOID)
        for k in range(hidden_layers + 1)
    ]
    return MlpModel(specs, *_init_params(specs, seed))


def build_bn(dim: int, seed: int) -> MlpModel:
    """Bottleneck model of dim-pixel blocks, dim-256-128-36-128-256-dim,
    with a 36-dim latent."""
    dims = [dim, 256, 128, 36, 128, 256, dim]
    n = len(dims) - 1
    specs = [
        LayerSpec(dims[k], dims[k + 1], ACT_RELU if k < n - 1 else ACT_SIGMOID)
        for k in range(n)
    ]
    return MlpModel(specs, *_init_params(specs, seed))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; 1/(1+e) for z >= 0 and e/(1+e) below are
    # the two stable forms, sharing the denominator 1 + e.  The numerator
    # exp(min(z, 0)) is exactly 1 for z >= 0 and has e's bits for z < 0,
    # where min(z, 0) is -|z|, so no select on the sign is needed.  The
    # numerator is built in z itself: callers pass a fresh pre-activation
    # that they do not read again.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.minimum(z, 0, out=z)
    np.exp(z, out=z)
    e += 1.0
    z /= e
    return z


def _activations(m: MlpModel, x: np.ndarray):
    """Each layer's activation for a (n, in_dim) batch, first to last.

    A caller that drops each activation once it has the next one holds
    at most two at a time.
    """
    a = x
    for spec, w, b in zip(m.layers, m.weights, m.biases):
        a = a @ w.T
        a += b
        if spec.activation == ACT_RELU:
            np.maximum(a, 0, out=a)
        elif spec.activation == ACT_SIGMOID:
            a = _sigmoid(a)
        yield a


def _forward_acts(m: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """All layer activations for a (n, in_dim) batch, its input in the
    model dtype included."""
    x = x.astype(m.weights[0].dtype, copy=False)
    return [x, *_activations(m, x)]


# Inference runs over blocks of this many rows, the last block taking the
# shorter tail, so that no block has fewer rows unless the whole batch does.
# Small blocks would change the bits: with OpenBLAS 0.3.31 a bn forward
# pass over 33 rows or fewer (fc2: 2 or fewer) rounds differently from the
# same rows inside a larger batch.  Blocks of this size give the rows of
# the one-shot pass exactly; tests/test_nn.py compares the two forms.
ROW_BLOCK = 256


def row_blocks(n: int):
    """The (lo, hi) row bounds of an n-row batch's inference blocks."""
    k = max(1, n // ROW_BLOCK)
    for i in range(k):
        yield i * ROW_BLOCK, n if i == k - 1 else (i + 1) * ROW_BLOCK


def _last_activation(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """The last layer's activation of a batch, each earlier activation
    dropped once the next is made."""
    for a in _activations(m, x.astype(m.weights[0].dtype, copy=False)):
        pass
    return a


def _check_input(m: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != m.in_dim:
        raise DimensionError(f"input shape {x.shape} does not match in_dim {m.in_dim}")
    return x


def forward(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Run the network on a (n, in_dim) batch, one row block at a time."""
    x = _check_input(m, x)
    out = np.empty((x.shape[0], m.out_dim), m.weights[0].dtype)
    for lo, hi in row_blocks(x.shape[0]):
        out[lo:hi] = _last_activation(m, x[lo:hi])
    return out


def weight_sq_sum(m: MlpModel) -> float:
    """Sum of squared weights (biases excluded), in float64."""
    return float(sum(np.sum(w.astype(np.float64) ** 2) for w in m.weights))


def batch_loss(m: MlpModel, batch_x: np.ndarray, batch_t: np.ndarray,
               cfg: TrainConfig | None = None, prep=None) -> float:
    """Mean per-sample squared error plus (once) the regularizer term.

    prep, when given, maps each row block of batch_x and of batch_t to the
    network's input and its targets, so that the batch may hold them in
    other forms, such as scan bytes and packed bits.

    The squared errors of each row block are added up with one np.sum, and
    the block sums in order.  A block is dropped before the next one is
    made, so one block's output and its float64 errors are held at a time,
    never an output of the whole batch.
    """
    x, t = np.asarray(batch_x), np.asarray(batch_t)
    if len(x) == 0:
        raise DimensionError("empty batch")
    if t.shape[:1] != x.shape[:1]:
        raise DimensionError("target batch shape mismatch")
    total = 0.0
    for lo, hi in row_blocks(len(x)):
        xb, tb = x[lo:hi], t[lo:hi]
        if prep is not None:
            xb, tb = prep(xb, tb)
        xb, tb = _check_batch(m, xb, tb)
        total += _squared_error(_last_activation(m, xb), tb)
    return _mean_loss(m, total, len(x), cfg)


def _squared_error(pred: np.ndarray, t: np.ndarray) -> np.float64:
    """np.sum of the float64 (pred - t) ** 2."""
    d = pred.astype(np.float64)
    d -= t
    d *= d
    return np.sum(d)


def _mean_loss(m: MlpModel, total, n: int, cfg: TrainConfig | None) -> float:
    """The mean over n samples of a squared-error total, plus the
    regularizer term."""
    value = float(total) / n
    if cfg is not None and cfg.lam > 0:
        value += cfg.lam * weight_sq_sum(m)
    return value


def _objective(m: MlpModel, pred: np.ndarray, tb: np.ndarray,
               cfg: TrainConfig | None) -> float:
    """The loss of a training batch's (n, out_dim) prediction, its squared
    errors added up with one np.sum."""
    return _mean_loss(m, _squared_error(pred, tb), pred.shape[0], cfg)


def _check_batch(m: MlpModel, batch_x, batch_t):
    """The shape-checked batch, inputs and targets as given."""
    x = _check_input(m, batch_x)
    if x.shape[0] == 0:
        raise DimensionError("empty batch")
    tb = np.asarray(batch_t)
    if tb.shape != (x.shape[0], m.out_dim):
        raise DimensionError("target batch shape mismatch")
    return x, tb


def _grads_from_acts(m: MlpModel, acts: list[np.ndarray], tb: np.ndarray,
                     cfg: TrainConfig | None):
    n = acts[0].shape[0]
    lam = cfg.lam if cfg is not None else 0.0
    grad_w = [None] * len(m.layers)
    grad_b = [None] * len(m.layers)
    # d(batch_loss)/d(pred), mean over the batch of sum-of-squares terms.
    # dz is built in place in a fresh array, factor by factor from the left.
    dz = acts[-1] - tb
    dz *= 2.0 / n
    for k in range(len(m.layers) - 1, -1, -1):
        a = acts[k + 1]
        activation = m.layers[k].activation
        if activation == ACT_SIGMOID:
            dz *= a
            dz *= 1.0 - a
        elif activation == ACT_RELU:
            dz *= a > 0
        grad_w[k] = dz.T @ acts[k]
        if lam > 0:
            grad_w[k] += (2.0 * lam) * m.weights[k]
        grad_b[k] = np.sum(dz, axis=0)
        if k > 0:
            dz = dz @ m.weights[k]
    return grad_w, grad_b


def loss_and_grads(m: MlpModel, batch_x: np.ndarray, batch_t: np.ndarray,
                   cfg: TrainConfig | None = None):
    """batch_loss and its gradients from a single forward pass."""
    xb, tb = _check_batch(m, batch_x, batch_t)
    acts = _forward_acts(m, xb)
    tb = tb.astype(acts[0].dtype, copy=False)
    value = _objective(m, acts[-1], tb, cfg)
    grad_w, grad_b = _grads_from_acts(m, acts, tb, cfg)
    return value, grad_w, grad_b


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Every this many steps Adam sets its subnormal moments to 0.  The first
# moment of a weight whose gradient stays 0 decays by b1 a step into the
# subnormal range and sticks a few units above 0 (0.9 k rounds back to k
# for k <= 4), and every later step on it ran several times slower.  Such
# a moment is far too small to move a weight's last bit, and a subnormal
# second moment is lost beside eps, so the weights keep their bits.  A
# flush on every step would cost more than the stuck moments do early on.
ADAM_FLUSH_EVERY = 32


@dataclass
class AdamState:
    """The step counter and the first and second moments of each parameter,
    in weights + biases order."""

    step: int
    mom: list[np.ndarray]
    vel: list[np.ndarray]


def init_adam(model: MlpModel) -> AdamState:
    params = model.weights + model.biases
    return AdamState(step=0, mom=[np.zeros_like(p) for p in params],
                     vel=[np.zeros_like(p) for p in params])


def _adam_scalars(t: int, lr: float) -> tuple:
    """Step t's b1, 1 - b1, b2, 1 - b2, c1, c2, eps and lr; each is rounded
    to the parameter dtype where it meets an array."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    return b1, 1.0 - b1, b2, 1.0 - b2, 1.0 - b1 ** t, 1.0 - b2 ** t, ADAM_EPS, lr


def optimizer_step(m: MlpModel, grads, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update, in place.

    Per element: mom = b1 mom + (1 - b1) g, vel = b2 vel + (1 - b2) g^2,
    p -= lr (mom / c1) / (sqrt(vel / c2) + eps), every product and
    quotient rounded in the parameter dtype, each subnormal mom and vel
    set to 0 first on every ADAM_FLUSH_EVERY-th step.  Each gradient and
    moment must have its parameter's shape, and every array must be
    C-contiguous, aligned and writeable; both are checked before any array
    is written.  Arrays that are all float32 go through the compiled kernel
    of _adam.c, once per parameter, when it builds and passes its probe;
    the rest, or all of them without it, go through _adam_numpy's passes
    over whole arrays.  The two give the same bits, NaN payloads aside:
    where a NaN gradient meets a NaN moment, numpy's own add returns either
    operand's NaN, by the element's place in the array.
    """
    if state is None:
        raise StateError("optimizer state not initialized (call init_adam)")
    grad_w, grad_b = grads
    params = m.weights + m.biases
    if not len(params) == len(grad_w) + len(grad_b) == len(state.mom) == len(state.vel):
        raise DimensionError("Adam needs one gradient and one moment pair per parameter")
    groups = list(zip(params, grad_w + grad_b, state.mom, state.vel))
    for arrays in groups:
        if any(a.shape != arrays[0].shape for a in arrays):
            raise DimensionError(f"Adam's gradient and moments must have their "
                                 f"parameter's shape {arrays[0].shape}")
        if not all(a.flags.carray for a in arrays):
            raise StateError("Adam's arrays must be C-contiguous, aligned and writeable")
    state.step += 1
    scalars = _adam_scalars(state.step, cfg.learning_rate)
    flush = state.step % ADAM_FLUSH_EVERY == 0
    for arrays in groups:
        if all(a.dtype == np.float32 for a in arrays) and (kernel := _adam_kernel()) is not None:
            kernel(*(a.ctypes.data for a in arrays), arrays[0].size, *scalars, flush)
        else:
            _adam_numpy(*arrays, scalars, flush)


def _adam_numpy(p, g, mom, vel, scalars, flush: bool) -> None:
    """optimizer_step's update of one parameter, in 14 numpy passes over
    the whole arrays."""
    b1, omb1, b2, omb2, c1, c2, eps, lr = scalars
    mom *= b1
    s1 = np.multiply(g, omb1)
    mom += s1
    vel *= b2
    np.multiply(g, g, out=s1)
    s1 *= omb2
    vel += s1
    if flush:
        # Times 1 where |moment| >= tiny, else 0: a NaN stays NaN.
        for moment in (mom, vel):
            np.abs(moment, out=s1)
            np.greater_equal(s1, np.finfo(s1.dtype).tiny, out=s1)
            moment *= s1
    np.divide(vel, c2, out=s1)
    np.sqrt(s1, out=s1)
    s1 += eps
    s2 = np.divide(mom, c1)
    s2 *= lr
    s2 /= s1
    p -= s2


_ADAM_SOURCE = os.path.join(os.path.dirname(__file__), "_adam.c")
# No -ffast-math and no -march: each operation must round as numpy's does.
_ADAM_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


def _build_adam_kernel():
    """_adam.c's adam_f32 through ctypes, or None when there is no C
    compiler, the build or the load fails, or the kernel does not give
    _adam_numpy's bits on the probe.

    The shared library is built once per user into
    $XDG_CACHE_HOME/pgclab (default ~/.cache/pgclab), named by the sha256
    of the source and the flags; it is written under a temporary name and
    moved into place, so concurrent builds never load a partial file.
    """
    import ctypes
    import hashlib
    import subprocess

    try:
        with open(_ADAM_SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read() + " ".join(_ADAM_FLAGS).encode()).hexdigest()
        cache_dir = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        path = os.path.join(cache_dir, "pgclab", f"adam-{digest}.so")
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            subprocess.run(["cc", *_ADAM_FLAGS, "-o", tmp, _ADAM_SOURCE],
                           check=True, capture_output=True)
            os.replace(tmp, path)
        kernel = ctypes.CDLL(path).adam_f32
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    kernel.restype = None
    kernel.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_size_t]
                       + [ctypes.c_float] * 8 + [ctypes.c_int])
    return kernel if _kernel_matches_numpy(kernel) else None


def _kernel_matches_numpy(kernel) -> bool:
    """Whether the kernel gives _adam_numpy's NaNs and every other bit on
    a fixed probe: an odd length, NaN, inf, +-0, subnormal and normal
    values in every array, one plain step and one flush step."""
    info = np.finfo(np.float32)
    pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, info.smallest_subnormal,
                     -3 * info.smallest_subnormal, info.tiny, -info.tiny / 3, 1e-20,
                     -2.5e-3, 0.5, 1.0, -7.0, 3e38], np.float32)
    rng = np.random.default_rng(0)
    want = rng.choice(pool, (4, 1001))
    want[:, ::2] = rng.normal(0.0, 1.0, (4, 501)) * 10.0 ** rng.integers(-30, 30, (4, 501))
    got = want.copy()
    for t, flush in ((1, False), (ADAM_FLUSH_EVERY, True)):
        scalars = _adam_scalars(t, 1e-3)
        with np.errstate(all="ignore"):
            _adam_numpy(*want, scalars, flush)
        kernel(*(a.ctypes.data for a in got), got.shape[1], *scalars, flush)
    nan = np.isnan(want)
    return np.array_equal(nan, np.isnan(got)) and want[~nan].tobytes() == got[~nan].tobytes()


# The probed kernel or None, built at most once per process, on the first
# float32 step.
_adam_kernel = cache(_build_adam_kernel)


MODEL_MAGIC = b"PGCM"
MODEL_VERSION = 1


def save_model(m: MlpModel, threshold: float, path) -> None:
    """Write the model and its calibrated threshold in the PGCM binary format.

    Layout: magic, u32 version, u32 layer count, per layer u32 in_dim /
    u32 out_dim / u32 activation code, then every weight matrix row-major,
    then every bias vector, all little-endian float32, then the flag byte 1
    and the float32 threshold, which must lie in [0, 1].
    """
    m.validate()
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold {threshold} outside [0, 1]")
    parts = [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(m.layers))]
    for spec in m.layers:
        parts.append(struct.pack("<III", spec.in_dim, spec.out_dim, _ACT_CODE[spec.activation]))
    for w in m.weights:
        parts.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
    for b in m.biases:
        parts.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    parts.append(b"\x01" + struct.pack("<f", float(threshold)))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path):
    """Read a PGCM file; returns (model, threshold)."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated model file")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4) != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic (not a PGCM model file)")
    version, n_layers = struct.unpack("<II", take(8))
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if n_layers == 0:
        raise FormatError(f"{path}: zero layers")
    specs = []
    for _ in range(n_layers):
        in_dim, out_dim, code = struct.unpack("<III", take(12))
        if code not in _CODE_ACT:
            raise FormatError(f"{path}: unknown activation code {code}")
        specs.append(LayerSpec(in_dim, out_dim, _CODE_ACT[code]))
    weights = []
    for spec in specs:
        raw = take(4 * spec.in_dim * spec.out_dim)
        weights.append(np.frombuffer(raw, dtype="<f4").reshape(spec.out_dim, spec.in_dim).copy())
    biases = [np.frombuffer(take(4 * spec.out_dim), dtype="<f4").copy() for spec in specs]
    flag = take(1)[0]
    if flag != 1:
        raise FormatError(f"{path}: threshold flag {flag}, not 1 (re-run train)")
    threshold = float(struct.unpack("<f", take(4))[0])
    if not 0.0 <= threshold <= 1.0:
        raise FormatError(f"{path}: threshold {threshold} outside [0, 1]")
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return MlpModel(specs, weights, biases), threshold

