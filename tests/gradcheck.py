"""Finite-difference gradient check of pgclab.nn's backward pass.

gradient_check perturbs sampled weights and biases one at a time.  A
perturbation of layer k leaves the activations before it with the same
bits, so only layers k and later are run again, from the base input of
layer k, and only their relu masks can change.
reference_gradient_check is the form that runs the whole network and
compares every mask for each perturbation; the two return the same bits.
"""

import numpy as np

from pgclab.errors import StateError
from pgclab.nn import (
    ACT_RELU,
    MlpModel,
    _activations,
    _check_batch,
    _forward_acts,
    _grads_from_acts,
    _objective,
)


def model_astype(m: MlpModel, dtype) -> MlpModel:
    """A copy of the model with its weights and biases in dtype."""
    return MlpModel(list(m.layers), [w.astype(dtype) for w in m.weights],
                    [b.astype(dtype) for b in m.biases])


def _relu_masks(m: MlpModel, acts, k: int = 0):
    """The relu masks of layers k and later; acts[j + 1] is layer j's output."""
    return [acts[j + 1] > 0 for j in range(k, len(m.layers))
            if m.layers[j].activation == ACT_RELU]


def _masks_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _sampled_coordinates(arrays, n_coords: int, seed: int):
    """(array index, index in it) of n_coords distinct coordinates drawn
    over all the arrays."""
    offsets = np.concatenate([[0], np.cumsum([a.size for a in arrays])])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    for flat in rng.choice(total, size=min(n_coords, total), replace=False):
        ai = int(np.searchsorted(offsets, flat, side="right") - 1)
        yield ai, np.unravel_index(int(flat - offsets[ai]), arrays[ai].shape)


def _central_difference(md: MlpModel, cfg, step: float, ai: int, saved, acts_lo, acts_hi, tb):
    """The central difference of the objective at one coordinate."""
    # Regularizer depends on the weight value, so recompute it at +-step.
    lo = _objective(md, acts_lo[-1], tb, cfg)
    hi = _objective(md, acts_hi[-1], tb, cfg)
    if cfg is not None and cfg.lam > 0 and ai < len(md.weights):
        hi += cfg.lam * ((saved + step) ** 2 - saved ** 2)
        lo += cfg.lam * ((saved - step) ** 2 - saved ** 2)
    return (hi - lo) / (2.0 * step)


def _max_relative_error(analytic, fd) -> float:
    if not analytic:
        raise StateError("every sampled coordinate crossed a relu kink")
    a = np.asarray(analytic)
    f = np.asarray(fd)
    scale = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-12)
    return float(np.max(np.abs(a - f)) / scale)


def gradient_check(m: MlpModel, batch_x: np.ndarray, batch_t: np.ndarray,
                   cfg=None, n_coords: int = 2000, step: float = 1e-3, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    Works on a float64 copy of the model.  Coordinates are sampled at
    random over all weights and biases; a coordinate is skipped when the
    +-step perturbation flips any relu mask, because the finite-difference
    quotient straddles a kink there and estimates nothing.  Returns
    max |analytic - fd| / max(||analytic||_inf, ||fd||_inf) over the
    sampled coordinates.
    """
    md = model_astype(m, np.float64)
    xb, tb = _check_batch(md, batch_x, batch_t)
    acts = _forward_acts(md, xb)
    grad_w, grad_b = _grads_from_acts(md, acts, tb, cfg)
    n_layers = len(md.layers)
    base_masks = [_relu_masks(md, acts, k) for k in range(n_layers)]
    # The layers from k on, sharing the float64 copy's arrays, so that a
    # perturbation of one of them is seen.
    tails = [MlpModel(md.layers[k:], md.weights[k:], md.biases[k:]) for k in range(n_layers)]

    arrays = md.weights + md.biases
    grads = grad_w + grad_b
    analytic, fd = [], []
    for ai, idx in _sampled_coordinates(arrays, n_coords, seed):
        k = ai % n_layers
        arr = arrays[ai]
        saved = arr[idx]
        arr[idx] = saved + step
        acts_hi = acts[: k + 1] + list(_activations(tails[k], acts[k]))
        arr[idx] = saved - step
        acts_lo = acts[: k + 1] + list(_activations(tails[k], acts[k]))
        arr[idx] = saved
        if not (_masks_equal(base_masks[k], _relu_masks(md, acts_hi, k))
                and _masks_equal(base_masks[k], _relu_masks(md, acts_lo, k))):
            continue
        fd.append(_central_difference(md, cfg, step, ai, saved, acts_lo, acts_hi, tb))
        analytic.append(grads[ai][idx])
    return _max_relative_error(analytic, fd)


def reference_gradient_check(m: MlpModel, batch_x: np.ndarray, batch_t: np.ndarray,
                             cfg=None, n_coords: int = 2000, step: float = 1e-3,
                             seed: int = 0) -> float:
    """gradient_check with two passes through the whole network, and every
    relu mask compared, for each sampled coordinate."""
    md = model_astype(m, np.float64)
    xb, tb = _check_batch(md, batch_x, batch_t)
    acts = _forward_acts(md, xb)
    xb = acts[0]
    grad_w, grad_b = _grads_from_acts(md, acts, tb, cfg)
    base_masks = _relu_masks(md, acts)

    arrays = list(md.weights) + list(md.biases)
    grads = list(grad_w) + list(grad_b)
    analytic, fd = [], []
    for ai, idx in _sampled_coordinates(arrays, n_coords, seed):
        arr = arrays[ai]
        saved = arr[idx]
        arr[idx] = saved + step
        acts_hi = _forward_acts(md, xb)
        hi_masks = _relu_masks(md, acts_hi)
        arr[idx] = saved - step
        acts_lo = _forward_acts(md, xb)
        lo_masks = _relu_masks(md, acts_lo)
        arr[idx] = saved
        if not (_masks_equal(base_masks, hi_masks) and _masks_equal(base_masks, lo_masks)):
            continue
        fd.append(_central_difference(md, cfg, step, ai, saved, acts_lo, acts_hi, tb))
        analytic.append(grads[ai][idx])
    return _max_relative_error(analytic, fd)
