"""Defender side: similarity scores, the thresholded test, ROC summaries.

The test declares a code authentic when alpha * d(x, y) >= gamma, with
alpha = +1 for Pearson correlation (genuine prints correlate highly) and
alpha = -1 for normalized Hamming distance (genuine prints differ little).
Pd counts authentic scores with alpha * d >= gamma (non-strict), Pfa counts
fake scores with alpha * d > gamma (strict); the asymmetry only matters on
ties and is kept deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, parallel_map, print_scan
from .codegen import (
    ModuleMatrix,
    binarize,
    ink_intensity,
    modules_from_pixels,
    render,
)
from .errors import DegenerateInputError, DimensionError, MissingInputError, ParameterError

MEASURE_PEARSON = "pearson"
MEASURE_HAMMING = "hamming"
MEASURES = (MEASURE_PEARSON, MEASURE_HAMMING)

# Sign that turns each measure into a "bigger is more authentic" score.
MEASURE_ALPHA = {MEASURE_PEARSON: 1, MEASURE_HAMMING: -1}


@dataclass
class ScoreSet:
    """Similarity scores for authentic prints (H0) and fakes (H1)."""

    authentic: np.ndarray
    fake: np.ndarray
    measure: str
    alpha: int = field(init=False)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ParameterError(f"unknown measure {self.measure!r}")
        self.alpha = MEASURE_ALPHA[self.measure]
        self.authentic = np.asarray(self.authentic, dtype=np.float64)
        self.fake = np.asarray(self.fake, dtype=np.float64)


@dataclass
class RocCurve:
    """Operating points (gamma, pd, pfa), ordered by decreasing gamma."""

    points: list[tuple[float, float, float]]


def pearson(x, y) -> float:
    """Sample Pearson correlation, in [-1, 1].

    Convention: x holds the rendered original bits (1 = dark) and y the
    ink intensity of the print under test.
    """
    # Own float64 copies, centered in place; one buffer takes each product.
    xc = np.array(x, dtype=np.float64, order="C").ravel()
    yc = np.array(y, dtype=np.float64, order="C").ravel()
    if xc.shape != yc.shape:
        raise DimensionError("pearson inputs must have equal length")
    if xc.size < 2:
        raise DimensionError("pearson needs at least 2 samples")
    xc -= xc.mean()
    yc -= yc.mean()
    prod = np.multiply(xc, xc)
    sx = np.sqrt(np.sum(prod))
    sy = np.sqrt(np.sum(np.multiply(yc, yc, out=prod)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("pearson undefined for a constant input")
    return float(np.clip(np.sum(np.multiply(xc, yc, out=prod)) / (sx * sy), -1.0, 1.0))


def hamming_norm(a, b) -> float:
    """Fraction of positions where two equal-length bit vectors differ."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise DimensionError("hamming_norm inputs must have equal length")
    if a.size < 1:
        raise DimensionError("hamming_norm needs at least 1 position")
    return float(np.mean(a != b))


def roc(scores: ScoreSet) -> RocCurve:
    """Sweep gamma over all alpha-scaled scores plus +-inf sentinels."""
    if scores.authentic.size == 0 or scores.fake.size == 0:
        raise DimensionError("roc needs non-empty authentic and fake scores")
    s_a = scores.alpha * scores.authentic
    s_f = scores.alpha * scores.fake
    gammas = np.unique(np.concatenate([s_a, s_f, [np.inf, -np.inf]]))[::-1]
    points = [
        (float(g), float(np.mean(s_a >= g)), float(np.mean(s_f > g)))
        for g in gammas
    ]
    return RocCurve(points)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under pd as a function of pfa."""
    pts = sorted((pfa, pd) for _, pd, pfa in curve.points)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pd_at_pfa(curve: RocCurve, target_pfa: float) -> float:
    """Best detection rate at false-acceptance rate <= target (0 if none)."""
    feasible = [pd for _, pd, pfa in curve.points if pfa <= target_pfa]
    return max(feasible) if feasible else 0.0


def _reprint_job(job) -> tuple[float, float]:
    code, xp, params, module_px, seed, defender_threshold = job
    ink = ink_intensity(print_scan(render(xp, module_px), params, seed))
    r = pearson(render(code, module_px).pixels, ink.pixels)
    decided = modules_from_pixels(binarize(ink, defender_threshold), module_px)
    return r, hamming_norm(code.bits, decided.bits)


def reprint_scores(
    originals: list[ModuleMatrix],
    printed: list[ModuleMatrix],
    params: ChannelParams,
    module_px: int,
    seed: int,
    defender_threshold: float,
) -> dict[str, np.ndarray]:
    """Score a simulated re-print of each printed code against its original.

    Print i is print_scan(render(printed_i)) seeded with seed ^ i.  Pearson
    compares the original bits against the grey ink intensity of the
    print; Hamming compares the original modules against the print
    binarized at the defender's own pixel threshold and majority-voted per
    module.  The prints run on parallel_map's workers.  Returns one
    float64 score array per measure.
    """
    if len(printed) != len(originals):
        raise MissingInputError(
            f"{len(originals)} originals but {len(printed)} printed codes"
        )
    if not originals:
        raise MissingInputError("re-print scoring needs at least one code")
    jobs = [
        (code, xp, params, module_px, seed ^ i, defender_threshold)
        for i, (code, xp) in enumerate(zip(originals, printed))
    ]
    r, h = zip(*parallel_map(_reprint_job, jobs))
    return {
        MEASURE_PEARSON: np.asarray(r, dtype=np.float64),
        MEASURE_HAMMING: np.asarray(h, dtype=np.float64),
    }

