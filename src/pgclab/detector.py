"""Defender side: similarity scores, the thresholded test, ROC summaries.

The test declares a code authentic when alpha * d(x, y) >= gamma, with
alpha = +1 for Pearson correlation (genuine prints correlate highly) and
alpha = -1 for normalized Hamming distance (genuine prints differ little).
Pd counts authentic scores with alpha * d >= gamma (non-strict), Pfa counts
fake scores with alpha * d > gamma (strict); the asymmetry only matters on
ties and is kept deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, parallel_map, print_scans
from .codegen import (
    ModuleMatrix,
    PixelImage,
    binarize,
    ink_intensity,
    modules_from_pixels,
    render,
)
from .errors import DegenerateInputError, DimensionError, MissingInputError, ParameterError

# Each measure score_print returns, in its order, with the sign alpha that
# turns it into a "bigger is more authentic" score.
MEASURES = {"pearson": 1, "hamming": -1}


@dataclass(frozen=True)
class PearsonReference:
    """The x side of pearson prepared once: a centred float64 copy and its norm."""

    centred: np.ndarray
    norm: float


def pearson_reference(x) -> PearsonReference:
    """Prepare x once for the pearson(ref, y) calls that compare it."""
    xc = np.array(x, dtype=np.float64, order="C").ravel()
    xc -= xc.mean()
    return PearsonReference(xc, np.sqrt(np.sum(np.multiply(xc, xc))))


def pearson(ref: PearsonReference, y) -> float:
    """Sample Pearson correlation of the x that ref prepared and y, in [-1, 1].

    Convention: x holds the rendered original bits (1 = dark) and y the
    ink intensity of the print under test.
    """
    # An own float64 copy of y, centered in place; one buffer takes each product.
    yc = np.array(y, dtype=np.float64, order="C").ravel()
    if ref.centred.size != yc.size:
        raise DimensionError("pearson inputs must have equal length")
    if yc.size < 2:
        raise DimensionError("pearson needs at least 2 samples")
    yc -= yc.mean()
    prod = np.multiply(yc, yc)
    sy = np.sqrt(np.sum(prod))
    if ref.norm == 0.0 or sy == 0.0:
        raise DegenerateInputError("pearson undefined for a constant input")
    return float(np.clip(np.sum(np.multiply(ref.centred, yc, out=prod)) / (ref.norm * sy),
                         -1.0, 1.0))


def score_print(code: ModuleMatrix, ref: PearsonReference, image: PixelImage, t: float,
                module_px: int) -> tuple[dict[str, float], bool, ModuleMatrix]:
    """Score an ink or grey image of code by each of MEASURES, in its
    order: pearson against ref, the code rendered and prepared, or 0 where
    a constant image or code leaves it undefined; and hamming_norm against
    the modules decided by binarizing at t and majority-voting per module.
    Returns the scores, whether pearson was undefined, and those modules."""
    try:
        r, undefined = pearson(ref, image.pixels), False
    except DegenerateInputError:
        r, undefined = 0.0, True
    decided = modules_from_pixels(binarize(image, t), module_px)
    return {"pearson": r, "hamming": hamming_norm(code.bits, decided.bits)}, undefined, decided


def hamming_norm(a, b) -> float:
    """Fraction of positions where two equal-length bit vectors differ."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise DimensionError("hamming_norm inputs must have equal length")
    if a.size < 1:
        raise DimensionError("hamming_norm needs at least 1 position")
    return float(np.mean(a != b))


def roc(authentic, fake, measure: str) -> list[tuple[float, float, float]]:
    """Operating points (gamma, pd, pfa) of the authentic (H0) and fake (H1)
    scores of a measure, by decreasing gamma.

    Sweeps gamma over all alpha-scaled scores plus +-inf sentinels.
    Sort-and-sweep (Fawcett 2006): each class is sorted once, and its
    count at every gamma is a binary search.  Sorting puts NaNs last; a
    NaN is never >= or > gamma, so only the numbers before them count.
    """
    if not isinstance(measure, str) or measure not in MEASURES:
        raise ParameterError(f"unknown measure {measure!r}")
    s_a = MEASURES[measure] * np.asarray(authentic, dtype=np.float64)
    s_f = MEASURES[measure] * np.asarray(fake, dtype=np.float64)
    if s_a.size == 0 or s_f.size == 0:
        raise DimensionError("roc needs non-empty authentic and fake scores")
    gammas = np.unique(np.concatenate([s_a, s_f, [np.inf, -np.inf]]))[::-1]
    a = np.sort(s_a)
    a = a[: np.searchsorted(a, np.inf, side="right")]
    f = np.sort(s_f)
    f = f[: np.searchsorted(f, np.inf, side="right")]
    pd = (a.size - np.searchsorted(a, gammas, side="left")) / s_a.size
    pfa = (f.size - np.searchsorted(f, gammas, side="right")) / s_f.size
    return list(zip(gammas.tolist(), pd.tolist(), pfa.tolist()))


def auc(points) -> float:
    """Trapezoidal area under pd as a function of pfa, over roc's points."""
    pts = sorted((pfa, pd) for _, pd, pfa in points)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pd_at_pfa(points, target_pfa: float) -> float:
    """Best detection rate among roc's points at false-acceptance rate <=
    target (0 if none)."""
    feasible = [pd for _, pd, pfa in points if pfa <= target_pfa]
    return max(feasible) if feasible else 0.0


def _reprint_job(job) -> list[tuple[dict[str, float], bool]]:
    """Score one test code's authentic re-print, then the re-print of each
    source's estimate of it: score_print's scores and whether pearson was
    undefined, each.

    The original is rendered and prepared for Pearson once.  The fakes
    share their seed, so one print_scans call makes them all and draws that
    seed's random values once.
    """
    code, fakes, auth_seed, fake_seed, params, module_px, defender_threshold = job
    rendered = render(code, module_px)
    ref = pearson_reference(rendered.pixels)
    scans = print_scans([rendered], params, auth_seed) + print_scans(
        [render(f, module_px) for f in fakes], params, fake_seed)
    return [score_print(code, ref, ink_intensity(scan), defender_threshold, module_px)[:2]
            for scan in scans]


def reprint_scores(
    originals: list[ModuleMatrix],
    fakes: list[list[ModuleMatrix]],
    auth_seeds: list[int],
    fake_seeds: list[int],
    params: ChannelParams,
    module_px: int,
    defender_threshold: float,
) -> tuple[list[dict[str, np.ndarray]], list[int]]:
    """Score an authentic re-print of each original and a re-print of each
    fake source's estimate of it against the original.

    fakes holds one list of estimates per source, one estimate per
    original.  Code i's authentic print is print_scans([render(originals[i])])
    seeded with auth_seeds[i]; its fakes are printed with fake_seeds[i].
    Pearson compares the original bits against the grey ink intensity of
    the print, and scores 0 where a constant print or original leaves it
    undefined.  Hamming compares the original modules against the print
    binarized at the defender's own pixel threshold and majority-voted per
    module.  One parallel_map job per original makes and scores its prints.
    Returns one float64 score array per measure for the authentic prints
    and then for each fake source, and, in the same order, the number of
    prints Pearson scored 0 so.
    """
    if not originals:
        raise MissingInputError("re-print scoring needs at least one code")
    if not fakes:
        raise MissingInputError("re-print scoring needs at least one fake source")
    if any(n != len(originals) for n in (len(auth_seeds), len(fake_seeds), *map(len, fakes))):
        raise MissingInputError(
            f"{len(originals)} originals but {len(auth_seeds)} authentic seeds, "
            f"{len(fake_seeds)} fake seeds and {[len(f) for f in fakes]} estimates per source")
    jobs = [
        (code, [estimates[i] for estimates in fakes], auth_seeds[i], fake_seeds[i],
         params, module_px, defender_threshold)
        for i, code in enumerate(originals)
    ]
    scores, constant = [], []
    for prints in zip(*parallel_map(_reprint_job, jobs)):  # one kind's prints
        scores.append({m: np.array([s[m] for s, _ in prints], dtype=np.float64)
                       for m in MEASURES})
        constant.append(sum(c for _, c in prints))
    return scores, constant
