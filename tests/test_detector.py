import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclab import detector
from pgclab.channel import ChannelParams, preset, print_scans
from pgclab.codegen import (
    BYTE0_255,
    ModuleMatrix,
    PixelImage,
    generate_module_matrix,
    ink_intensity,
    render,
)
from pgclab.detector import (
    MEASURES,
    auc,
    hamming_norm,
    pd_at_pfa,
    pearson,
    pearson_reference,
    reprint_scores,
    roc,
    score_print,
)
from pgclab.errors import DegenerateInputError, DimensionError, MissingInputError, ParameterError


# ---------------------------------------------------------------- pearson

def test_pearson_perfect_and_inverted():
    x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    assert pearson(pearson_reference(x), x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(pearson_reference(x), 1.0 - x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_exact_fraction_oracle():
    x = [0, 1, 1, 0]
    y = [0.1, 0.9, 0.8, 0.2]
    # exact arithmetic over rationals: r^2 = cov^2 / (var_x var_y)
    fx = [Fraction(v) for v in x]
    fy = [Fraction(v).limit_denominator(10) for v in y]
    n = Fraction(len(x))
    mx, my = sum(fx) / n, sum(fy) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    vx = sum((a - mx) ** 2 for a in fx)
    vy = sum((b - my) ** 2 for b in fy)
    r2 = cov * cov / (vx * vy)
    assert r2 == Fraction(49, 50)
    assert pearson(pearson_reference(x), y) == pytest.approx(math.sqrt(float(r2)), abs=1e-12)
    assert pearson(pearson_reference(x), y) > 0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    a=st.floats(0.1, 10.0),
    b=st.floats(-5.0, 5.0),
)
def test_pearson_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.random(20)
    y = rng.random(20)
    r = pearson(pearson_reference(x), y)
    assert pearson(pearson_reference(x), a * y + b) == pytest.approx(r, abs=1e-9)
    assert pearson(pearson_reference(x), -a * y + b) == pytest.approx(-r, abs=1e-9)


def test_pearson_degenerate_and_shape_errors():
    with pytest.raises(DegenerateInputError):
        pearson(pearson_reference([1.0, 1.0, 1.0]), [0.1, 0.2, 0.3])
    with pytest.raises(DegenerateInputError):
        pearson(pearson_reference([0.1, 0.2, 0.3]), [2.0, 2.0, 2.0])
    with pytest.raises(DimensionError):
        pearson(pearson_reference([1.0, 2.0]), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        pearson(pearson_reference([1.0]), [1.0])


def pearson_copying(x, y):
    """Pearson with a fresh array per step, kept as the reference."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    return float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))


@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_pearson_bit_identical_to_copying_form(dtype):
    """Rendered codes against their scans; inputs come back unmodified,
    also float64 ones that np.asarray would not copy."""
    for k in range(10):
        code = generate_module_matrix(40 + k, 16, 16)
        ref = render(code, 6).pixels
        scan = print_scans([render(code, 6)], preset(("SA", "HP")[k % 2]), k)[0].pixels
        if dtype is np.uint8:
            x, y = ref, scan
        else:
            x = ref.astype(dtype)
            y = ink_intensity(PixelImage(scan, BYTE0_255)).pixels.astype(dtype)
        if k == 9:
            x, y = x.T, y.T  # non-contiguous views
        before = (x.copy(), y.copy())
        got, want = pearson(pearson_reference(x), y), pearson_copying(x, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        np.testing.assert_array_equal(x, before[0])
        np.testing.assert_array_equal(y, before[1])
        assert x.dtype == y.dtype == dtype


def _pearson_or_error(x, y):
    try:
        return np.float64(pearson(pearson_reference(x), y)).tobytes()
    except (DegenerateInputError, DimensionError) as exc:
        return type(exc)


def _copying_or_error(x, y):
    """The copying form's bits, or the error pearson raises where that
    form is undefined: unequal lengths, fewer than 2 samples, or a side
    whose centred squares sum to 0."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size or y.size < 2:
        return DimensionError
    if any(np.sum(np.square(v - v.mean())) == 0.0 for v in (x, y)):
        return DegenerateInputError
    return np.float64(pearson_copying(x, y)).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 700),
    dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    constant=st.sampled_from([None, "x", "y"]),
    shorter_y=st.booleans(),
)
def test_pearson_prepared_reference_is_bit_identical(seed, n, dtype, constant, shorter_y):
    """A prepared reference gives the bits of the copying form, or, where
    that form is undefined, the error that says why."""
    rng = np.random.default_rng(seed)
    if dtype is np.uint8:
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 256, n, dtype=np.uint8)
    else:
        x, y = rng.random(n).astype(dtype), rng.random(n).astype(dtype)
    if constant == "x":
        x[:] = x[0]
    elif constant == "y":
        y[:] = y[0]
    if shorter_y:
        y = y[: n // 2]
    assert _pearson_or_error(x, y) == _copying_or_error(x, y)


def test_pearson_clipped_to_unit_interval():
    rng = np.random.default_rng(0)
    x = rng.random(50)
    assert -1.0 <= pearson(pearson_reference(x), 3.0 * x + 1.0) <= 1.0


# ---------------------------------------------------------------- hamming

def test_hamming_basic():
    a = np.array([0, 1, 1, 0], np.uint8)
    assert hamming_norm(a, a) == 0.0
    assert hamming_norm(a, 1 - a) == 1.0
    assert hamming_norm(a, np.array([0, 1, 0, 0], np.uint8)) == 0.25
    with pytest.raises(DimensionError):
        hamming_norm(a, a[:2])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64))
def test_hamming_is_a_metric(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(0, 2, n, dtype=np.uint8) for _ in range(3))
    dab, dbc, dac = hamming_norm(a, b), hamming_norm(b, c), hamming_norm(a, c)
    assert dab == hamming_norm(b, a)
    assert dab == 0.0 if np.array_equal(a, b) else dab > 0.0
    assert dac <= dab + dbc + 1e-12


# ---------------------------------------------------------------- score_print

def test_score_print_scores_every_measure_in_its_order():
    code, blank = generate_module_matrix(3, 8, 8), ModuleMatrix(np.zeros((8, 8), np.uint8))
    ref = pearson_reference(render(code, 3).pixels)
    ink = ink_intensity(print_scans([render(code, 3)], ChannelParams(), 0)[0])
    scores, undefined, decided = score_print(code, ref, ink, 0.5, 3)
    assert list(scores) == list(MEASURES)
    assert scores["pearson"] > 0.99 and scores["hamming"] == 0.0 and not undefined
    np.testing.assert_array_equal(decided.bits, code.bits)
    flat = PixelImage(np.zeros((24, 24), np.float32), ink.domain)
    scores, undefined, decided = score_print(code, ref, flat, 0.5, 3)
    assert scores == {"pearson": 0.0, "hamming": float(np.mean(code.bits))} and undefined
    np.testing.assert_array_equal(decided.bits, blank.bits)


# ---------------------------------------------------------------- roc

def brute_force_roc(authentic, fake, alpha):
    """Independent enumeration: every distinct scaled score as gamma."""
    sa = [alpha * s for s in authentic]
    sf = [alpha * s for s in fake]
    gammas = sorted(set(sa) | set(sf) | {float("inf"), float("-inf")}, reverse=True)
    pts = []
    for g in gammas:
        pd = sum(1 for s in sa if s >= g) / len(sa)
        pfa = sum(1 for s in sf if s > g) / len(sf)
        pts.append((g, pd, pfa))
    return pts


@pytest.mark.parametrize("measure", MEASURES)
def test_roc_matches_bruteforce_enumeration(measure):
    rng = np.random.default_rng(3)
    for trial in range(200):
        na, nf = rng.integers(1, 21, 2)
        # draw from a coarse grid so ties are common
        a = rng.integers(0, 8, na) / 7.0
        f = rng.integers(0, 8, nf) / 7.0
        got = roc(a, f, measure)
        want = brute_force_roc(list(a), list(f), MEASURES[measure])
        assert got == want


def roc_one_pass_per_gamma(authentic, fake, measure):
    """roc as one full pass per gamma, kept as the reference for its points."""
    s_a = MEASURES[measure] * np.asarray(authentic, dtype=np.float64)
    s_f = MEASURES[measure] * np.asarray(fake, dtype=np.float64)
    gammas = np.unique(np.concatenate([s_a, s_f, [np.inf, -np.inf]]))[::-1]
    return [(float(g), float(np.mean(s_a >= g)), float(np.mean(s_f > g))) for g in gammas]


def point_bits(points):
    return [tuple(np.float64(v).tobytes() for v in p) for p in points]


_ROC_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, math.inf, -math.inf, math.nan])
    | st.floats(-1.0, 1.0),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_ROC_SCORES, _ROC_SCORES, st.sampled_from(list(MEASURES)))
def test_roc_sort_and_sweep_equals_one_pass_per_gamma(authentic, fake, measure):
    """Bit for bit, with ties, duplicate scores, +-inf and NaN."""
    a, f = np.array(authentic), np.array(fake)
    assert point_bits(roc(a, f, measure)) == point_bits(roc_one_pass_per_gamma(a, f, measure))


def test_roc_example_by_hand():
    pts = {(pd, pfa) for _, pd, pfa in roc([0.9, 0.8], [0.85, 0.1], "pearson")}
    # gammas swept: inf, .9, .85, .8, .1, -inf; detection counts ties (>=),
    # false alarm does not (>), so gamma=.85 repeats (0.5, 0.0)
    assert pts == {(0.0, 0.0), (0.5, 0.0), (1.0, 0.5), (1.0, 1.0)}


def test_roc_monotone_and_anchored():
    rng = np.random.default_rng(4)
    pts = roc(rng.normal(0, 1, 40), rng.normal(0.5, 1, 40), "pearson")
    gammas = [g for g, _, _ in pts]
    assert gammas == sorted(gammas, reverse=True)
    pds = [pd for _, pd, _ in pts]
    pfas = [pfa for _, _, pfa in pts]
    assert pds == sorted(pds) and pfas == sorted(pfas)
    assert (pds[0], pfas[0]) == (0.0, 0.0)
    assert (pds[-1], pfas[-1]) == (1.0, 1.0)


def test_roc_separable_hits_corner():
    for measure, a, f in (
        ("pearson", [0.9, 0.95], [0.1, 0.2]),
        ("hamming", [0.01, 0.02], [0.4, 0.5]),
    ):
        pts = roc(np.array(a), np.array(f), measure)
        assert any(pd == 1.0 and pfa == 0.0 for _, pd, pfa in pts)


def test_roc_identical_distributions_near_diagonal():
    rng = np.random.default_rng(5)
    s = rng.normal(0, 1, 100)
    pts = roc(s, s.copy(), "pearson")
    for _, pd, pfa in pts:
        assert abs(pd - pfa) <= 1.0 / len(s) + 1e-12


def test_roc_rejects_empty():
    with pytest.raises(DimensionError):
        roc(np.array([]), np.array([0.5]), "pearson")


def test_roc_rejects_unknown_measure():
    with pytest.raises(ParameterError):
        roc(np.array([0.5]), np.array([0.5]), "cosine")
    with pytest.raises(ParameterError):
        roc(np.array([0.5]), np.array([0.5]), ["pearson"])


# ---------------------------------------------------------------- auc / pd@pfa

def test_auc_separable_is_one():
    c = roc(np.array([0.9, 0.8]), np.array([0.2, 0.1]), "pearson")
    assert auc(c) == 1.0


def test_auc_diagonal_is_half():
    assert auc([(math.inf, 0.0, 0.0), (-math.inf, 1.0, 1.0)]) == pytest.approx(0.5)


def test_auc_identical_distributions_near_half():
    rng = np.random.default_rng(6)
    a = rng.normal(0, 1, 200)
    f = rng.normal(0, 1, 200)
    val = auc(roc(a, f, "pearson"))
    assert abs(val - 0.5) <= 0.05


def test_auc_bounded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(0, 1, 15)
        f = rng.normal(0.3, 1, 15)
        v = auc(roc(a, f, "pearson"))
        assert 0.0 <= v <= 1.0


def test_pd_at_pfa_rules():
    stair = [
        (math.inf, 0.0, 0.0),
        (0.9, 0.2, 0.0),
        (0.5, 0.6, 0.6),
        (-math.inf, 1.0, 1.0),
    ]
    assert pd_at_pfa(stair, 0.0) == 0.2
    assert pd_at_pfa(stair, 0.6) == 0.6
    assert pd_at_pfa(stair, 0.99) == 0.6
    assert pd_at_pfa(stair, 1.0) == 1.0
    below = [(math.inf, 0.5, 0.3), (-math.inf, 1.0, 1.0)]
    assert pd_at_pfa(below, 0.1) == 0.0
    sep = roc(np.array([0.9, 0.8]), np.array([0.2, 0.1]), "pearson")
    assert pd_at_pfa(sep, 0.0) == 1.0


# ---------------------------------------------------------------- experiment

def small_codes(n, seed):
    return [generate_module_matrix(seed + i, 8, 8) for i in range(n)]


def test_perfect_clone_same_seeds_scores_identically():
    codes = small_codes(5, 100)
    clones = [ModuleMatrix(c.bits.copy()) for c in codes]
    seeds = list(range(50, 55))
    (auth, fake), _ = reprint_scores(codes, [clones], seeds, seeds, preset("SA"), 3, 0.5)
    assert set(auth) == set(fake) == set(MEASURES)
    for measure in MEASURES:
        np.testing.assert_array_equal(auth[measure], fake[measure])


def test_complemented_estimate_scores_poorly():
    codes = small_codes(4, 200)
    flipped = [ModuleMatrix(1 - c.bits) for c in codes]
    (auth, fake), _ = reprint_scores(codes, [flipped], [60] * 4, [61] * 4,
                                     ChannelParams(), 3, 0.5)
    assert (fake["pearson"] < 0).all()
    assert (auth["pearson"] > 0.99).all()
    assert (fake["hamming"] == 1.0).all()
    assert (auth["hamming"] == 0.0).all()
    for measure in MEASURES:
        assert auc(roc(auth[measure], fake[measure], measure)) == 1.0


def test_a_constant_reprint_scores_pearson_zero_and_is_counted():
    """A blank estimate through a channel without noise or dot gain prints
    a constant image, on which Pearson is undefined: it scores 0."""
    codes = small_codes(3, 400)
    blank = [ModuleMatrix(np.zeros_like(c.bits)) for c in codes]
    (auth, fake), constant = reprint_scores(codes, [blank], [7, 8, 9], [8, 9, 10],
                                            ChannelParams(offset=0.03), 3, 0.5)
    assert constant == [0, 3]
    assert (auth["pearson"] > 0.99).all()
    assert fake["pearson"].tolist() == [0.0, 0.0, 0.0]
    assert fake["hamming"].tolist() == [float(np.mean(c.bits)) for c in codes]


def test_reprint_scores_renders_and_centres_each_original_once(monkeypatch):
    codes = small_codes(4, 500)
    fakes = [[ModuleMatrix(1 - c.bits) for c in codes], codes[::-1]]
    calls = {"render": 0, "pearson_reference": 0}

    def counting(name):
        fn = getattr(detector, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(detector, name, counting(name))
    monkeypatch.setattr(detector, "parallel_map", lambda fn, jobs: [fn(job) for job in jobs])
    reprint_scores(codes, fakes, [1] * 4, [2] * 4, preset("SA"), 3, 0.5)
    # Per code: the original once, serving its authentic re-print too,
    # and each of the two fake sources' codes once.
    assert calls == {"render": 4 * 3, "pearson_reference": 4}


def test_reprint_job_prints_the_original_then_all_fakes_with_their_seeds(monkeypatch):
    codes = small_codes(3, 600)
    fakes = [[ModuleMatrix(1 - c.bits) for c in codes], codes[::-1]]
    auth_seeds, fake_seeds = [11, 12, 13], [21, 22, 23]
    calls = []

    def recording(imgs, params, seed):
        calls.append(([img.pixels.tobytes() for img in imgs], seed))
        return print_scans(imgs, params, seed)

    monkeypatch.setattr(detector, "print_scans", recording)
    monkeypatch.setattr(detector, "parallel_map", lambda fn, jobs: [fn(job) for job in jobs])
    reprint_scores(codes, fakes, auth_seeds, fake_seeds, preset("SA"), 3, 0.5)

    def rendered(*printed):
        return [render(c, 3).pixels.tobytes() for c in printed]

    # Per code, in order: its authentic print, then every source's fake.
    want = []
    for i, code in enumerate(codes):
        want.append((rendered(code), auth_seeds[i]))
        want.append((rendered(fakes[0][i], fakes[1][i]), fake_seeds[i]))
    assert calls == want


def test_reprint_scores_validates_lengths():
    codes = small_codes(2, 300)
    seeds = [1, 2]
    with pytest.raises(MissingInputError, match=r"\[1\] estimates"):
        reprint_scores(codes, [codes[:1]], seeds, seeds, ChannelParams(), 3, 0.5)
    with pytest.raises(MissingInputError, match=r"\[2, 1\] estimates"):
        reprint_scores(codes, [codes, codes[:1]], seeds, seeds, ChannelParams(), 3, 0.5)
    with pytest.raises(MissingInputError, match="1 authentic seeds"):
        reprint_scores(codes, [codes], [1], seeds, ChannelParams(), 3, 0.5)
    with pytest.raises(MissingInputError, match="1 fake seeds"):
        reprint_scores(codes, [codes], seeds, [1], ChannelParams(), 3, 0.5)
    with pytest.raises(MissingInputError, match="fake source"):
        reprint_scores(codes, [], seeds, seeds, ChannelParams(), 3, 0.5)
    with pytest.raises(MissingInputError):
        reprint_scores([], [[]], [], [], ChannelParams(), 3, 0.5)
