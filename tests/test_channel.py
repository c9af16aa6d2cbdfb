import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclab.channel import (
    PRINTER_IDS,
    ChannelParams,
    _blur,
    _dilate,
    _gaussian_kernel,
    preset,
    print_scans,
    with_fields,
)
from pgclab.codegen import BINARY01, BYTE0_255, UNIT_INTERVAL, PixelImage, render
from pgclab.codegen import generate_module_matrix
from pgclab.errors import DimensionError, DomainError, ParameterError, UnknownIdError


def bits_image(arr):
    return PixelImage(np.asarray(arr, np.uint8), BINARY01)


def test_identity_channel_is_exact_complement():
    img = render(generate_module_matrix(3, 8, 8), 4)
    out = print_scans([img], ChannelParams(), seed=0)[0]
    assert out.domain == BYTE0_255
    assert out.pixels.dtype == np.uint8
    np.testing.assert_array_equal(out.pixels, 255 * (1 - img.pixels))


def test_blank_page_scans_white():
    out = print_scans([bits_image(np.zeros((5, 7)))], ChannelParams(), seed=1)[0]
    assert (out.pixels == 255).all()


def test_full_dot_gain_radius_one_spreads_to_8_neighbours():
    px = np.zeros((9, 9), np.uint8)
    px[4, 4] = 1
    out = print_scans(
        [bits_image(px)],
        ChannelParams(dot_gain_radius=1, dot_gain_prob=1.0),
        seed=0,
    )[0]
    dark = out.pixels < 255
    assert dark.sum() == 9
    assert dark[3:6, 3:6].all()
    assert (out.pixels[dark] == 0).all()


def test_zero_prob_dot_gain_is_identity():
    img = render(generate_module_matrix(5, 6, 6), 3)
    out = print_scans([img], ChannelParams(dot_gain_radius=2, dot_gain_prob=0.0), seed=9)[0]
    np.testing.assert_array_equal(out.pixels, 255 * (1 - img.pixels))


def test_seed_independent_when_deterministic():
    """No noise and dot-gain prob in {0, 1} leaves nothing for the rng to do."""
    img = render(generate_module_matrix(11, 8, 8), 3)
    for prob in (0.0, 1.0):
        p = ChannelParams(dot_gain_radius=1, dot_gain_prob=prob, psf_sigma=1.2, offset=0.02)
        a = print_scans([img], p, seed=1)[0]
        b = print_scans([img], p, seed=2)[0]
        np.testing.assert_array_equal(a.pixels, b.pixels)


def test_same_seed_reproduces_stochastic_scan():
    img = render(generate_module_matrix(12, 8, 8), 3)
    p = preset("SA")
    a = print_scans([img], p, seed=42)[0]
    b = print_scans([img], p, seed=42)[0]
    c = print_scans([img], p, seed=43)[0]
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_offset_never_lightens():
    img = render(generate_module_matrix(13, 10, 10), 3)
    base = ChannelParams(psf_sigma=1.0, noise_sigma=0.0)
    darker = dataclasses.replace(base, offset=0.08)
    a = print_scans([img], base, seed=0)[0].pixels.astype(np.int16)
    b = print_scans([img], darker, seed=0)[0].pixels.astype(np.int16)
    assert (b <= a).all()
    assert (b < a).any()


def test_blur_keeps_constant_page_constant():
    out = print_scans(
        [bits_image(np.ones((12, 12)))],
        ChannelParams(psf_sigma=2.5),
        seed=0,
    )[0]
    assert (out.pixels == 0).all()


def test_print_scan_rejects_non_binary_input():
    grey = PixelImage(np.full((4, 4), 0.5, np.float32), UNIT_INTERVAL)
    with pytest.raises(DomainError):
        print_scans([grey], ChannelParams(), seed=0)[0]


def test_param_validation():
    for bad in (
        dict(dot_gain_radius=-1),
        dict(dot_gain_prob=1.5),
        dict(psf_sigma=-0.1),
        dict(gain=0.0),
        dict(offset=2.0),
        dict(noise_sigma=-1.0),
    ):
        with pytest.raises(ParameterError):
            ChannelParams(**bad)
    # Types and finiteness are checked before the ranges, which a string
    # would reach as a TypeError.
    for bad in (dict(psf_sigma="2"), dict(gain=float("nan")), dict(dot_gain_radius=1.0)):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            ChannelParams(**bad)


def test_preset_ids_and_lookup():
    assert PRINTER_IDS == ("SA", "LX", "CA", "HP")
    for pid in PRINTER_IDS:
        assert isinstance(preset(pid), ChannelParams)
    with pytest.raises(UnknownIdError):
        preset("ZZ")


def test_preset_dot_gain_ordering():
    gain = {pid: preset(pid).dot_gain_prob for pid in PRINTER_IDS}
    assert gain["HP"] > gain["CA"] > gain["LX"] >= gain["SA"]
    assert min(gain, key=gain.get) == "SA"
    assert max(gain, key=gain.get) == "HP"


def test_inkjet_noise_at_least_laser():
    noise = {pid: preset(pid).noise_sigma for pid in PRINTER_IDS}
    assert min(noise["CA"], noise["HP"]) >= max(noise["SA"], noise["LX"])


def test_preset_overrides():
    pr = with_fields(preset("SA"), {"noise_sigma": 0.3})
    assert pr.noise_sigma == 0.3
    assert pr.psf_sigma == preset("SA").psf_sigma
    with pytest.raises(ParameterError):
        with_fields(preset("SA"), {"nozzle": 3})
    with pytest.raises(ParameterError):
        with_fields(preset("SA"), {"dot_gain_prob": 2.0})
    sigma = with_fields(preset("SA"), {"psf_sigma": 2}).psf_sigma
    assert sigma == 2 and type(sigma) is int  # checked, not converted
    for bad in ({"psf_sigma": "2"}, {"dot_gain_radius": 1.0}, {"dot_gain_radius": True},
                {"noise_sigma": True}):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            with_fields(preset("SA"), bad)


def test_gain_offset_affine_stage():
    """One black module, no spreading: gain/offset act on ink before inversion."""
    img = bits_image([[1]])
    out = print_scans([img], ChannelParams(gain=0.5, offset=0.1), seed=0)[0]
    assert out.pixels.dtype == np.uint8
    assert out.pixels.tolist() == [[np.rint(255 * (1 - 0.6))]] == [[102]]


# ---------------------------------------------------------------- reference
# The straightforward channel: a multiply-add per tap over whole padded
# images, and a tail that allocates each stage.  print_scans must give
# exactly its bytes.

def reference_blur(values, sigma):
    kernel = _gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    if radius == 0:
        return values
    h, w = values.shape
    padded = np.pad(values, ((0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(values)
    for k, tap in enumerate(kernel):
        out += tap * padded[:, k : k + w]
    padded = np.pad(out, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(values)
    for k, tap in enumerate(kernel):
        out += tap * padded[k : k + h, :]
    return out


def reference_print_scan(img, params, seed):
    rng = np.random.default_rng(seed)

    ink = img.pixels.astype(bool)
    if params.dot_gain_radius > 0 and params.dot_gain_prob > 0.0:
        dilated = _dilate(ink, params.dot_gain_radius)
        candidates = dilated & ~ink
        if params.dot_gain_prob >= 1.0:
            ink = dilated
        else:
            draws = rng.random(ink.shape)
            ink = ink | (candidates & (draws < params.dot_gain_prob))

    v = ink.astype(np.float64)
    if params.psf_sigma > 0.0:
        v = reference_blur(v, params.psf_sigma)

    v = np.clip(params.gain * v + params.offset, 0.0, 1.0)

    if params.noise_sigma > 0.0:
        v = np.clip(v + rng.normal(0.0, params.noise_sigma, size=v.shape), 0.0, 1.0)

    lum = 255.0 * (1.0 - v)
    return PixelImage(np.rint(lum).astype(np.uint8), BYTE0_255)


def assert_same_bytes(a, b):
    assert a.domain == b.domain
    assert a.pixels.dtype == b.pixels.dtype and a.pixels.shape == b.pixels.shape
    assert a.pixels.tobytes() == b.pixels.tobytes()


SA = preset("SA")
# Kernels have 2 * floor(3 sigma) + 1 taps: sigma 0.3 has one tap (no
# blur), 2.6 the 15 taps of the largest table, 8/3 the 17 taps that put
# one tap past the table, 5.4 33 taps.
REFERENCE_CASES = [preset(pid) for pid in PRINTER_IDS] + [
    dataclasses.replace(SA, dot_gain_prob=1.0),
    dataclasses.replace(SA, noise_sigma=0.0),
    dataclasses.replace(SA, psf_sigma=0.3),
    dataclasses.replace(SA, psf_sigma=2.6),
    dataclasses.replace(SA, psf_sigma=8 / 3),
    dataclasses.replace(SA, psf_sigma=5.4),
    dataclasses.replace(SA, psf_sigma=0.0, gain=0.6, offset=-0.1),
    ChannelParams(),
]


@pytest.mark.parametrize("params", REFERENCE_CASES, ids=repr)
def test_print_scan_matches_reference(params):
    img = render(generate_module_matrix(21, 64, 64), 6)
    assert_same_bytes(print_scans([img], params, seed=77)[0], reference_print_scan(img, params, 77))


def test_print_scan_matches_reference_non_square():
    img = PixelImage(render(generate_module_matrix(22, 64, 64), 6).pixels[:100, :250].copy(),
                     BINARY01)
    for pid in ("SA", "HP"):
        assert_same_bytes(print_scans([img], preset(pid), seed=5)[0],
                          reference_print_scan(img, preset(pid), 5))


# Radius r = 1..8 (sigma (r + 0.5) / 3, 3 to 17 taps) builds every length
# of window code by doubling, and 17 taps puts the first tap past the table.
@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.2, 2.6, 8 / 3, 5.4]
                         + [(r + 0.5) / 3 for r in range(1, 9)])
def test_blur_matches_reference(sigma):
    mask = np.random.default_rng(3).random((130, 70)) < 0.4
    want = reference_blur(mask.astype(np.float64), sigma)
    assert _blur(mask, sigma).tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [1e-170, 1e-3, 0.3, 1 / 3 - 1e-12])
def test_one_tap_kernel_is_one_without_warnings(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = _gaussian_kernel(sigma)
        img = bits_image(np.random.default_rng(4).random((20, 30)) < 0.5)
        scan = print_scans([img], dataclasses.replace(SA, psf_sigma=sigma), seed=3)[0]
    assert kernel.tolist() == [1.0]
    assert_same_bytes(scan, print_scans([img], dataclasses.replace(SA, psf_sigma=0.0), seed=3)[0])


@settings(max_examples=40, deadline=None)
@given(
    radius=st.integers(0, 2),
    prob=st.floats(0.0, 1.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
    gain=st.floats(0.05, 3.0),
    offset=st.floats(-1.0, 1.0),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    h=st.integers(1, 150),
    w=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_print_scan_matches_reference_property(radius, prob, sigma, gain, offset, noise,
                                               h, w, seed):
    params = ChannelParams(dot_gain_radius=radius, dot_gain_prob=prob, psf_sigma=sigma,
                           gain=gain, offset=offset, noise_sigma=noise)
    img = bits_image(np.random.default_rng(seed).random((h, w)) < 0.5)
    assert_same_bytes(print_scans([img], params, seed)[0], reference_print_scan(img, params, seed))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    h=st.integers(1, 150),
    w=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_print_scans_is_print_scan_per_image(n, prob, sigma, noise, h, w, seed):
    """A scan does not depend on which images share its call."""
    params = ChannelParams(dot_gain_radius=1, dot_gain_prob=prob, psf_sigma=sigma,
                           offset=0.03, noise_sigma=noise)
    draw = np.random.default_rng(seed)
    imgs = [bits_image(draw.random((h, w)) < 0.5) for _ in range(n)]
    scans = print_scans(imgs, params, seed)
    assert len(scans) == n
    for img, scan in zip(imgs, scans):
        assert_same_bytes(scan, print_scans([img], params, seed)[0])


def test_print_scans_refuses_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew random values")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    square = bits_image(np.zeros((6, 6)))
    with pytest.raises(DimensionError):
        print_scans([square, bits_image(np.zeros((6, 7)))], SA, seed=0)
    with pytest.raises(DimensionError):
        print_scans([], SA, seed=0)
    grey = PixelImage(np.full((6, 6), 0.5, np.float32), UNIT_INTERVAL)
    with pytest.raises(DomainError):
        print_scans([square, grey], SA, seed=0)
