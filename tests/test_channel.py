import dataclasses

import numpy as np
import pytest

from pgclab.channel import (
    PRINTER_IDS,
    ChannelParams,
    preset,
    preset_with_overrides,
    print_scan,
)
from pgclab.codegen import BINARY01, BYTE0_255, UNIT_INTERVAL, PixelImage, render
from pgclab.codegen import generate_module_matrix
from pgclab.errors import DomainError, ParameterError, UnknownIdError


def bits_image(arr):
    return PixelImage(np.asarray(arr, np.uint8), BINARY01)


def test_identity_channel_is_exact_complement():
    img = render(generate_module_matrix(3, 8, 8), 4)
    out = print_scan(img, ChannelParams(), seed=0)
    assert out.domain == BYTE0_255
    assert out.pixels.dtype == np.uint8
    np.testing.assert_array_equal(out.pixels, 255 * (1 - img.pixels))


def test_blank_page_scans_white():
    out = print_scan(bits_image(np.zeros((5, 7))), ChannelParams(), seed=1)
    assert (out.pixels == 255).all()


def test_full_dot_gain_radius_one_spreads_to_8_neighbours():
    px = np.zeros((9, 9), np.uint8)
    px[4, 4] = 1
    out = print_scan(
        bits_image(px),
        ChannelParams(dot_gain_radius=1, dot_gain_prob=1.0),
        seed=0,
    )
    dark = out.pixels < 255
    assert dark.sum() == 9
    assert dark[3:6, 3:6].all()
    assert (out.pixels[dark] == 0).all()


def test_zero_prob_dot_gain_is_identity():
    img = render(generate_module_matrix(5, 6, 6), 3)
    out = print_scan(img, ChannelParams(dot_gain_radius=2, dot_gain_prob=0.0), seed=9)
    np.testing.assert_array_equal(out.pixels, 255 * (1 - img.pixels))


def test_seed_independent_when_deterministic():
    """No noise and dot-gain prob in {0, 1} leaves nothing for the rng to do."""
    img = render(generate_module_matrix(11, 8, 8), 3)
    for prob in (0.0, 1.0):
        p = ChannelParams(dot_gain_radius=1, dot_gain_prob=prob, psf_sigma=1.2, offset=0.02)
        a = print_scan(img, p, seed=1)
        b = print_scan(img, p, seed=2)
        np.testing.assert_array_equal(a.pixels, b.pixels)


def test_same_seed_reproduces_stochastic_scan():
    img = render(generate_module_matrix(12, 8, 8), 3)
    p = preset("SA")
    a = print_scan(img, p, seed=42)
    b = print_scan(img, p, seed=42)
    c = print_scan(img, p, seed=43)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_offset_never_lightens():
    img = render(generate_module_matrix(13, 10, 10), 3)
    base = ChannelParams(psf_sigma=1.0, noise_sigma=0.0)
    darker = dataclasses.replace(base, offset=0.08)
    a = print_scan(img, base, seed=0).pixels.astype(np.int16)
    b = print_scan(img, darker, seed=0).pixels.astype(np.int16)
    assert (b <= a).all()
    assert (b < a).any()


def test_blur_keeps_constant_page_constant():
    out = print_scan(
        bits_image(np.ones((12, 12))),
        ChannelParams(psf_sigma=2.5),
        seed=0,
    )
    assert (out.pixels == 0).all()


def test_quantize_off_returns_float():
    img = render(generate_module_matrix(1, 4, 4), 3)
    p = ChannelParams(psf_sigma=0.8, quantize=False)
    out = print_scan(img, p, seed=0)
    assert out.pixels.dtype == np.float32
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 255.0


def test_print_scan_rejects_non_binary_input():
    grey = PixelImage(np.full((4, 4), 0.5, np.float32), UNIT_INTERVAL)
    with pytest.raises(DomainError):
        print_scan(grey, ChannelParams(), seed=0)


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
            ChannelParams(**bad).validate()


def test_preset_ids_and_lookup():
    assert PRINTER_IDS == ("SA", "LX", "CA", "HP")
    for pid in PRINTER_IDS:
        preset(pid).validate()
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
    pr = preset_with_overrides("SA", {"noise_sigma": 0.3})
    assert pr.noise_sigma == 0.3
    assert pr.psf_sigma == preset("SA").psf_sigma
    with pytest.raises(ParameterError):
        preset_with_overrides("SA", {"nozzle": 3})
    with pytest.raises(ParameterError):
        preset_with_overrides("SA", {"dot_gain_prob": 2.0})
    assert preset_with_overrides("SA", {"psf_sigma": 2}).psf_sigma == 2
    for bad in ({"psf_sigma": "2"}, {"dot_gain_radius": 1.0}, {"quantize": 1},
                {"noise_sigma": True}):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            preset_with_overrides("SA", bad)


def test_gain_offset_affine_stage():
    """One black module, no spreading: gain/offset act on ink before inversion."""
    img = bits_image([[1]])
    out = print_scan(img, ChannelParams(gain=0.5, offset=0.1, quantize=False), seed=0)
    np.testing.assert_allclose(out.pixels, [[255 * (1 - 0.6)]], rtol=1e-6)
