"""Simulated print-scan degradation for named virtual printers.

The pipeline runs in a fixed order on a clean binary render (1 = inked):

1. probabilistic dot gain: every non-inked pixel within the Chebyshev
   dot_gain_radius of an inked pixel turns inked with dot_gain_prob;
2. Gaussian point-spread blur (separable, kernel truncated at radius
   floor(3 * sigma), renormalized, clamp-to-edge borders);
3. affine ink response, v <- clamp01(gain * v + offset);
4. additive i.i.d. Gaussian noise, clamped back to [0, 1];
5. conversion to luminance 255 * (1 - v), optionally quantized to the
   256 integer levels of an 8-bit scanner.

Everything is deterministic given (image, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .codegen import BINARY01, BYTE0_255, PixelImage
from .errors import DomainError, ParameterError, UnknownIdError


@dataclass(frozen=True)
class ChannelParams:
    """Degradation knobs for one virtual printer."""

    dot_gain_radius: int = 0
    dot_gain_prob: float = 0.0
    psf_sigma: float = 0.0
    gain: float = 1.0
    offset: float = 0.0
    noise_sigma: float = 0.0
    quantize: bool = True

    def validate(self) -> None:
        if self.dot_gain_radius < 0:
            raise ParameterError("dot_gain_radius must be >= 0")
        if not 0.0 <= self.dot_gain_prob <= 1.0:
            raise ParameterError("dot_gain_prob must lie in [0, 1]")
        if self.psf_sigma < 0.0:
            raise ParameterError("psf_sigma must be >= 0")
        if self.gain <= 0.0:
            raise ParameterError("gain must be > 0")
        if not -1.0 <= self.offset <= 1.0:
            raise ParameterError("offset must lie in [-1, 1]")
        if self.noise_sigma < 0.0:
            raise ParameterError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class PrinterPreset:
    """A named, immutable printer parameterization."""

    id: str
    params: ChannelParams


# Two virtual laser printers (SA, LX) and two inkjets (HP, CA).  Values are
# tuning knobs, not measurements: dot gain grows SA <= LX < CA < HP and the
# inkjets are noisier than the lasers.  Blur is the main module killer at
# 6 px/module; these settings leave direct thresholding with a few percent
# of module errors while a trained model recovers nearly all of them.
_PRESETS = {
    "SA": PrinterPreset("SA", ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.50, psf_sigma=2.2,
        gain=1.0, offset=0.03, noise_sigma=0.12, quantize=True)),
    "LX": PrinterPreset("LX", ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.55, psf_sigma=2.3,
        gain=1.0, offset=0.04, noise_sigma=0.12, quantize=True)),
    "CA": PrinterPreset("CA", ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.65, psf_sigma=2.4,
        gain=1.0, offset=0.05, noise_sigma=0.14, quantize=True)),
    "HP": PrinterPreset("HP", ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.85, psf_sigma=2.6,
        gain=1.0, offset=0.06, noise_sigma=0.15, quantize=True)),
}

PRINTER_IDS = tuple(_PRESETS)


def preset(printer_id: str) -> ChannelParams:
    """Return the fixed channel parameters of a named virtual printer."""
    try:
        return _PRESETS[printer_id].params
    except KeyError:
        raise UnknownIdError(
            f"unknown printer id {printer_id!r} (known: {', '.join(PRINTER_IDS)})"
        ) from None


def preset_with_overrides(printer_id: str, overrides: dict | None = None) -> ChannelParams:
    """Preset parameters with selected fields replaced; validates the result."""
    params = preset(printer_id)
    if overrides:
        try:
            params = replace(params, **overrides)
        except TypeError as exc:
            raise ParameterError(f"unknown channel parameter in overrides: {exc}") from None
        for key, value in overrides.items():
            # An int may stand for a float; a bool stands only for a bool.
            kind = type(getattr(ChannelParams(), key))
            if kind is bool:
                ok = isinstance(value, bool)
            else:
                allowed = (int, float) if kind is float else int
                ok = isinstance(value, allowed) and not isinstance(value, bool)
            if not ok:
                raise ParameterError(f"{key} must be {kind.__name__}, not {value!r}")
    params.validate()
    return params


def _dilate(ink: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2r+1) square structuring element."""
    h, w = ink.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius : radius + h, radius : radius + w] = ink
    out = np.zeros_like(ink, dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy : dy + h, dx : dx + w]
    return out


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """1-D Gaussian taps truncated at floor(3 * sigma), renormalized."""
    radius = int(math.floor(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _blur(values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with clamp-to-edge borders."""
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


def print_scan(img: PixelImage, params: ChannelParams, seed: int) -> PixelImage:
    """Simulate printing and scanning one binary code image.

    Returns a byte0_255 luminance scan (ink is dark).  Deterministic given
    (img, params, seed); with noise_sigma = 0 and dot_gain_prob in {0, 1}
    the output does not depend on the seed at all.
    """
    if img.domain != BINARY01:
        raise DomainError("print_scan expects a binary01 input image")
    params.validate()
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
        v = _blur(v, params.psf_sigma)

    v = np.clip(params.gain * v + params.offset, 0.0, 1.0)

    if params.noise_sigma > 0.0:
        v = np.clip(v + rng.normal(0.0, params.noise_sigma, size=v.shape), 0.0, 1.0)

    lum = 255.0 * (1.0 - v)
    if params.quantize:
        return PixelImage(np.rint(lum).astype(np.uint8), BYTE0_255)
    return PixelImage(lum.astype(np.float32), BYTE0_255)
