"""Binary module codes and their pixel-domain representations.

A code is a square-module grid; bit 1 means a dark (inked) module.  Codes
are rendered to pixel rasters, cut into fixed-size non-overlapping blocks
for model input, and recovered from pixel data by thresholding plus a
per-module majority vote.  All operations here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError, check_field_types

BINARY01 = "binary01"
BYTE0_255 = "byte0_255"
UNIT_INTERVAL = "unit_interval"

_DOMAINS = (BINARY01, BYTE0_255, UNIT_INTERVAL)


def check_size(name: str, shape: tuple, itemsize: int) -> None:
    """ParameterError naming name if an array of shape, with items of
    itemsize bytes, has more bytes than numpy's intp can count."""
    nbytes = math.prod(shape) * itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise ParameterError(f"{name}: an array of {nbytes} bytes is more than numpy can hold")


@dataclass(frozen=True)
class Geometry:
    """Code geometry: module grid size, pixels per module, block edge."""

    rows: int = 64
    cols: int = 64
    module_px: int = 6
    block_px: int = 24

    def __post_init__(self):
        check_field_types(self, "geometry.")
        for name in ("rows", "cols", "module_px", "block_px"):
            if getattr(self, name) < 1:
                raise ParameterError(f"geometry.{name} must be >= 1")
        # 8 bytes a pixel: the blur holds the image in float64.
        check_size("geometry.rows, cols and module_px", (self.image_height, self.image_width), 8)
        for side, px in (("height", self.image_height), ("width", self.image_width)):
            if px % self.block_px:
                raise DimensionError(f"block_px {self.block_px} does not divide image {side} {px}")

    @property
    def image_height(self) -> int:
        return self.rows * self.module_px

    @property
    def image_width(self) -> int:
        return self.cols * self.module_px

    @property
    def blocks_per_image(self) -> int:
        return (self.image_height // self.block_px) * (self.image_width // self.block_px)

    @property
    def block_dim(self) -> int:
        return self.block_px * self.block_px


@dataclass
class ModuleMatrix:
    """Binary module grid; ``bits[r, c] == 1`` is a dark module."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise DimensionError(f"module matrix must be 2-D, got shape {bits.shape}")
        if bits.size and bits.max() > 1:
            raise DomainError("module bits must be 0 or 1")
        self.bits = bits

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]


@dataclass
class PixelImage:
    """2-D grayscale raster with an explicit value domain.

    Domains: ``binary01`` (uint8 bits, 1 = dark ink), ``unit_interval``
    (float32 in [0, 1]) and ``byte0_255`` (uint8 luminance, 0 = black).
    """

    pixels: np.ndarray
    domain: str

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise DomainError(f"unknown pixel domain {self.domain!r}")
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise DimensionError(f"image must be 2-D, got shape {px.shape}")
        if self.domain == BINARY01:
            px = np.ascontiguousarray(px, dtype=np.uint8)
            if px.size and px.max() > 1:
                raise DomainError("binary01 pixels must be 0 or 1")
        elif self.domain == UNIT_INTERVAL:
            px = np.ascontiguousarray(px, dtype=np.float32)
            if px.size and (px.min() < 0.0 or px.max() > 1.0):
                raise DomainError("unit_interval pixels must lie in [0, 1]")
        elif px.dtype != np.uint8:  # byte0_255
            raise DomainError(f"byte0_255 pixels must be uint8, not {px.dtype}")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def generate_module_matrix(seed: int, rows: int = 64, cols: int = 64) -> ModuleMatrix:
    """Draw a rows x cols matrix of i.i.d. uniform bits from a seeded PRNG."""
    if rows < 1 or cols < 1:
        raise ParameterError("rows and cols must be >= 1")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    return ModuleMatrix(bits)


def render(m: ModuleMatrix, module_px: int) -> PixelImage:
    """Expand each module to a constant module_px x module_px square (1 = dark)."""
    if module_px < 1:
        raise ParameterError("module_px must be >= 1")
    px = np.repeat(np.repeat(m.bits, module_px, axis=0), module_px, axis=1)
    return PixelImage(px, BINARY01)


def split_blocks(img: PixelImage, block_px: int) -> np.ndarray:
    """Cut an image into non-overlapping block_px x block_px blocks, as an
    (n_blocks, block_px ** 2) array.

    Blocks are ordered row-major over the block grid, so block
    gr * grid_cols + gc is the one at grid row gr, column gc, and each
    block is flattened row-major.
    """
    if block_px < 1:
        raise ParameterError("block_px must be >= 1")
    h, w = img.height, img.width
    if h % block_px or w % block_px:
        raise DimensionError(
            f"image {h}x{w} not divisible into {block_px}x{block_px} blocks"
        )
    gr, gc = h // block_px, w // block_px
    blocks = (
        img.pixels.reshape(gr, block_px, gc, block_px)
        .transpose(0, 2, 1, 3)
        .reshape(gr * gc, block_px * block_px)
    )
    return np.ascontiguousarray(blocks)


def assemble_blocks(blocks: np.ndarray, shape: tuple[int, int], block_px: int,
                    domain: str) -> PixelImage:
    """The image of that (height, width) shape and domain which
    split_blocks(image, block_px) cut into blocks: its exact inverse.
    Raises DimensionError when the blocks do not tile that image."""
    h, w = shape
    gr, gc = h // block_px, w // block_px
    blocks = np.asarray(blocks)
    if (gr * block_px, gc * block_px) != (h, w) or blocks.shape != (gr * gc, block_px ** 2):
        raise DimensionError(
            f"blocks of shape {blocks.shape} do not tile a {h}x{w} image "
            f"in {block_px}x{block_px} blocks"
        )
    px = blocks.reshape(gr, gc, block_px, block_px).transpose(0, 2, 1, 3).reshape(h, w)
    return PixelImage(np.ascontiguousarray(px), domain)


def binarize(img: PixelImage, t: float) -> PixelImage:
    """Threshold a unit-interval image to a binary01 image: 1 iff value >= t
    (ties go to 1)."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"threshold {t} outside [0, 1]")
    if img.domain == BYTE0_255:
        raise DomainError("binarize expects unit_interval input; normalize first")
    return PixelImage(img.pixels >= t, BINARY01)


def modules_from_pixels(img: PixelImage, module_px: int) -> ModuleMatrix:
    """Recover a module matrix by majority vote over each module cell.

    A module is 1 iff strictly more than half of its pixels are 1; an exact
    half votes 0 (tie-break toward white).
    """
    if module_px < 1:
        raise ParameterError("module_px must be >= 1")
    if img.domain != BINARY01:
        raise DomainError("modules_from_pixels expects a binary01 image")
    h, w = img.height, img.width
    if h % module_px or w % module_px:
        raise DimensionError(
            f"image {h}x{w} not divisible into {module_px}x{module_px} cells"
        )
    rows, cols = h // module_px, w // module_px
    # Each module row's pixel rows first, then its column groups: the same
    # exact int64 counts as one sum over both axes.
    counts = (
        img.pixels.reshape(rows, module_px, w).sum(axis=1, dtype=np.int64)
        .reshape(rows, cols, module_px).sum(axis=2)
    )
    bits = (2 * counts > module_px * module_px).astype(np.uint8)
    return ModuleMatrix(bits)


def ink_intensity(img: PixelImage) -> PixelImage:
    """Convert a luminance scan to ink intensity: 1 - value / 255.

    More ink means a larger value, matching the rendering convention where
    bit 1 is dark.
    """
    if img.domain != BYTE0_255:
        raise DomainError("ink_intensity expects a byte0_255 luminance image")
    # In place in one fresh float32 copy: training converts every batch.
    ink = img.pixels.astype(np.float32)
    ink /= np.float32(255.0)
    np.subtract(1.0, ink, out=ink)
    return PixelImage(ink, UNIT_INTERVAL)
