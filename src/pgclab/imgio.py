"""Reading and writing PGM (P5) and PBM (P4) files.

Grayscale images use 8-bit binary PGM with maxval 255: only byte0_255
images, whose pixels are uint8 bytes, are written, and pixels come back as
a byte0_255 image.  Module matrices use PBM P4 (1 = black = dark module).
"""

from __future__ import annotations

import numpy as np

from .codegen import BYTE0_255, ModuleMatrix, PixelImage
from .errors import DomainError, FormatError


def _read_tokens(data: bytes, count: int, path):
    """Read the whitespace-separated header tokens of path's data, skipping
    # comments."""
    tokens = []
    pos = 0
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"truncated header in {path}")
        tokens.append(data[start:pos])
    # exactly one whitespace byte separates the header from the raster
    return tokens, pos + 1


def write_pgm(img: PixelImage, path) -> None:
    """Write a byte0_255 image as binary PGM (P5, maxval 255)."""
    if img.domain != BYTE0_255:
        raise DomainError(f"cannot write domain {img.domain!r} as PGM")
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        # The array's own buffer, not a bytes copy of it.
        f.write(np.ascontiguousarray(img.pixels))


def read_pgm(path) -> PixelImage:
    """Read a binary PGM (P5) file into a byte0_255 image, whose pixels are
    a read-only view of the file's bytes: the one copy of the raster."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"not a P5 PGM file: {path}")
    tokens, pos = _read_tokens(data, 4, path)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError(f"bad PGM header in {path}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM size {width}x{height} in {path}")
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval} in {path} (want 255)")
    if len(data) - pos < width * height:
        raise FormatError(f"truncated PGM raster in {path}")
    px = np.frombuffer(data, np.uint8, width * height, offset=pos).reshape(height, width)
    return PixelImage(px, BYTE0_255)


def write_pbm(m: ModuleMatrix, path) -> None:
    """Write a module matrix as binary PBM (P4); bit 1 = black."""
    header = f"P4\n{m.cols} {m.rows}\n".encode("ascii")
    packed = np.packbits(m.bits, axis=1)
    with open(path, "wb") as f:
        f.write(header)
        f.write(packed.tobytes())


def read_pbm(path) -> ModuleMatrix:
    """Read a binary PBM (P4) file into a module matrix."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P4"):
        raise FormatError(f"not a P4 PBM file: {path}")
    tokens, pos = _read_tokens(data, 3, path)
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise FormatError(f"bad PBM header in {path}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad PBM size {width}x{height} in {path}")
    row_bytes = (width + 7) // 8
    if len(data) - pos < row_bytes * height:
        raise FormatError(f"truncated PBM raster in {path}")
    packed = np.frombuffer(data, np.uint8, row_bytes * height, offset=pos)
    bits = np.unpackbits(packed.reshape(height, row_bytes), axis=1)[:, :width]
    return ModuleMatrix(bits)
