"""Reading and writing PGM (P5) and PBM (P4) files.

Grayscale images use 8-bit binary PGM with maxval 255: only byte0_255
images, whose pixels are uint8 bytes, are written, and pixels come back as
a byte0_255 image.  Module matrices use PBM P4 (1 = black = dark module).
"""

from __future__ import annotations

import numpy as np

from .codegen import BYTE0_255, ModuleMatrix, PixelImage
from .errors import DomainError, FormatError


def _read_header(path, magic: str, count: int, kind: str):
    """The bytes of path, a magic-numbered kind file whose header has count
    whitespace-separated tokens (# comments skipped), the header's integers
    after the magic (width and height first, each checked >= 1) and the
    offset of the raster."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic.encode("ascii")):
        raise FormatError(f"not a {magic} {kind} file: {path}")
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
    try:
        values = [int(token) for token in tokens[1:]]
    except ValueError as exc:
        raise FormatError(f"bad {kind} header in {path}") from exc
    width, height = values[:2]
    if width < 1 or height < 1:
        raise FormatError(f"bad {kind} size {width}x{height} in {path}")
    # exactly one whitespace byte separates the header from the raster
    return data, values, pos + 1


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
    data, (width, height, maxval), pos = _read_header(path, "P5", 4, "PGM")
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
    data, (width, height), pos = _read_header(path, "P4", 3, "PBM")
    row_bytes = (width + 7) // 8
    if len(data) - pos < row_bytes * height:
        raise FormatError(f"truncated PBM raster in {path}")
    packed = np.frombuffer(data, np.uint8, row_bytes * height, offset=pos)
    bits = np.unpackbits(packed.reshape(height, row_bytes), axis=1)[:, :width]
    return ModuleMatrix(bits)
