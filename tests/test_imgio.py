import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgclab.codegen import BINARY01, BYTE0_255, UNIT_INTERVAL, ModuleMatrix, PixelImage
from pgclab.errors import DomainError, FormatError, PgcError
from pgclab.imgio import read_pbm, read_pgm, write_pbm, write_pgm


def test_pgm_byte_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = PixelImage(rng.integers(0, 256, (17, 23), dtype=np.uint8), BYTE0_255)
    p = tmp_path / "a.pgm"
    write_pgm(img, p)
    back = read_pgm(p)
    assert back.domain == BYTE0_255
    np.testing.assert_array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("img", [
    PixelImage(np.array([[0, 1]], np.uint8), BINARY01),
    PixelImage(np.array([[0.0, 0.5, 1.0]], np.float32), UNIT_INTERVAL),
], ids=[BINARY01, UNIT_INTERVAL])
def test_pgm_writes_only_byte0_255(tmp_path, img):
    """PGM holds luminance bytes: bits and unit-interval values are refused,
    not scaled, and no file is written."""
    p = tmp_path / f"{img.domain}.pgm"
    with pytest.raises(DomainError, match=f"cannot write domain '{img.domain}'"):
        write_pgm(img, p)
    assert not p.exists()


def test_pgm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # trailing note\n# full comment line\n 2\t1 \n255\n" + bytes([7, 9]))
    np.testing.assert_array_equal(read_pgm(p).pixels, [[7, 9]])


def test_pgm_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")  # short payload
    with pytest.raises(FormatError):
        read_pgm(p)
    for size in (b"-1 -1", b"0 3", b"3 0", b"-2 -3"):
        p.write_bytes(b"P5\n" + size + b"\n255\nxxxxxx")
        with pytest.raises(FormatError):
            read_pgm(p)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
def test_pbm_roundtrip_any_width(tmp_path, width):
    rng = np.random.default_rng(width)
    m = ModuleMatrix(rng.integers(0, 2, (5, width), dtype=np.uint8))
    p = tmp_path / "m.pbm"
    write_pbm(m, p)
    np.testing.assert_array_equal(read_pbm(p).bits, m.bits)


def test_pbm_errors(tmp_path):
    p = tmp_path / "bad.pbm"
    p.write_bytes(b"P1\n1 1\n0")
    with pytest.raises(FormatError):
        read_pbm(p)
    p.write_bytes(b"P4\n9 2\n\x00")  # needs 2 rows of 2 bytes
    with pytest.raises(FormatError):
        read_pbm(p)
    for size in (b"-1 -5", b"0 2", b"8 0", b"-9 -2"):
        p.write_bytes(b"P4\n" + size + b"\n\x00\x00")
        with pytest.raises(FormatError):
            read_pbm(p)




READERS = {b"P5": read_pgm, b"P4": read_pbm}
JUNK = st.binary(max_size=4) | st.lists(
    st.sampled_from(b"0123456789-+_ \t\n#P45x"), max_size=4).map(bytes)
# A header token: mostly a small integer, sometimes junk bytes.
TOKEN = st.integers(-3, 12).map(lambda n: str(n).encode()) | JUNK


@settings(max_examples=300, deadline=None)
@given(
    magic=st.sampled_from(sorted(READERS)),
    width=TOKEN,
    height=TOKEN,
    maxval=st.just(b"255") | TOKEN,
    edits=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3), JUNK), max_size=2),
    raster=st.binary(max_size=24),
)
@example(magic=b"P5", width=b"-1", height=b"-1", maxval=b"255", edits=[], raster=b"x")
@example(magic=b"P4", width=b"-1", height=b"-5", maxval=b"", edits=[], raster=b"")
@example(magic=b"P5", width=b"4", height=b"4", maxval=b"", edits=[], raster=b"")
@example(magic=b"P5", width=b"4", height=b"4", maxval=b"65535", edits=[], raster=b"")
def test_readers_parse_or_raise_pgc_error(tmp_path_factory, magic, width, height, maxval,
                                          edits, raster):
    """A PGM or PBM header built from mutated tokens and bytes either parses
    to an image of at least one pixel each way, or the reader raises one of
    pgclab's typed errors; a FormatError names the file."""
    data = bytearray(magic + b"\n" + width + b" " + height + b"\n")
    if magic == b"P5":
        data += maxval + b"\n"
    for pos, n, new in edits:
        data[pos : pos + n] = new
    p = tmp_path_factory.getbasetemp() / "fuzzed.img"
    p.write_bytes(bytes(data) + raster)
    try:
        out = READERS[magic](p)
    except PgcError as exc:
        assert not isinstance(exc, FormatError) or str(p) in str(exc)
        return
    shape = out.pixels.shape if magic == b"P5" else out.bits.shape
    assert min(shape) >= 1
