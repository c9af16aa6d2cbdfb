import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclab.codegen import (
    BINARY01,
    BYTE0_255,
    UNIT_INTERVAL,
    Geometry,
    ModuleMatrix,
    PixelImage,
    assemble_blocks,
    binarize,
    generate_module_matrix,
    ink_intensity,
    modules_from_pixels,
    render,
    split_blocks,
)
from pgclab.errors import DimensionError, DomainError, ParameterError


def test_default_geometry():
    g = Geometry()
    assert (g.image_height, g.image_width) == (384, 384)
    assert g.blocks_per_image == 256
    assert g.block_dim == 576


def test_geometry_rejects_non_dividing_block():
    with pytest.raises(DimensionError):
        Geometry(rows=64, cols=64, module_px=6, block_px=25)
    with pytest.raises(ParameterError):
        Geometry(rows=0)


@pytest.mark.parametrize("field, value", [("rows", 64.0), ("cols", "64"), ("module_px", True),
                                          ("block_px", np.int64(24)), ("rows", None)])
def test_geometry_rejects_fields_that_are_not_ints(field, value):
    with pytest.raises(ParameterError, match=f"geometry.{field} must be an integer"):
        Geometry(**{field: value})


def test_generate_is_deterministic():
    a = generate_module_matrix(7, 64, 64)
    b = generate_module_matrix(7, 64, 64)
    assert a.bits.shape == (64, 64)
    np.testing.assert_array_equal(a.bits, b.bits)
    c = generate_module_matrix(8, 64, 64)
    assert not np.array_equal(a.bits, c.bits)


def test_generate_single_bit():
    m = generate_module_matrix(7, 1, 1)
    assert m.bits.shape == (1, 1)
    assert m.bits[0, 0] in (0, 1)


def test_generate_rejects_empty():
    with pytest.raises(ParameterError):
        generate_module_matrix(7, 0, 4)


def test_bit_balance_inside_exact_binomial_interval():
    """Ones count of a seed-7 64x64 draw sits in the central 99.99% of
    Binomial(4096, 1/2), with the interval computed exactly in integers."""
    n = 4096
    ones = int(generate_module_matrix(7, 64, 64).bits.sum())
    # largest k with 20000 * P(X <= k) <= 1, i.e. lower tail mass <= 5e-5
    limit = 2 ** n // 20000
    c = 1  # comb(n, 0)
    cum = 1
    k = 0
    while True:
        c = c * (n - k) // (k + 1)
        if cum + c > limit:
            break
        cum += c
        k += 1
    lo, hi = k + 1, n - k - 1
    assert lo <= ones <= hi
    assert 0.45 <= ones / n <= 0.55


def test_render_dimensions_and_polarity():
    m = generate_module_matrix(1, 64, 64)
    img = render(m, 6)
    assert img.domain == BINARY01
    assert (img.height, img.width) == (384, 384)
    assert img.pixels[0, 0] == m.bits[0, 0]


def test_render_blank_and_single_module():
    blank = render(ModuleMatrix(np.zeros((2, 2), np.uint8)), 3)
    assert blank.pixels.shape == (6, 6)
    assert not blank.pixels.any()
    bits = np.zeros((2, 2), np.uint8)
    bits[0, 0] = 1
    img = render(ModuleMatrix(bits), 2)
    dark = np.argwhere(img.pixels == 1)
    np.testing.assert_array_equal(dark, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_split_counts_and_order():
    img = render(generate_module_matrix(2, 64, 64), 6)
    assert split_blocks(img, 24).shape == (256, 576)

    ramp = np.arange(576).reshape(24, 24) / 1000
    single = split_blocks(PixelImage(ramp, UNIT_INTERVAL), 24)
    assert single.shape == (1, 576)
    np.testing.assert_allclose(single[0].reshape(24, 24), ramp, atol=1e-7)

    tall = PixelImage(np.vstack([np.zeros((24, 24)), np.ones((24, 24))]), UNIT_INTERVAL)
    bs2 = split_blocks(tall, 24)
    assert bs2.shape == (2, 576)
    assert not bs2[0].any()  # block 0 is the top half
    assert bs2[1].all()


def test_split_rejects_non_divisible():
    img = PixelImage(np.zeros((25, 24)), UNIT_INTERVAL)
    with pytest.raises(DimensionError):
        split_blocks(img, 24)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    gr=st.integers(1, 4),
    gc=st.integers(1, 4),
    bpx=st.integers(1, 8),
)
def test_split_assemble_roundtrip(seed, gr, gc, bpx):
    rng = np.random.default_rng(seed)
    img = PixelImage(rng.random((gr * bpx, gc * bpx), dtype=np.float32), UNIT_INTERVAL)
    back = assemble_blocks(split_blocks(img, bpx), img.pixels.shape, bpx, img.domain)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    assert back.domain == img.domain


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    gr=st.integers(1, 4),
    gc=st.integers(1, 4),
    bpx=st.integers(1, 8),
)
def test_assemble_split_roundtrip(seed, gr, gc, bpx):
    rng = np.random.default_rng(seed)
    blocks = rng.random((gr * gc, bpx * bpx), dtype=np.float32)
    img = assemble_blocks(blocks, (gr * bpx, gc * bpx), bpx, UNIT_INTERVAL)
    np.testing.assert_array_equal(split_blocks(img, bpx), blocks)


def test_assemble_rejects_blocks_that_do_not_tile_the_image():
    with pytest.raises(DimensionError):
        assemble_blocks(np.zeros((1, 575)), (24, 24), 24, UNIT_INTERVAL)
    with pytest.raises(DimensionError):
        assemble_blocks(np.zeros((3, 576)), (48, 48), 24, UNIT_INTERVAL)
    with pytest.raises(DimensionError):
        assemble_blocks(np.zeros((1, 576)), (25, 24), 24, UNIT_INTERVAL)


def test_binarize_rules():
    got = binarize(PixelImage(np.array([[0.2, 0.8, 0.5]]), UNIT_INTERVAL), 0.5)
    assert got.domain == BINARY01
    np.testing.assert_array_equal(got.pixels, [[0, 1, 1]])  # tie -> 1


def test_binarize_validation():
    with pytest.raises(ParameterError):
        binarize(PixelImage(np.array([[0.5]]), UNIT_INTERVAL), 1.5)
    with pytest.raises(ParameterError):
        binarize(PixelImage(np.array([[0.5]]), UNIT_INTERVAL), -0.01)
    with pytest.raises(DomainError):
        binarize(PixelImage(np.zeros((2, 2), np.uint8), BYTE0_255), 0.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 1.0))
def test_binarize_idempotent(seed, t):
    v = PixelImage(np.random.default_rng(seed).random((8, 8)), UNIT_INTERVAL)
    once = binarize(v, t)
    np.testing.assert_array_equal(binarize(once, t).pixels, once.pixels)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    k=st.integers(1, 5),
)
def test_render_modules_roundtrip(seed, rows, cols, k):
    m = generate_module_matrix(seed, rows, cols)
    back = modules_from_pixels(render(m, k), k)
    np.testing.assert_array_equal(back.bits, m.bits)


def test_majority_vote_and_tie():
    cell = np.array([[1, 1], [1, 0]], np.uint8)
    assert modules_from_pixels(PixelImage(cell, BINARY01), 2).bits[0, 0] == 1
    tie = np.array([[1, 1], [0, 0]], np.uint8)
    assert modules_from_pixels(PixelImage(tie, BINARY01), 2).bits[0, 0] == 0


def modules_from_pixels_two_axis_sum(img, module_px):
    """The vote as one sum over both cell axes, kept as the reference."""
    rows, cols = img.height // module_px, img.width // module_px
    counts = (
        img.pixels.reshape(rows, module_px, cols, module_px)
        .sum(axis=(1, 3), dtype=np.int64)
    )
    return (2 * counts > module_px * module_px).astype(np.uint8)


@pytest.mark.parametrize("k", [1, 6, 16, 17])
def test_modules_from_pixels_matches_the_two_axis_sum(k):
    """Cells with every count from empty to full, exact halves included;
    at 16 and 17 px a cell counts past 255."""
    rng = np.random.default_rng(k)
    n = k * k
    counts = rng.integers(0, n + 1, (9, 10))
    counts.flat[:5] = (0, n // 2, n // 2 + 1, n - 1, n)
    cells = rng.permuted(np.arange(n) < counts[..., None], axis=-1)
    pixels = cells.reshape(9, 10, k, k).transpose(0, 2, 1, 3).reshape(9 * k, 10 * k)
    img = PixelImage(pixels.astype(np.uint8), BINARY01)
    got = modules_from_pixels(img, k).bits
    np.testing.assert_array_equal(got, modules_from_pixels_two_axis_sum(img, k))
    np.testing.assert_array_equal(got, (2 * counts > n).astype(np.uint8))


def test_modules_from_pixels_validation():
    with pytest.raises(DomainError):
        modules_from_pixels(PixelImage(np.zeros((4, 4)), UNIT_INTERVAL), 2)
    with pytest.raises(DimensionError):
        modules_from_pixels(PixelImage(np.zeros((5, 4), np.uint8), BINARY01), 2)


def test_ink_intensity():
    img = PixelImage(np.array([[0, 255], [51, 204]], np.uint8), BYTE0_255)
    ink = ink_intensity(img)
    assert ink.domain == UNIT_INTERVAL
    np.testing.assert_allclose(ink.pixels, [[1.0, 0.0], [0.8, 0.2]], atol=1e-7)
    with pytest.raises(DomainError):
        ink_intensity(ink)


def test_ink_intensity_bit_identical_to_the_one_expression_form():
    """The in-place form gives the bits of 1 - v / 255 computed as one
    float32 expression, on every byte."""
    px = np.arange(256, dtype=np.uint8)[None]
    want = (1.0 - px.astype(np.float32) / np.float32(255.0)).astype(np.float32)
    got = ink_intensity(PixelImage(px, BYTE0_255)).pixels
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(px, np.arange(256)[None])  # the scan is left as it was


def test_module_matrix_validation():
    with pytest.raises(DomainError):
        ModuleMatrix(np.array([[0, 2]], np.uint8))
    with pytest.raises(DimensionError):
        ModuleMatrix(np.zeros(4, np.uint8))


def test_pixel_image_domain_checks():
    with pytest.raises(DomainError):
        PixelImage(np.array([[1.5]]), UNIT_INTERVAL)
    with pytest.raises(DomainError):
        PixelImage(np.array([[300.0]]), BYTE0_255)
    with pytest.raises(DomainError):
        PixelImage(np.array([[2]], np.uint8), BINARY01)


def test_pixel_image_refuses_float_scans():
    """A luminance scan is 8-bit: a float one is refused, not cast."""
    for dtype in (np.float32, np.float64):
        with pytest.raises(DomainError, match="byte0_255 pixels must be uint8"):
            PixelImage(np.full((2, 2), 100.0, dtype), BYTE0_255)
