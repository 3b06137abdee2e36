import cmath
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoscope import fractals
from chaoscope.errors import DomainError, EmptyImage, GridTooLarge
from chaoscope.fractals import (
    AffineMap2,
    BinaryImage,
    ComplexWindow,
    EscapeGrid,
    IfsSystem,
    box_count_dimension,
    ifs_iterate,
    mandelbrot_grid,
    sierpinski_ifs,
    similarity_dimension,
)
from conftest import full_grid_ifs_iterate, full_grid_mandelbrot, mp_slope

CLASSIC_WINDOW = ComplexWindow(-2.4, 1.2, -1.5, 1.5, 0.005)


def test_escape_cap_counts_pixels_times_nmax(monkeypatch):
    window = ComplexWindow(-2.0, 0.5, -1.0, 1.0, 0.05)  # 51x41 pixels
    pixels = window.nx * window.ny
    assert pixels > fractals._MIN_ESCAPE_PIXELS
    monkeypatch.setattr(fractals, "MAX_ESCAPE_ITERATES", 30 * pixels)
    assert mandelbrot_grid(window, 30).nmax == 30
    with pytest.raises(GridTooLarge):
        mandelbrot_grid(window, 31)
    # a small grid is charged as _MIN_ESCAPE_PIXELS pixels
    tiny = ComplexWindow(-0.1, 0.1, -0.1, 0.1, 0.1)
    monkeypatch.setattr(fractals, "MAX_ESCAPE_ITERATES", 10 * fractals._MIN_ESCAPE_PIXELS)
    assert mandelbrot_grid(tiny, 10).nmax == 10
    with pytest.raises(GridTooLarge):
        mandelbrot_grid(tiny, 11)


@pytest.mark.parametrize("nmax", [10**9, 2**31, 2**63])
def test_escape_cap_refuses_long_runs_and_int32_overflowing_nmax(nmax):
    with pytest.raises(GridTooLarge):
        mandelbrot_grid(ComplexWindow(-0.1, 0.1, -0.1, 0.1, 0.1), nmax)


def test_ifs_cap_counts_pixels_times_steps(monkeypatch):
    start = BinaryImage.full(64, 64)
    monkeypatch.setattr(fractals, "MAX_IFS_PIXEL_STEPS", 3 * 64 * 64)
    assert ifs_iterate(sierpinski_ifs(), start, 3).bits.shape == (64, 64)
    with pytest.raises(GridTooLarge):
        ifs_iterate(sierpinski_ifs(), start, 4)
    # a small image is charged as _MIN_IFS_PIXELS pixels
    small = BinaryImage.full(4, 4)
    monkeypatch.setattr(fractals, "MAX_IFS_PIXEL_STEPS", 5 * fractals._MIN_IFS_PIXELS)
    assert ifs_iterate(sierpinski_ifs(), small, 5).bits.shape == (4, 4)
    with pytest.raises(GridTooLarge):
        ifs_iterate(sierpinski_ifs(), small, 6)
    monkeypatch.undo()
    with pytest.raises(GridTooLarge):
        ifs_iterate(sierpinski_ifs(), BinaryImage.full(1024, 1024), 100_000)


def test_window_sample_counts_match_meshgrid():
    assert CLASSIC_WINDOW.nx == 721
    assert CLASSIC_WINDOW.ny == 601
    xs, ys = CLASSIC_WINDOW.x_values(), CLASSIC_WINDOW.y_values()
    assert xs[0] == -2.4 and ys[0] == -1.5
    assert abs(xs[-1] - 1.2) < 1e-9 and ys[-1] == 1.5


def test_window_symmetric_axis_is_exactly_mirrored():
    ys = CLASSIC_WINDOW.y_values()
    assert np.all(ys == -ys[::-1])
    assert ys[300] == 0.0


def test_window_validation():
    with pytest.raises(DomainError):
        ComplexWindow(1.0, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        ComplexWindow(-1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ComplexWindow(0.0, 0.1, 0.0, 1.0, 0.1)  # under 2 samples on x


def _count_at(grid, window, zr, zi):
    xs, ys = window.x_values(), window.y_values()
    i = int(np.argmin(np.abs(xs - zr)))
    j = int(np.argmin(np.abs(ys - zi)))
    assert abs(xs[i] - zr) < 1e-12 and abs(ys[j] - zi) < 1e-12
    return int(grid.counts[j, i])


@pytest.mark.parametrize("counts", [[[1.9, 2.2, 3.3]], np.array([[2**32 + 1]]), [[np.nan]]])
def test_escape_grid_refuses_counts_its_cast_would_change(counts):
    with pytest.raises(DomainError, match="^escape counts must be whole numbers$"):
        EscapeGrid(counts=counts, nmax=5, threshold=4.0, window=CLASSIC_WINDOW)


def test_escape_grid_keeps_int32_counts_and_casts_exact_values():
    counts = np.ones((2, 3), dtype=np.int32)
    assert EscapeGrid(counts, 5, 4.0, CLASSIC_WINDOW).counts is counts
    cast = EscapeGrid([[1.0, 2.0]], 5, 4.0, CLASSIC_WINDOW).counts
    assert cast.dtype == np.int32 and cast.tolist() == [[1, 2]]


_COUNT_SHAPE = r"^counts must be a non-empty 2-D array$"
_COUNT_RANGE = r"^escape counts must lie in \[1, nmax\]$"


@pytest.mark.parametrize("counts, message", [
    (np.empty((0, 3)), _COUNT_SHAPE),
    (np.empty((3, 0)), _COUNT_SHAPE),
    ([1, 2], _COUNT_SHAPE),
    ([[[1]]], _COUNT_SHAPE),
    ([[1, 0, 5]], _COUNT_RANGE),
    ([[1, 6, 5]], _COUNT_RANGE),
    (np.array([[-2**31]]), _COUNT_RANGE),
], ids=["counts0", "counts1", "counts2", "counts3", "zero", "above-nmax", "int32-min"])
def test_escape_grid_refuses_counts_no_pgm_can_hold(counts, message):
    # an empty grid would write a 0x0 PGM, which read_pgm refuses, and a
    # count outside [1, nmax] has no gray level
    with pytest.raises(DomainError, match=message):
        EscapeGrid(counts=counts, nmax=5, threshold=4.0, window=CLASSIC_WINDOW)


_BITS_VALUES = r"^bits must be 0 or 1$"
_BITS_SHAPE = r"^bits must be a non-empty 2-D boolean array$"


@pytest.mark.parametrize("bits, message", [
    *[([[0.0, bad, 1.0]], _BITS_VALUES) for bad in (0.5, math.nan, 7, math.inf, -1, 2)],
    (np.empty((0, 3), dtype=bool), _BITS_SHAPE),
    (np.empty((3, 0)), _BITS_SHAPE),
    ([True, False], _BITS_SHAPE),
    ([[[2]]], _BITS_SHAPE),  # the shape is tested first
], ids=["0.5", "nan", "7", "inf", "-1", "2", "no-rows", "no-columns", "1-d", "3-d"])
def test_binary_image_refuses_bits_its_cast_would_change(bits, message):
    with pytest.raises(DomainError, match=message):
        BinaryImage(bits=bits)


def test_binary_image_keeps_bool_bits_and_casts_zeros_and_ones():
    bits = np.ones((2, 3), dtype=bool)
    assert BinaryImage(bits=bits).bits is bits
    cast = BinaryImage(bits=[[0, 1.0, -0.0]]).bits
    assert cast.dtype == bool and cast.tolist() == [[False, True, False]]


def test_mandelbrot_point_counts():
    window = ComplexWindow(-2.0, 2.0, -1.0, 1.0, 0.25)
    grid = mandelbrot_grid(window, 50, 4.0)
    assert _count_at(grid, window, 0.0, 0.0) == 50  # orbit pinned at 0
    assert _count_at(grid, window, 1.0, 0.0) == 3  # 0 -> 1 -> 2 -> 5
    assert _count_at(grid, window, -1.0, 0.0) == 50  # period-2 orbit


def test_mandelbrot_hand_iteration_for_z_equals_one():
    w, n = 0.0, 0
    while True:
        w = w * w + 1.0
        n += 1
        if abs(w) > 4.0:
            break
    assert n == 3


def test_mandelbrot_conjugate_symmetry():
    window = ComplexWindow(-2.0, 0.5, -1.2, 1.2, 0.05)
    grid = mandelbrot_grid(window, 60, 4.0)
    assert np.array_equal(grid.counts, grid.counts[::-1])


def test_mandelbrot_monotone_in_nmax():
    window = ComplexWindow(-2.0, 0.5, -1.2, 1.2, 0.05)
    lo = mandelbrot_grid(window, 30, 4.0)
    hi = mandelbrot_grid(window, 50, 4.0)
    boundary = lo.counts != 30
    assert np.all(hi.counts[boundary] == lo.counts[boundary])
    assert np.all(hi.counts[~boundary] >= 30)


def test_mandelbrot_threshold_insensitivity_on_classic_window():
    tight = mandelbrot_grid(CLASSIC_WINDOW, 100, 4.0)
    loose = mandelbrot_grid(CLASSIC_WINDOW, 100, 100.0)
    disagree = np.mean((tight.counts == 100) != (loose.counts == 100))
    assert disagree <= 0.001


def test_mandelbrot_preconditions(monkeypatch):
    with pytest.raises(DomainError):
        mandelbrot_grid(CLASSIC_WINDOW, 50, 1.9)
    with pytest.raises(DomainError):
        mandelbrot_grid(CLASSIC_WINDOW, 50, math.nan)
    with pytest.raises(DomainError):
        mandelbrot_grid(CLASSIC_WINDOW, 0, 4.0)
    monkeypatch.setattr(fractals, "DEFAULT_MAX_PIXELS", 1000)
    with pytest.raises(GridTooLarge):
        mandelbrot_grid(CLASSIC_WINDOW, 50, 4.0)


@pytest.mark.parametrize("scale", [2.0**-53, 2.0**-54])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_escape_grid_refuses_a_pitch_float64_cannot_resolve(axis, scale):
    # floats next to 0.75 lie 2^-53 apart, so lo + k * 2^-54 repeats values
    # on an axis that starts there, while the other axis, about 0, resolves
    lo = -0.75 if axis == "x" else 0.75
    near, zero = (lo, lo + 4 * scale), (-2 * scale, 2 * scale)
    window = ComplexWindow(*(near + zero if axis == "x" else zero + near), scale)
    values = window.x_values() if axis == "x" else window.y_values()
    if scale == 2.0**-53:
        assert (np.diff(values) > 0).all()
        assert mandelbrot_grid(window, 5).counts.shape == (5, 5)
        return
    assert not (np.diff(values) > 0).all()
    with pytest.raises(DomainError) as err:
        mandelbrot_grid(window, 5)
    assert str(err.value) == (f"the window's {axis} values are not strictly increasing: "
                              f"scale {scale!r} is below float64's resolution there")


def test_affine_map_contractivity_enforced():
    with pytest.raises(DomainError):
        AffineMap2(np.eye(2), np.zeros(2))
    AffineMap2(0.999 * np.eye(2), np.zeros(2))
    with pytest.raises(DomainError):
        IfsSystem(maps=())


@pytest.mark.parametrize("linear, offset", [
    (np.eye(3) * 0.5, np.zeros(2)),
    ([0.5, 0.5], np.zeros(2)),
    (np.eye(2) * 0.5, np.zeros(3)),
    (np.eye(2) * 0.5, np.zeros((2, 1))),
], ids=["3x3", "1-D-linear", "3-offset", "column-offset"])
def test_affine_map_refuses_a_part_of_another_shape(linear, offset):
    with pytest.raises(DomainError, match=r"^need a 2x2 linear part and a 2-vector offset$"):
        AffineMap2(linear, offset)


@pytest.mark.parametrize(
    "linear, offset",
    [
        ([[math.nan, 0.0], [0.0, 0.5]], [0.0, 0.0]),
        ([[math.inf, 0.0], [0.0, 0.5]], [0.0, 0.0]),
        ([[0.5, 0.0], [0.0, 0.5]], [math.inf, 0.0]),
        ([[0.5, 0.0], [0.0, 0.5]], [0.0, math.nan]),
    ],
)
def test_affine_map_refuses_non_finite_entries(linear, offset):
    with pytest.raises(DomainError, match="finite"):
        AffineMap2(np.array(linear), np.array(offset))


def _mp_spectral_norm(m):
    with mpmath.workdps(60):
        a, b, c, d = (mpmath.mpf(float(v)) for v in m.ravel())
        frob = a * a + b * b + c * c + d * d
        det = a * d - b * c
        return mpmath.sqrt((frob + mpmath.sqrt(frob * frob - 4 * det * det)) / 2)


_ENTRY = st.floats(-2.0, 2.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    ulps=st.one_of(st.none(), st.integers(-64, 64)),
)
def test_affine_map_contractivity_agrees_with_mpmath(entries, ulps):
    m = np.array(entries).reshape(2, 2)
    if ulps is not None:
        # rescale to within ulps of operator norm 1, where rounding matters
        norm = float(_mp_spectral_norm(m))
        if norm == 0.0:
            return
        m = m / norm * (1.0 + ulps * 2.0 ** -52)
    exact = _mp_spectral_norm(m)
    if abs(exact - 1) <= 8 * 2.0 ** -52:
        return  # too close to 1 for a few-ulp closed form to decide
    refused = True
    try:
        AffineMap2(m, np.zeros(2))
        refused = False
    except DomainError:
        pass
    assert refused == (exact >= 1)


def test_ifs_zero_iterations_is_identity():
    start = BinaryImage.full(32, 32)
    out = ifs_iterate(sierpinski_ifs(), start, 0)
    assert np.array_equal(out.bits, start.bits)


def test_ifs_single_map_collapses_to_origin_pixel():
    system = IfsSystem(maps=(AffineMap2(0.5 * np.eye(2), np.zeros(2)),))
    start = BinaryImage.full(64, 64)
    out = ifs_iterate(system, start, 20)
    assert out.bits[0, 0]
    assert int(out.bits.sum()) == 1


def test_sierpinski_area_ratio_per_step():
    img = BinaryImage.full(512, 512)
    system = sierpinski_ifs()
    counts = [int(img.bits.sum())]
    for _ in range(6):
        img = ifs_iterate(system, img, 1)
        counts.append(int(img.bits.sum()))
    for k in range(2, 7):
        ratio = counts[k] / counts[k - 1]
        assert abs(ratio - 0.75) <= 0.075


def _dilate(bits):
    out = bits.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            shifted = np.zeros_like(bits)
            ys = slice(max(dy, 0), bits.shape[0] + min(dy, 0))
            xs = slice(max(dx, 0), bits.shape[1] + min(dx, 0))
            ys_src = slice(max(-dy, 0), bits.shape[0] + min(-dy, 0))
            xs_src = slice(max(-dx, 0), bits.shape[1] + min(-dx, 0))
            shifted[ys, xs] = bits[ys_src, xs_src]
            out |= shifted
    return out


def test_ifs_monotone_containment_with_dilation():
    img = BinaryImage.full(256, 256)
    system = sierpinski_ifs()
    prev = ifs_iterate(system, img, 1)
    for _ in range(4):
        cur = ifs_iterate(system, prev, 1)
        assert not np.any(cur.bits & ~_dilate(prev.bits))
        prev = cur


def test_similarity_dimension_values():
    assert similarity_dimension(4, 0.5) == 2.0
    assert abs(similarity_dimension(3, 0.5) - 1.584963) < 1e-6
    assert abs(similarity_dimension(2, 1.0 / 3.0) - 0.630930) < 1e-6
    assert similarity_dimension(1, 0.5) == 0.0


def test_similarity_dimension_domain():
    with pytest.raises(DomainError):
        similarity_dimension(3, 1.0)
    with pytest.raises(DomainError):
        similarity_dimension(3, 0.0)
    with pytest.raises(DomainError):
        similarity_dimension(0, 0.5)


@settings(max_examples=100)
@given(n=st.integers(1, 1000), r=st.floats(0.01, 0.99))
def test_similarity_dimension_back_substitution(n, r):
    d = similarity_dimension(n, r)
    assert abs(n * r ** d - 1.0) <= 1e-12


def test_box_count_full_square():
    # the log counts are k ln 4 up to rounding, and the closed-form slope on
    # them is exactly 2 (a plain sum of its products gives 1.9999999999999998)
    estimate, pts = box_count_dimension(BinaryImage.full(1024, 1024), 1, 6)
    assert estimate == 2.0
    assert len(pts) == 6
    # every box is occupied: counts are exactly 4^k
    for (lx, ly), k in zip(pts, range(1, 7)):
        assert lx == k * math.log(2.0)
        assert abs(ly - math.log(4.0 ** k)) < 1e-12


def test_box_count_full_strip_is_exactly_one():
    # np.polyfit gave 0.9999999999999996 here
    assert box_count_dimension(BinaryImage.full(1024, 4), 1, 2)[0] == 1.0
    assert box_count_dimension(BinaryImage.full(4, 1024), 1, 2)[0] == 1.0


def test_box_count_single_pixel():
    bits = np.zeros((512, 512), dtype=bool)
    bits[17, 403] = True
    estimate, _ = box_count_dimension(BinaryImage(bits=bits), 1, 6)
    assert abs(estimate) <= 0.05


def test_box_count_sierpinski(sierpinski_depth7):
    estimate, pts = box_count_dimension(sierpinski_depth7, 2, 7)
    assert abs(estimate - similarity_dimension(3, 0.5)) <= 0.08
    # and it is the correctly rounded least-squares fit of its points
    assert estimate == mp_slope(*zip(*pts)) == 1.5849625007211563


def test_box_count_preconditions():
    with pytest.raises(EmptyImage):
        box_count_dimension(BinaryImage(bits=np.zeros((64, 64), bool)), 1, 4)
    img = BinaryImage.full(64, 64)
    with pytest.raises(DomainError):
        box_count_dimension(img, 3, 3)
    with pytest.raises(DomainError):
        box_count_dimension(img, 0, 4)
    with pytest.raises(DomainError):
        box_count_dimension(img, 1, 7)  # 2^7 exceeds the 64-pixel side
    assert box_count_dimension(img, 1, 6)[0] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        box_count_dimension(img, 1, 10**12)  # refused without building 2**(10**12)


@pytest.mark.parametrize(
    "bounds",
    [
        (-math.inf, 1.0, -1.0, 1.0),
        (-1.0, 1.0, -1.0, math.inf),
        (-1e308, 1e308, -1.0, 1.0),  # finite bounds, infinite span
    ],
)
def test_window_needs_finite_bounds(bounds):
    with pytest.raises(DomainError):
        ComplexWindow(*bounds, scale=0.01)


def _window(xmin, ymin, scale, nx, ny, mirrored):
    if mirrored:
        ymin = -0.5 * (ny - 1) * scale
    return ComplexWindow(
        xmin, xmin + (nx - 1) * scale, ymin, ymin + (ny - 1) * scale, scale
    )


@settings(max_examples=150, deadline=None)
@given(
    xmin=st.floats(-2.5, 0.5),
    ymin=st.floats(-1.5, 1.0),
    scale=st.floats(0.005, 0.2),
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    mirrored=st.booleans(),
    nmax=st.integers(1, 300),
    threshold=st.floats(2.0, 100.0),
    tile=st.sampled_from([1, 2, 7, 40, 100, 1 << 14]),
)
# a first tile wholly inside the cardioid, which iterates nothing
@example(xmin=-0.3, ymin=0.0, scale=0.03, nx=15, ny=30, mirrored=False, nmax=100,
         threshold=4.0, tile=1)
def test_tiled_escape_grid_matches_full_grid(
    xmin, ymin, scale, nx, ny, mirrored, nmax, threshold, tile
):
    # tiles under one row hold one row; others leave a partial last tile
    window = _window(xmin, ymin, scale, nx, ny, mirrored)
    with mock.patch.object(fractals, "_TILE_PIXELS", tile):
        got = mandelbrot_grid(window, nmax, threshold)
    want = full_grid_mandelbrot(window, nmax, threshold)
    assert got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.counts, want.counts)
    if mirrored:
        assert np.array_equal(got.counts, got.counts[::-1])


def test_escape_grid_rows_wider_than_a_tile_match_full_grid():
    # nx above _TILE_PIXELS: each tile is one row, and conjugate rows agree
    scale = 2.5 / 18000
    window = ComplexWindow(-2.0, 0.5, -2 * scale, 2 * scale, scale)
    assert window.nx > fractals._TILE_PIXELS and window.ny == 5
    got = mandelbrot_grid(window, 60)
    assert np.array_equal(got.counts, full_grid_mandelbrot(window, 60).counts)
    assert np.array_equal(got.counts, got.counts[::-1])


@pytest.mark.parametrize(
    "ymin, ymax, scale",
    [
        # samples 4e-9 off mirror symmetry: beyond y_values' tolerance of
        # 1e-6 x scale, so none are mirrored, but within np.allclose's
        (-0.1 + 4e-9, 0.1 + 4e-9, 4e-3),
        # mirrored ends, but the span is not a whole number of pitches
        (-0.1, 0.1, 3e-3),
    ],
)
def test_escape_grid_iterates_every_row_of_a_window_not_exactly_mirrored(ymin, ymax, scale):
    window = ComplexWindow(-0.8, -0.7, ymin, ymax, scale)
    ys = window.y_values()
    assert not np.array_equal(ys, -ys[::-1])
    got = mandelbrot_grid(window, 5000)
    want = full_grid_mandelbrot(window, 5000)
    assert np.array_equal(got.counts, want.counts)
    assert not np.array_equal(want.counts, want.counts[::-1])


def _cardioid_edge(t):
    """The point at angle t on the main cardioid's boundary."""
    return cmath.exp(1j * t) / 2 - cmath.exp(2j * t) / 4


def _bulb_edge(t):
    """The point at angle t on the period-2 bulb's boundary."""
    return -1 + cmath.exp(1j * t) / 4


# (centre, half side, pitch, nmax): zooms across the edge of the skipped
# regions, where orbits converge slowest and escape latest.  The neck, the
# cusp and the bulb edge at -1.25 lie on the real axis, so their windows
# are mirrored too.
BOUNDARY_ZOOMS = {
    "cusp": (0.25 + 0j, 5e-4, 2e-5, 20_000),
    "neck": (-0.75 + 0j, 2.5e-3, 1e-4, 20_000),
    "bulb_edge": (-1.25 + 0j, 2.5e-3, 1e-4, 20_000),
    "cardioid_arc": (_cardioid_edge(1.0), 5e-4, 2e-5, 5_000),
    "bulb_arc": (_bulb_edge(1.0), 5e-4, 2e-5, 5_000),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_ZOOMS))
def test_escape_grid_matches_full_grid_across_the_skipped_regions_edge(name):
    c, half, scale, nmax = BOUNDARY_ZOOMS[name]
    window = ComplexWindow(c.real - half, c.real + half, c.imag - half, c.imag + half, scale)
    assert window.nx * window.ny * nmax <= fractals.MAX_ESCAPE_ITERATES
    got = mandelbrot_grid(window, nmax)
    want = full_grid_mandelbrot(window, nmax)
    assert np.array_equal(got.counts, want.counts)
    # the zoom holds skipped pixels and pixels that escape
    inside = fractals._interior(window.x_values()[None, :], window.y_values()[:, None])
    assert inside.any() and (want.counts < nmax).any()


@settings(max_examples=100, deadline=None)
@given(
    edge=st.one_of(
        st.floats(-math.pi, math.pi).map(_cardioid_edge),
        st.floats(-math.pi, math.pi).map(_bulb_edge),
        st.sampled_from([0.25 + 0j, -0.75 + 0j, -1.25 + 0j]),
    ),
    offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    scale=st.floats(1e-6, 1e-2),
    nx=st.integers(3, 24),
    ny=st.integers(3, 24),
    mirrored=st.booleans(),
    nmax=st.integers(1, 2000),
)
# after iterate 117 pixel (4, 17) is the only live one in its tile; squared
# in place, it got count 1406 where the full grid gives 1407
@example(edge=0.25 + 0j, offset=(0.0, 0.4225116689038404), scale=0.004100583887525776,
         nx=19, ny=12, mirrored=False, nmax=1407)
def test_escape_grid_matches_full_grid_on_windows_straddling_a_region_edge(
    edge, offset, scale, nx, ny, mirrored, nmax
):
    # the edge point lies in the window; a mirrored one keeps only its columns
    xmin = edge.real + (offset[0] - 0.5) * (nx - 1) * scale
    ymin = edge.imag + (offset[1] - 0.5) * (ny - 1) * scale
    window = _window(xmin, ymin, scale, nx, ny, mirrored)
    got = mandelbrot_grid(window, nmax)
    assert np.array_equal(got.counts, full_grid_mandelbrot(window, nmax).counts)


def _contraction(angle, s1, s2, shear, flip):
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    lin = rot @ np.diag([s1, -s2 if flip else s2])
    lin[0, 1] += shear
    return lin


_MAP = st.builds(
    lambda lin, off: (lin, off),
    st.builds(
        _contraction,
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 0.6),
        st.floats(0.0, 0.6),
        st.floats(-0.3, 0.3),
        st.booleans(),
    ),
    st.tuples(st.floats(-0.6, 1.2), st.floats(-0.6, 1.2)),
)


@settings(max_examples=150, deadline=None)
@given(
    maps=st.lists(_MAP, min_size=1, max_size=4),
    height=st.integers(1, 48),
    width=st.integers(1, 48),
    density=st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]),
    seed=st.integers(0, 2 ** 32 - 1),
    steps=st.integers(0, 6),
    band=st.sampled_from([1, 5, 64, 1 << 16]),
)
def test_banded_ifs_pass_matches_full_grid(maps, height, width, density, seed, steps, band):
    system = IfsSystem(maps=tuple(AffineMap2(lin, np.array(off)) for lin, off in maps))
    bits = np.random.default_rng(seed).random((height, width)) < density
    start = BinaryImage(bits=bits)
    with mock.patch.object(fractals, "_BAND_PIXELS", band):
        got = ifs_iterate(system, start, steps)
    want = full_grid_ifs_iterate(system, start, steps)
    assert np.array_equal(got.bits, want.bits)
    assert np.array_equal(start.bits, bits)  # the start is not modified


def test_banded_ifs_pass_matches_full_grid_on_decimal_maps():
    # tenths put many points exactly on, or an ulp off, a pixel edge, where
    # any change in the order of the sums or in the edge test shows
    rng = np.random.default_rng(7)
    for _ in range(400):
        maps = []
        for _ in range(rng.integers(1, 4)):
            linear = rng.integers(-5, 6, (2, 2)) / 10.0
            try:
                maps.append(AffineMap2(linear, rng.integers(-3, 11, 2) / 10.0))
            except DomainError:
                pass
        if not maps:
            continue
        system = IfsSystem(maps=tuple(maps))
        start = BinaryImage.full(*rng.integers(1, 41, 2))
        got = ifs_iterate(system, start, 2)
        assert np.array_equal(got.bits, full_grid_ifs_iterate(system, start, 2).bits)


# diagonal entries: zeros and tiny values of both signs (5e-324 is the least),
# tenths, and anything else strictly inside (-0.99, 0.99)
_SCALE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17]),
    st.integers(-9, 9).map(lambda k: k / 10.0),
    st.floats(-0.99, 0.99),
)
# offsets from well off the square on either side, tenths among them
_OFFSET = st.one_of(st.integers(-12, 20).map(lambda k: k / 10.0), st.floats(-1.5, 2.0))
_DIAGONAL_MAP = st.builds(
    lambda sx, sy, ox, oy: (np.diag([sx, sy]), (ox, oy)), _SCALE, _SCALE, _OFFSET, _OFFSET
)


@settings(max_examples=200, deadline=None)
@given(
    maps=st.lists(st.one_of(_DIAGONAL_MAP, _MAP), min_size=1, max_size=4),
    height=st.integers(1, 48),
    width=st.integers(1, 48),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
    steps=st.integers(0, 6),
    gathers=st.sampled_from([1, 2, 16, 1 << 30]),
)
def test_row_and_column_ifs_pass_matches_full_grid(
    maps, height, width, density, seed, steps, gathers
):
    # the rotated maps take the per-point pass in the same passes
    system = IfsSystem(maps=tuple(AffineMap2(lin, np.array(off)) for lin, off in maps))
    bits = np.random.default_rng(seed).random((height, width)) < density
    start = BinaryImage(bits=bits)
    with mock.patch.object(fractals, "_MAX_GATHERS", gathers):
        got = ifs_iterate(system, start, steps)
    want = full_grid_ifs_iterate(system, start, steps)
    assert np.array_equal(got.bits, want.bits)
    assert np.array_equal(start.bits, bits)  # the start is not modified


def test_row_and_column_ifs_pass_matches_full_grid_on_decimal_diagonal_maps():
    # tenths put many points exactly on, or an ulp off, a pixel edge, where
    # a changed edge test or grouping shows
    rng = np.random.default_rng(11)
    for _ in range(400):
        maps = []
        for _ in range(rng.integers(1, 4)):
            linear = np.diag(rng.integers(-9, 10, 2) / 10.0)
            maps.append(AffineMap2(linear, rng.integers(-10, 16, 2) / 10.0))
        system = IfsSystem(maps=tuple(maps))
        start = BinaryImage(bits=rng.random(rng.integers(1, 41, 2)) < rng.random())
        got = ifs_iterate(system, start, 3)
        assert np.array_equal(got.bits, full_grid_ifs_iterate(system, start, 3).bits)


def test_axis_plan_groups_sources_by_target():
    centres = (np.arange(4) + 0.5) / 4
    # v = 1.25, 1.75, 2.25, 2.75: targets 1, 1, 2, 2
    gathers, targets = fractals._axis_plan(0.5, 0.25, centres)
    assert [g.tolist() for g in gathers] == [[0, 2], [1, 3]] and targets == slice(1, 3)
    # a mirror: v = 3.75, 3.25, 2.75, 2.25, so the sources are sorted by target
    gathers, targets = fractals._axis_plan(-0.5, 1.0, centres)
    assert [g.tolist() for g in gathers] == [[2, 0], [3, 1]] and targets == slice(2, 4)
    # a group of three next to one of one: the short group repeats its last source
    gathers, targets = fractals._axis_plan(0.5, 0.0, (np.arange(5) + 0.5) / 5)
    assert [g.tolist() for g in gathers] == [[0, 2, 4], [1, 3, 4]] and targets == slice(0, 3)
    # every source off the square, or 17 on one target, over _MAX_GATHERS
    assert fractals._axis_plan(0.5, 2.0, centres) is None
    assert fractals._axis_plan(0.0, 0.5, (np.arange(17) + 0.5) / 17) is None


def test_diagonal_map_with_a_gap_in_its_targets_matches_full_grid():
    # a scale an ulp or so below 1 can round one pixel's image past the
    # next: target column 15 receives no source column, so this map takes
    # the per-point pass
    system = IfsSystem(maps=(AffineMap2(np.diag([0.9999999999999994, 0.5]),
                                        np.array([0.19827586206896552, 0.25])),))
    start = BinaryImage.full(58, 7)
    once = ifs_iterate(system, start, 1).bits
    assert not once[:, 15].any() and once[:, 14].any() and once[:, 16].any()
    for steps in (1, 2, 3):
        got = ifs_iterate(system, start, steps)
        assert np.array_equal(got.bits, full_grid_ifs_iterate(system, start, steps).bits)


def _peak_bytes_per_px(fn, pixels):
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / pixels


def test_kernels_peak_at_most_12_bytes_per_pixel():
    window = ComplexWindow(-2.4, 1.2, -1.5, 1.5, 0.0028)
    pixels = window.nx * window.ny
    assert pixels >= 1_000_000
    assert _peak_bytes_per_px(lambda: mandelbrot_grid(window, 30), pixels) <= 12.0
    start = BinaryImage.full(1024, 1024)
    system = sierpinski_ifs()
    assert _peak_bytes_per_px(lambda: ifs_iterate(system, start, 3), 1024 * 1024) <= 12.0
