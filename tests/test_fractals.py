import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope.errors import DomainError, EmptyImage, GridTooLarge
from chaoscope.fractals import (
    AffineMap2,
    BinaryImage,
    ComplexWindow,
    IfsSystem,
    box_count_dimension,
    ifs_iterate,
    mandelbrot_grid,
    sierpinski_ifs,
    similarity_dimension,
)

CLASSIC_WINDOW = ComplexWindow(-2.4, 1.2, -1.5, 1.5, 0.005)


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


def test_mandelbrot_preconditions():
    with pytest.raises(DomainError):
        mandelbrot_grid(CLASSIC_WINDOW, 50, 1.9)
    with pytest.raises(DomainError):
        mandelbrot_grid(CLASSIC_WINDOW, 0, 4.0)
    with pytest.raises(GridTooLarge):
        mandelbrot_grid(CLASSIC_WINDOW, 50, 4.0, max_pixels=1000)


def test_affine_map_contractivity_enforced():
    with pytest.raises(DomainError):
        AffineMap2(np.eye(2), np.zeros(2))
    AffineMap2(0.999 * np.eye(2), np.zeros(2))
    with pytest.raises(DomainError):
        IfsSystem(maps=())


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
    estimate, pts = box_count_dimension(BinaryImage.full(1024, 1024), 1, 6)
    assert abs(estimate - 2.0) <= 0.01
    assert len(pts) == 6
    # every box is occupied: counts are exactly 4^k
    for (lx, ly), k in zip(pts, range(1, 7)):
        assert lx == k * math.log(2.0)
        assert abs(ly - math.log(4.0 ** k)) < 1e-12


def test_box_count_single_pixel():
    bits = np.zeros((512, 512), dtype=bool)
    bits[17, 403] = True
    estimate, _ = box_count_dimension(BinaryImage(bits=bits), 1, 6)
    assert abs(estimate) <= 0.05


def test_box_count_sierpinski(sierpinski_depth7):
    estimate, _ = box_count_dimension(sierpinski_depth7, 2, 7)
    assert abs(estimate - similarity_dimension(3, 0.5)) <= 0.08


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
