"""Escape-time rendering, deterministic IFS iteration, and fractal dimension.

The escape grid reproduces the classic meshgrid convention: samples at
lo + k*scale along each axis, endpoints included.  For windows that are
mirror-symmetric about the real axis the imaginary-axis samples are built
by exact negation of the lower half, so conjugate rows carry bitwise-equal
counts (naive repeated addition misses that by 1 ulp on many rows), and
the grid iterates only the lower half and copies it.  Pixels inside the
main cardioid or the period-2 bulb take count nmax without iterating; the
argument that they never escape is in mandelbrot_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, EmptyImage, check_cap, check_count, check_real
from .formats import _Raster

#: Refuse to allocate escape grids beyond this many pixels.  The tiled
#: kernel peaks at about 4.5 bytes per pixel, the int32 counts plus O(tile)
#: (tracemalloc, 1801x1501 at nmax 50), and writing the PGM adds about 5, so
#: a grid at the cap needs about 1 GB.
DEFAULT_MAX_PIXELS = 100_000_000

#: Cap on the escape iterations of mandelbrot_grid, pixels x nmax, checked
#: before anything is allocated.  A live pixel-iteration costs about 4 ns
#: and an iteration at least about 5.5 us however few pixels are live, so a
#: grid is charged as at least _MIN_ESCAPE_PIXELS pixels; a grid at the cap
#: that never escapes takes about 11-20 s (801x801, 32x32 and 3x3 inside the
#: period-3 component near -1.7549, which no shortcut skips).  It also keeps
#: nmax within the int32 counts.
MAX_ESCAPE_ITERATES = 4_000_000_000
_MIN_ESCAPE_PIXELS = 2048

#: Cap on the pixel-steps of ifs_iterate, pixels x n, checked before anything
#: is allocated.  The row-and-column pass costs about 1-1.5 ns per pixel and
#: diagonal map, set or not (sierpinski, 1024^2 to 3500^2, full or one-pixel
#: start), and a pass of three maps at least about 30-40 us however small the
#: image, so an image is charged as at least _MIN_IFS_PIXELS pixels: a
#: sierpinski run at the cap takes about 0.5-7 s, the most at that floor.
#: The per-point pass of three rotated maps costs about 80 ns per pixel of
#: a full image and at least about 90 us, so about 16-18 s at the cap.
MAX_IFS_PIXEL_STEPS = 200_000_000
_MIN_IFS_PIXELS = 1024

#: Pixels per escape-grid tile, rounded down to whole rows (at least one).
_TILE_PIXELS = 1 << 14

#: Relative margin of the cardioid and bulb tests, far above their own
#: rounding (a few ulps) where no term cancels; see mandelbrot_grid.
_INTERIOR_MARGIN = 1e-9

#: Pixels per band of the IFS pass, rounded down to whole rows (at least one).
_BAND_PIXELS = 1 << 16

#: Most sources per target pixel, on either axis, of a diagonal IFS map
#: that takes the row-and-column pass; each costs one gather per pass.
_MAX_GATHERS = 16


@dataclass(frozen=True)
class ComplexWindow:
    """Axis-aligned complex-plane rectangle sampled at a fixed pitch."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    scale: float

    def __post_init__(self):
        for name in ("xmin", "xmax", "ymin", "ymax"):
            check_real(getattr(self, name), name, "(-inf, inf)")
        check_real(self.scale, "scale", "(0, inf)")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise DomainError("window bounds must satisfy xmin < xmax and ymin < ymax")
        check_real((self.xmax - self.xmin) / self.scale, "(xmax - xmin) / scale", "(0, inf)")
        check_real((self.ymax - self.ymin) / self.scale, "(ymax - ymin) / scale", "(0, inf)")
        if self.nx < 3 or self.ny < 3:
            raise DomainError("window must span at least 2 grid pitches per axis")

    @property
    def nx(self) -> int:
        return _axis_samples(self.xmin, self.xmax, self.scale)

    @property
    def ny(self) -> int:
        return _axis_samples(self.ymin, self.ymax, self.scale)

    def x_values(self) -> np.ndarray:
        return self.xmin + self.scale * np.arange(self.nx)

    def y_values(self) -> np.ndarray:
        ys = self.ymin + self.scale * np.arange(self.ny)
        # when the ideal sample set is symmetric about 0, mirror the lower
        # half so y[j] == -y[ny-1-j] bitwise
        if abs(2.0 * self.ymin + (self.ny - 1) * self.scale) < 1e-6 * self.scale:
            half = self.ny // 2
            if self.ny % 2 == 1:
                ys[half] = 0.0
            ys[self.ny - half :] = -ys[:half][::-1]
        return ys


def _axis_samples(lo: float, hi: float, scale: float) -> int:
    # endpoint-inclusive colon-style count, tolerant of 1-ulp shortfalls
    return int(math.floor((hi - lo) / scale + 1e-9)) + 1


@dataclass(frozen=True)
class EscapeGrid(_Raster):
    """Escape iteration counts; rows follow the imaginary axis ascending."""

    _FIELD, _DTYPE = "counts", "int32"
    _SHAPE_ERROR = "counts must be a non-empty 2-D array"
    _VALUE_ERROR = "escape counts must be whole numbers"
    counts: np.ndarray
    nmax: int
    threshold: float
    window: ComplexWindow

    def __post_init__(self):
        super().__post_init__()
        if not (self.counts.min() >= 1 and self.counts.max() <= self.nmax):
            raise DomainError("escape counts must lie in [1, nmax]")


def _interior(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether c = x + iy passes the main cardioid test, q(q + x - 1/4) <
    y^2/4 with q = (x - 1/4)^2 + y^2, or the period-2 bulb test,
    (x + 1)^2 + y^2 < 1/16, each with the right side shrunk by
    _INTERIOR_MARGIN.  x and y broadcast together."""
    a = x - 0.25
    yy = y * y
    q = a * a + yy
    cardioid = q * (q + a) < (0.25 * (1.0 - _INTERIOR_MARGIN)) * yy
    return cardioid | ((x + 1.0) * (x + 1.0) + yy < (1.0 - _INTERIOR_MARGIN) / 16.0)


def mandelbrot_grid(
    window: ComplexWindow,
    nmax: int,
    threshold: float = 4.0,
) -> EscapeGrid:
    """Escape-time counts for w <- w^2 + z over the sampled window.

    A point's count is the first N (1-based, tested after the square-add)
    with |w_N| > threshold; points that never escape within nmax iterations
    carry count nmax.  threshold must be at least 2, the proven escape
    radius.  A grid over DEFAULT_MAX_PIXELS pixels, or over
    MAX_ESCAPE_ITERATES pixel-iterations, raises GridTooLarge.  Then a
    window whose x_values() or y_values() are not strictly increasing, a
    scale too fine for float64 at its bounds, raises DomainError.

    The grid is walked in tiles of whole rows.  Each tile iterates only its
    active pixels, as compacted flat index, z and w arrays, so memory is the
    int32 counts plus O(tile) and the work follows the useful iterations.
    Every active pixel sees the same float operations as a full-grid update,
    on the condition that w is squared out of place.  On an AVX-512 CPU,
    numpy 2.4.6 squares a one-element complex array into itself (np.square
    or np.multiply with out=w) by a non-FMA loop, and an array of any other
    length, or any square out of place, by the FMA loop; a pixel that is
    the only live one in its array would get other bits.
    Two kinds of pixel are never iterated, and neither changes a count:

    Mirrored rows.  When the imaginary samples satisfy ys == -ys[::-1]
    exactly, only the lower ceil(ny/2) rows are iterated and the upper
    rows are copied from them.  Negating the imaginary parts of w and z
    negates the imaginary part of w^2 + z and keeps its real part, in
    numpy's complex square and add with or without FMA, because each
    product and sum rounds symmetrically; only the sign of a zero can
    differ, and neither later products nor |w| see it.  So a conjugate
    pixel has the conjugate orbit, the same moduli and the same count.

    The interior (_interior).  Pixels inside the main cardioid or the
    period-2 bulb keep count nmax.  What is proven:
    - For c in either closed region, c lies in the Mandelbrot set, and the
      exact orbit of 0 stays in the filled Julia set K_c, which lies in
      |w| <= 1/2 + sqrt(1/4 + |c|): beyond that radius |w^2 + c| >=
      |w|^2 - |c| > |w|, and the orbit grows without bound.  The cardioid
      has |c| <= 3/4 and the bulb |c| <= 5/4, so the exact orbit stays
      within 1/2 + sqrt(3/2) < 1.725 < 2 <= threshold.
    - Each float step rounds w^2 + c within a few ulps of |w|^2 + |c|,
      about 1e-15 at most.  In the cardioid, c = lam/2 - lam^2/4, where
      lam is the multiplier of the attracting fixed point w* = lam/2, and
      f(w) - w* = (w - w*)(w + w*).  Where |lam| <= 0.6, the disc
      |w - w*| < 0.35 holds 0, and f maps it into the disc of radius
      0.35 (|lam| + 0.35) <= 0.3325: a slack of 0.0175 that rounding cannot
      use up, so the float orbit stays within |w| < 0.65.
    - Nearer the cardioid's boundary, and in the whole bulb, this is not
      proven.  There the attraction weakens as |lam| nears 1, and that
      rounding never carries the float orbit across the Julia set, out of
      K_c, rests on measurement: the boundary zooms of the tests compare
      every count with a full-grid iteration at high nmax.
    - The tests themselves are floats.  Every operation rounds within half
      an ulp, so where no sum cancels each side is within a few ulps, and
      the margin of 1e-9 keeps a passing pixel inside the exact region.
      Only q + (x - 1/4) can cancel, on the circle |c + 1/4| = 1/2 inside
      the cardioid, which meets its boundary only at the cusp 1/4 and the
      neck -3/4.  At the cusp the outside has x > 1/4, where the sum does
      not cancel.  Near the neck the test may pass a pixel outside the
      cardioid by less than about 1e-15; such a c escapes, if at all,
      after about pi / sqrt(distance) iterations (a heuristic from the
      parabolic point), far beyond any nmax the cap allows.
    """
    nmax = check_count(nmax, "nmax", 1)
    check_real(threshold, "threshold", "[2, inf)")
    nx, ny = window.nx, window.ny
    check_cap(nx * ny, DEFAULT_MAX_PIXELS, f"{nx}x{ny} grid", "pixel")
    check_cap(max(nx * ny, _MIN_ESCAPE_PIXELS) * nmax, MAX_ESCAPE_ITERATES,
              f"max({nx}x{ny}, {_MIN_ESCAPE_PIXELS}) pixels x nmax {nmax}", "iteration")

    xs, ys = window.x_values(), window.y_values()
    for axis, values in (("x", xs), ("y", ys)):
        if not (values[1:] > values[:-1]).all():
            raise DomainError(f"the window's {axis} values are not strictly increasing: "
                              f"scale {window.scale!r} is below float64's resolution there")
    counts = np.full((ny, nx), nmax, dtype=np.int32)
    flat_counts = counts.reshape(-1)
    mirrored = np.array_equal(ys, -ys[::-1])
    rows = (ny + 1) // 2 if mirrored else ny
    rows_per_tile = max(1, _TILE_PIXELS // nx)
    for r0 in range(0, rows, rows_per_tile):
        r1 = min(rows, r0 + rows_per_tile)
        # the active set of one tile: flat pixel index, c and the iterate
        outside = ~_interior(xs[None, :], ys[r0:r1, None]).ravel()
        idx = np.flatnonzero(outside) + r0 * nx
        live = len(idx)
        if not live:
            continue
        z = (xs[None, :] + 1j * ys[r0:r1, None]).ravel()[outside]
        w = np.zeros_like(z)
        for n in range(1, nmax + 1):
            w = np.square(w)
            w += z
            out = np.flatnonzero(np.abs(w) > threshold)
            if len(out):
                flat_counts[idx[out]] = n
                live -= len(out)
                if not live:
                    break
                # park escaped pixels at w = z = 0, a fixed point that never
                # escapes, and drop them once they are a quarter of the set
                idx[out] = -1
                w[out] = 0.0
                z[out] = 0.0
                if 4 * live <= 3 * len(idx):
                    keep = idx >= 0
                    idx, z, w = idx[keep], z[keep], w[keep]
    if mirrored:
        half = ny // 2
        counts[ny - half :] = counts[:half][::-1]
    return EscapeGrid(counts=counts, nmax=nmax, threshold=threshold, window=window)


@dataclass(frozen=True)
class AffineMap2:
    """Contractive planar affine map p -> linear @ p + offset."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=np.float64))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=np.float64))
        if self.linear.shape != (2, 2) or self.offset.shape != (2,):
            raise DomainError("need a 2x2 linear part and a 2-vector offset")
        if not (np.isfinite(self.linear).all() and np.isfinite(self.offset).all()):
            raise DomainError("map entries must be finite")
        if _spectral_norm(*self.linear.ravel().tolist()) >= 1.0:
            raise DomainError("map is not contractive (operator norm >= 1)")


def _spectral_norm(a: float, b: float, c: float, d: float) -> float:
    """Largest singular value of [[a, b], [c, d]] in closed form.

    The matrix splits into a rotation-scaling and a reflection-scaling part,
    whose scales add: sigma_max = (|(a+d, c-b)| + |(a-d, b+c)|) / 2.  A few
    ulps from the exact value, with no LAPACK call whose result could depend
    on the build.
    """
    return 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, b + c))


@dataclass(frozen=True)
class IfsSystem:
    """A non-empty collection of contractive maps; their union drives iteration."""

    maps: Tuple[AffineMap2, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise DomainError("an IFS needs at least one map")


def sierpinski_ifs() -> IfsSystem:
    """Three half-scale copies: two along the bottom, one centered on top."""
    half = 0.5 * np.eye(2)
    return IfsSystem(
        maps=(
            AffineMap2(half, np.array([0.0, 0.0])),
            AffineMap2(half, np.array([0.5, 0.0])),
            AffineMap2(half, np.array([0.25, 0.5])),
        )
    )


IFS_PRESETS = {"sierpinski": sierpinski_ifs}


@dataclass(frozen=True)
class BinaryImage(_Raster):
    """Boolean raster over the unit square; row j covers y in [j/h, (j+1)/h)."""

    _FIELD, _DTYPE = "bits", "bool"
    _SHAPE_ERROR = "bits must be a non-empty 2-D boolean array"
    _VALUE_ERROR = "bits must be 0 or 1"
    bits: np.ndarray

    @classmethod
    def full(cls, width: int, height: int) -> "BinaryImage":
        return cls(bits=np.ones((height, width), dtype=bool))


def _axis_plan(scale: float, offset: float, centres: np.ndarray):
    """The rows or columns of a diagonal map as (gathers, targets), or None.

    targets is the slice of pixels that in-range sources land on.  gathers[j]
    holds the j-th source of each target's group, in target order, repeating
    a group's last source once the group runs out, so OR-ing the gathers
    over j ORs each group.  None keeps the map on the per-point pass: no
    source lands on the square, over _MAX_GATHERS land on one target, or a
    target that no source lands on lies between two that some do.
    """
    size = len(centres)
    v = (scale * centres + offset) * size
    src = np.flatnonzero((v >= 0.0) & (v < size))
    if not len(src):
        return None
    tgt = v[src].astype(np.intp)
    order = np.argsort(tgt, kind="stable")
    src, tgt = src[order], tgt[order]
    first = np.flatnonzero(np.diff(tgt, prepend=-1))
    last = np.append(first[1:], len(src)) - 1
    depth = int((last - first).max()) + 1
    if depth > _MAX_GATHERS or tgt[-1] - tgt[0] + 1 != len(first):
        return None
    return [src[np.minimum(first + j, last)] for j in range(depth)], slice(tgt[0], tgt[-1] + 1)


def ifs_iterate(system: IfsSystem, start: BinaryImage, n: int) -> BinaryImage:
    """Apply the union-of-maps operator n times, rasterized on the start's grid.

    Each pass forward-maps the world centers of set pixels through every map
    and writes the nearest pixel; points leaving the unit square are dropped.

    A diagonal map (zero off-diagonal entries, as in every preset) moves
    rows and columns on their own: pixel (r, c) lands on (Y[r], X[c]), where
    X[c] truncates v = (l00*cx[c] + o0)*w and exists only if 0 <= v < w, and
    Y likewise.  That v is the per-point one without its zero cross term.
    Leaving out a sum with a zero can change only the sign of a zero, and
    neither the range test nor truncation sees that sign, so the bits are
    the same.  A pass ORs each group of source rows with one target row by
    whole-row gathers, then each group of columns by column gathers, and
    ORs that block into the target rows and columns: O(pixels) boolean work,
    set or not, and at most _MAX_GATHERS gathers per axis.

    Other maps take the per-point pass, and so does a diagonal map with
    more than _MAX_GATHERS sources on one target or a gap in its targets.
    Set pixels are gathered in bands of whole rows, and each map's products
    come from per-column and per-row tables, so a pass holds O(band) points
    besides the two rasters and does the arithmetic of a per-point pass.
    Runs over MAX_IFS_PIXEL_STEPS pixel-steps raise GridTooLarge.
    """
    n = check_count(n, "n", 0)
    h, w = start.bits.shape
    check_cap(max(h * w, _MIN_IFS_PIXELS) * n, MAX_IFS_PIXEL_STEPS,
              f"max({w}x{h}, {_MIN_IFS_PIXELS}) pixels x {n} steps", "pixel-step")
    bits = start.bits.copy()
    cx = (np.arange(w) + 0.5) / w
    cy = (np.arange(h) + 0.5) / h
    blocks, tables = [], []
    for m in system.maps:
        plan = None
        if m.linear[0, 1] == 0.0 and m.linear[1, 0] == 0.0:
            rows = _axis_plan(m.linear[1, 1], m.offset[1], cy)
            cols = _axis_plan(m.linear[0, 0], m.offset[0], cx)
            plan = None if rows is None or cols is None else (*rows, *cols)
        if plan is None:
            # (l00*cx, l10*cx) per column and (l01*cy, l11*cy) per row, so a
            # point's tx = l00*cx + l01*cy + o0 is the same two products
            # summed in order
            tables.append(
                (m.linear[0, 0] * cx, m.linear[1, 0] * cx, m.linear[0, 1] * cy,
                 m.linear[1, 1] * cy, m.offset[0], m.offset[1])
            )
        else:
            blocks.append(plan)
    rows_per_band = max(1, _BAND_PIXELS // w)
    bands = range(0, h, rows_per_band) if tables else range(0)
    for _ in range(n):
        nxt = np.zeros((h, w), dtype=bool)
        for row_gathers, row_targets, col_gathers, col_targets in blocks:
            block = bits[row_gathers[0]]
            for src in row_gathers[1:]:
                block |= bits[src]
            out = block.take(col_gathers[0], axis=1)
            for src in col_gathers[1:]:
                out |= block.take(src, axis=1)
            nxt[row_targets, col_targets] |= out
        flat = nxt.reshape(-1)
        for r0 in bands:
            rows, cols = np.nonzero(bits[r0 : r0 + rows_per_band])
            rows += r0
            for xc, yc, xr, yr, ox, oy in tables:
                # 0 <= v < size is 0 <= floor(v) < size for an integer size,
                # and truncation is floor once v >= 0
                vx = (xc[cols] + xr[rows]) + ox
                vx *= w
                vy = (yc[cols] + yr[rows]) + oy
                vy *= h
                ok = (vx >= 0.0) & (vx < w) & (vy >= 0.0) & (vy < h)
                flat[vy[ok].astype(np.intp) * w + vx[ok].astype(np.intp)] = True
        bits = nxt
    return BinaryImage(bits=bits)


def __getattr__(name):
    # similarity_dimension, from the numpy-free module that simdim loads; looked
    # up when asked for, so that a wrapper installed on it is never kept here
    if name == "similarity_dimension":
        from .similarity import similarity_dimension

        return similarity_dimension
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def box_count_dimension(
    image: BinaryImage, min_exponent: int, max_exponent: int
) -> Tuple[float, List[Tuple[float, float]]]:
    """Box-counting slope fit over dyadic box sizes.

    For each exponent k the image is covered by boxes of ceil(dim / 2**k)
    pixels on a grid anchored at the origin (dim is the larger image side);
    the estimate is the least-squares slope of ln(count) against k ln 2, by
    integrate._slope.  Returns it and the fitted (ln 2**k, ln count) points.
    """
    from .integrate import _slope

    min_exponent = check_count(min_exponent, "min_exponent", 1)
    max_exponent = check_count(max_exponent, "max_exponent", min_exponent + 1)
    bits = image.bits
    if not bits.any():
        raise EmptyImage("box counting needs at least one set pixel")
    # min_side >> k == 0 is 2**k > min_side, without building 2**k
    if min(image.width, image.height) >> max_exponent == 0:
        raise DomainError("2**max_exponent exceeds the smaller image side")

    dim = max(image.width, image.height)
    pts = []
    for k in range(min_exponent, max_exponent + 1):
        side = -(-dim // (2 ** k))  # ceil division
        rows = np.logical_or.reduceat(bits, np.arange(0, image.height, side), axis=0)
        occupied = np.logical_or.reduceat(rows, np.arange(0, image.width, side), axis=1)
        pts.append((k * math.log(2.0), math.log(int(occupied.sum()))))
    return _slope([p[1] for p in pts], math.log(2.0)), pts
