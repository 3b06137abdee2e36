"""Escape-time rendering, deterministic IFS iteration, and fractal dimension.

The escape grid reproduces the classic meshgrid convention: samples at
lo + k*scale along each axis, endpoints included.  For windows that are
mirror-symmetric about the real axis the imaginary-axis samples are built
by exact negation of the lower half, so conjugate rows carry bitwise-equal
counts (naive repeated addition misses that by 1 ulp on many rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, EmptyImage, GridTooLarge

#: Refuse to allocate escape grids beyond this many pixels.
DEFAULT_MAX_PIXELS = 100_000_000


@dataclass(frozen=True)
class ComplexWindow:
    """Axis-aligned complex-plane rectangle sampled at a fixed pitch."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    scale: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise DomainError("window bounds must satisfy xmin < xmax and ymin < ymax")
        if not self.scale > 0.0:
            raise DomainError("scale must be positive")
        if not (
            math.isfinite((self.xmax - self.xmin) / self.scale)
            and math.isfinite((self.ymax - self.ymin) / self.scale)
        ):
            raise DomainError("window bounds and their spans in pitches must be finite")
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
class EscapeGrid:
    """Escape iteration counts; rows follow the imaginary axis ascending."""

    counts: np.ndarray
    nmax: int
    threshold: float
    window: ComplexWindow

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int32))
        if self.counts.ndim != 2:
            raise DomainError("counts must be a 2-D array")
        if self.counts.size and not (
            self.counts.min() >= 1 and self.counts.max() <= self.nmax
        ):
            raise DomainError("escape counts must lie in [1, nmax]")


def mandelbrot_grid(
    window: ComplexWindow,
    nmax: int,
    threshold: float = 4.0,
    max_pixels: int = DEFAULT_MAX_PIXELS,
) -> EscapeGrid:
    """Escape-time counts for w <- w^2 + z over the sampled window.

    A point's count is the first N (1-based, tested after the square-add)
    with |w_N| > threshold; points that never escape within nmax iterations
    carry count nmax.  threshold must be at least 2, the proven escape
    radius.
    """
    if nmax < 1:
        raise DomainError("nmax must be a positive integer")
    if threshold < 2.0:
        raise DomainError(f"threshold must be >= 2, got {threshold}")
    nx, ny = window.nx, window.ny
    if nx * ny > max_pixels:
        raise GridTooLarge(f"{nx}x{ny} grid exceeds the {max_pixels}-pixel cap")

    z = window.x_values()[None, :] + 1j * window.y_values()[:, None]
    w = np.zeros_like(z)
    counts = np.full(z.shape, nmax, dtype=np.int32)
    active = np.ones(z.shape, dtype=bool)
    for n in range(1, nmax + 1):
        w[active] = w[active] ** 2 + z[active]
        escaped = active & (np.abs(w) > threshold)
        counts[escaped] = n
        active &= ~escaped
        if not active.any():
            break
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
        if np.linalg.norm(self.linear, 2) >= 1.0:
            raise DomainError("map is not contractive (operator norm >= 1)")


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
class BinaryImage:
    """Boolean raster over the unit square; row j covers y in [j/h, (j+1)/h)."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=bool))
        if self.bits.ndim != 2 or self.bits.size == 0:
            raise DomainError("bits must be a non-empty 2-D boolean array")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def full(cls, width: int, height: int) -> "BinaryImage":
        return cls(bits=np.ones((height, width), dtype=bool))


def ifs_iterate(system: IfsSystem, start: BinaryImage, n: int) -> BinaryImage:
    """Apply the union-of-maps operator n times, rasterized on the start's grid.

    Each pass forward-maps the world centers of set pixels through every map
    and writes the nearest pixel; points leaving the unit square are dropped.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    bits = start.bits.copy()
    h, w = bits.shape
    for _ in range(n):
        rows, cols = np.nonzero(bits)
        nxt = np.zeros_like(bits)
        if len(rows):
            cx = (cols + 0.5) / w
            cy = (rows + 0.5) / h
            for m in system.maps:
                tx = m.linear[0, 0] * cx + m.linear[0, 1] * cy + m.offset[0]
                ty = m.linear[1, 0] * cx + m.linear[1, 1] * cy + m.offset[1]
                px = np.floor(tx * w).astype(np.int64)
                py = np.floor(ty * h).astype(np.int64)
                ok = (px >= 0) & (px < w) & (py >= 0) & (py < h)
                nxt[py[ok], px[ok]] = True
        bits = nxt
    return BinaryImage(bits=bits)


def similarity_dimension(n_copies: int, ratio: float) -> float:
    """Dimension D with n_copies * ratio**D == 1 for a self-similar set."""
    if n_copies < 1:
        raise DomainError("n_copies must be a positive integer")
    if not (0.0 < ratio < 1.0):
        raise DomainError(f"ratio must lie in (0, 1), got {ratio}")
    return -math.log(n_copies) / math.log(ratio)


def box_count_dimension(
    image: BinaryImage, min_exponent: int, max_exponent: int
) -> Tuple[float, List[Tuple[float, float]]]:
    """Box-counting slope fit over dyadic box sizes.

    For each exponent k the image is covered by boxes of ceil(dim / 2**k)
    pixels on a grid anchored at the origin (dim is the larger image side);
    the estimate is the least-squares slope of ln(count) against ln(2**k).
    Returns the slope and the fitted (ln 2**k, ln count) points.
    """
    bits = image.bits
    if not bits.any():
        raise EmptyImage("box counting needs at least one set pixel")
    if not (1 <= min_exponent < max_exponent):
        raise DomainError("need 1 <= min_exponent < max_exponent")
    if 2 ** max_exponent > min(image.width, image.height):
        raise DomainError("2**max_exponent exceeds the smaller image side")

    dim = max(image.width, image.height)
    pts = []
    for k in range(min_exponent, max_exponent + 1):
        side = -(-dim // (2 ** k))  # ceil division
        nby = -(-image.height // side)
        nbx = -(-image.width // side)
        padded = np.zeros((nby * side, nbx * side), dtype=bool)
        padded[: image.height, : image.width] = bits
        occupied = padded.reshape(nby, side, nbx, side).any(axis=(1, 3))
        pts.append((k * math.log(2.0), math.log(int(occupied.sum()))))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, pts
