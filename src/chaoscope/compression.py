"""Fractal (PIFS) image codec: contractive block transforms over one image.

Encoding maps every range block to the best (domain block, isometry,
contrast, brightness) combination; decoding iterates the full transform set
from any start image until the shared fixed point emerges.

All encoder error comparisons happen in exact integer arithmetic.  With
s = s_q/63 and the domain downsample D^ = S/4 (S the 2x2 pixel sums), the
residual scaled by 252 is s_q*S_i + 252*o_q - 252*R_i, an integer, so the
squared error scaled by 252^2 is an exact int64.  Ties are broken by the
lowest (domain_y, domain_x, isometry, s_q, o_q) tuple, which makes encodes
reproducible bit-for-bit and testable against brute force.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionError,
    DimensionMismatch,
    DomainError,
    FormatError,
    ImageTooSmall,
)

MAGIC = b"FIC1"
_HEADER = struct.Struct("<4sHHBB")
_TRANSFORM = struct.Struct("<HHBbh")

#: Scale factor that turns residuals into integers: 63 (contrast grid) * 4
#: (domain downsample denominator).
_SCALE = 252

PSNR_CAP_DB = 99.0


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster; pixels[0] is the top row."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint8))
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise DomainError("pixels must be a non-empty 2-D uint8 array")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def constant(cls, width: int, height: int, value: int) -> "GrayImage":
        return cls(pixels=np.full((height, width), value, dtype=np.uint8))


@dataclass(frozen=True)
class RangeTransform:
    """One range block's source and gray-axis map: pixel = s * D^ + o."""

    domain_x: int
    domain_y: int
    isometry: int
    s_q: int  # contrast, stored as round(s * 63), |s_q| <= 63
    o_q: int  # brightness offset in gray levels, [-255, 255]

    def __post_init__(self):
        if not (0 <= self.isometry <= 7):
            raise DomainError("isometry index must lie in [0, 7]")
        if not (-63 <= self.s_q <= 63):
            raise DomainError("quantized contrast must lie in [-63, 63]")
        if not (-255 <= self.o_q <= 255):
            raise DomainError("quantized offset must lie in [-255, 255]")

    @property
    def s(self) -> float:
        return self.s_q / 63.0

    @property
    def o(self) -> float:
        return float(self.o_q)


def _check_blocks(width: int, height: int, range_size: int) -> None:
    """An image must tile into range blocks and fit one 2*range_size domain."""
    if range_size < 1:
        raise DomainError(f"range_size must be positive, got {range_size}")
    if width % range_size or height % range_size:
        raise DimensionError(
            f"{width}x{height} image is not divisible by range_size {range_size}"
        )
    dsize = 2 * range_size
    if width < dsize or height < dsize:
        raise ImageTooSmall(f"no {dsize}x{dsize} domain block fits in {width}x{height}")


@dataclass(frozen=True)
class PifsCode:
    """The compressed image: one transform per range block, row-major."""

    width: int
    height: int
    range_size: int
    transforms: Tuple[RangeTransform, ...]

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        _check_blocks(self.width, self.height, self.range_size)
        expected = (self.width // self.range_size) * (self.height // self.range_size)
        if len(self.transforms) != expected:
            raise DomainError(
                f"expected {expected} transforms, got {len(self.transforms)}"
            )
        dsize = 2 * self.range_size
        for t in self.transforms:
            if t.domain_x + dsize > self.width or t.domain_y + dsize > self.height:
                raise DomainError(
                    f"domain block at ({t.domain_x}, {t.domain_y}) leaves the image"
                )

    def to_bytes(self) -> bytes:
        out = [_HEADER.pack(MAGIC, self.width, self.height, self.range_size, 0)]
        for t in self.transforms:
            out.append(
                _TRANSFORM.pack(t.domain_x, t.domain_y, t.isometry, t.s_q, t.o_q)
            )
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PifsCode":
        """Parse a ``FIC1`` container; any defect raises FormatError."""
        if len(data) < _HEADER.size:
            raise FormatError("truncated transform container")
        magic, width, height, range_size, _ = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise FormatError(f"bad container magic {magic!r}")
        body = data[_HEADER.size :]
        if len(body) % _TRANSFORM.size != 0:
            raise FormatError("transform payload has a partial record")
        try:
            transforms = [
                RangeTransform(*_TRANSFORM.unpack_from(body, off))
                for off in range(0, len(body), _TRANSFORM.size)
            ]
            return cls(
                width=width, height=height, range_size=range_size, transforms=transforms
            )
        except DomainError as exc:
            raise FormatError(f"invalid transform container: {exc}") from None


def apply_isometry(block: np.ndarray, t: int) -> np.ndarray:
    """Dihedral-group element t in [0, 7]: rotations, then mirrored rotations."""
    if t < 4:
        return np.rot90(block, t)
    return np.rot90(np.fliplr(block), t - 4)


def _downsample_sums(block: np.ndarray) -> np.ndarray:
    """2x2 pixel sums (values 0..1020); divide by 4 for the actual average."""
    h, w = block.shape
    return (
        block.astype(np.int64)
        .reshape(h // 2, 2, w // 2, 2)
        .sum(axis=(1, 3))
    )


def _domain_origins(width: int, height: int, range_size: int, domain_step: int):
    dsize = 2 * range_size
    ys = range(0, height - dsize + 1, domain_step)
    xs = range(0, width - dsize + 1, domain_step)
    return [(dy, dx) for dy in ys for dx in xs]


def pifs_encode(
    image: GrayImage,
    range_size: int = 8,
    domain_step: int = 8,
    s_max: float = 1.0,
) -> PifsCode:
    """Encode an image as one contractive transform per range block.

    Domain blocks are 2*range_size squares stepped by domain_step and
    downsampled by 2x2 averaging; all 8 isometries are candidates.  For each
    range block the encoder minimizes the exact squared error over every
    quantized (s_q, o_q) pair with |s_q/63| <= s_max, which makes the result
    the true integer-grid optimum.
    """
    if domain_step < 1:
        raise DomainError("domain_step must be positive")
    if not (0.0 <= s_max <= 1.0):
        raise DomainError("s_max must lie in [0, 1]")
    _check_blocks(image.width, image.height, range_size)

    dsize = 2 * range_size
    n = range_size * range_size
    origins = _domain_origins(image.width, image.height, range_size, domain_step)
    px = image.pixels

    # candidate pool: (domain row-major) x (isometry 0..7), flattened blocks
    cand = np.empty((len(origins) * 8, n), dtype=np.int64)
    for d, (dy, dx) in enumerate(origins):
        sums = _downsample_sums(px[dy : dy + dsize, dx : dx + dsize])
        for t in range(8):
            cand[d * 8 + t] = apply_isometry(sums, t).ravel()
    sd = cand.sum(axis=1)
    sd2 = (cand * cand).sum(axis=1)

    s_cap = min(63, int(np.floor(63.0 * s_max + 1e-9)))
    s_grid = np.arange(-s_cap, s_cap + 1, dtype=np.int64)

    nby = image.height // range_size
    nbx = image.width // range_size
    ranges = np.empty((nby * nbx, n), dtype=np.int64)
    for ry in range(nby):
        for rx in range(nbx):
            block = px[
                ry * range_size : (ry + 1) * range_size,
                rx * range_size : (rx + 1) * range_size,
            ]
            ranges[ry * nbx + rx] = block.astype(np.int64).ravel()
    cross_all = cand @ ranges.T  # (candidates, range blocks)

    transforms: List[RangeTransform] = []
    for b in range(nby * nbx):
        r = ranges[b]
        sr = int(r.sum())
        sr2 = int((r * r).sum())
        cross = cross_all[:, b][:, None]  # (C, 1)
        s = s_grid[None, :]  # (1, S)
        # optimal real offset o* = (252*sr - s*sd) / (252*n); test floor and
        # floor+1 since the error is convex in o on the integer grid
        num = 252 * sr - s * sd[:, None]
        o_f = num // (252 * n)
        best_err = None
        best_o = None
        for o_cand in (o_f, o_f + 1):
            o = np.clip(o_cand, -255, 255)
            big_o = _SCALE * o
            err = (
                s * s * sd2[:, None]
                + n * big_o * big_o
                + (_SCALE * _SCALE) * sr2
                + 2 * s * big_o * sd[:, None]
                - 2 * (_SCALE * s) * cross
                - 2 * (_SCALE * big_o) * sr
            )
            if best_err is None:
                best_err, best_o = err, o
            else:
                take = err < best_err  # strict: ties keep the smaller o
                best_err = np.where(take, err, best_err)
                best_o = np.where(take, o, best_o)
        flat = int(np.argmin(best_err))  # first minimum: lowest (dy,dx,iso,s_q)
        c_idx, s_idx = divmod(flat, len(s_grid))
        dy, dx = origins[c_idx // 8]
        transforms.append(
            RangeTransform(
                domain_x=dx,
                domain_y=dy,
                isometry=c_idx % 8,
                s_q=int(s_grid[s_idx]),
                o_q=int(best_o[c_idx, s_idx]),
            )
        )
    return PifsCode(
        width=image.width,
        height=image.height,
        range_size=range_size,
        transforms=transforms,
    )


def pifs_decode(
    code: PifsCode, iterations: int, start: Optional[GrayImage] = None
) -> GrayImage:
    """Iterate the transform set from a start image (default mid-gray 128).

    Every pass reads only the previous image (double-buffered), writes
    clamp(round(s * D^ + o)) into each range block, and feeds the result
    back in; the iterates converge to the encoded fixed point regardless
    of the start.
    """
    if iterations < 1:
        raise DomainError("iterations must be at least 1")
    if start is None:
        img = np.full((code.height, code.width), 128, dtype=np.uint8)
    else:
        if start.width != code.width or start.height != code.height:
            raise DimensionMismatch(
                f"start image {start.width}x{start.height} does not match "
                f"code {code.width}x{code.height}"
            )
        img = start.pixels.copy()

    rs = code.range_size
    dsize = 2 * rs
    nbx = code.width // rs
    for _ in range(iterations):
        nxt = np.empty_like(img)
        for i, t in enumerate(code.transforms):
            ry, rx = divmod(i, nbx)
            domain = img[t.domain_y : t.domain_y + dsize, t.domain_x : t.domain_x + dsize]
            dhat = _downsample_sums(domain).astype(np.float64) / 4.0
            block = apply_isometry(dhat, t.isometry)
            vals = np.clip(np.rint(t.s * block + t.o), 0.0, 255.0)
            nxt[ry * rs : (ry + 1) * rs, rx * rs : (rx + 1) * rs] = vals.astype(
                np.uint8
            )
        img = nxt
    return GrayImage(pixels=img)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB, capped at PSNR_CAP_DB for equal images."""
    if a.width != b.width or a.height != b.height:
        raise DimensionMismatch(
            f"{a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * np.log10(255.0 * 255.0 / mse)
