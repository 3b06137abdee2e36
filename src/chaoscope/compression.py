"""Fractal (PIFS) image codec: contractive block transforms over one image.

Encoding maps every range block to the best (domain block, isometry,
contrast, brightness) combination; decoding iterates the full transform set
from a start image, and ends in a fixed point or a short cycle of uint8
images (see pifs_decode).

All encoder error comparisons happen in exact integer arithmetic.  With
s = s_q/63 and the domain downsample D^ = S/4 (S the 2x2 pixel sums), the
residual scaled by 252 is s_q*S_i + 252*o_q - 252*R_i, an integer, so the
squared error scaled by 252^2 is an exact int64.  Ties are broken by the
lowest (domain_y, domain_x, isometry, s_q, o_q) tuple, which makes encodes
reproducible bit-for-bit and testable against brute force.

The search is exact but pruned (Fisher (ed.), *Fractal Image Compression*,
1995, ch. 2-3).  For each range block, every candidate's unconstrained real
least-squares residual, 252^2 * (varR - cov^2/varD) / n, is a lower bound on
its integer error.  Only candidates whose bound is at most U, the exact
best error of the candidate with the smallest bound, plus a margin for
float64 rounding are scanned exactly.  Since no candidate that can reach the
optimum, or tie with it, is skipped, the codes are byte-identical to an
exhaustive scan (see ``pifs_encode``).  The search runs on a tile of range
blocks at a time: one float64 matrix product gives every cross product of
the tile, exactly, since each is an integer below 2^53, so the codes do not
depend on the BLAS, its CPU kernels or its thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    DimensionMismatch,
    DomainError,
    FormatError,
    ImageTooSmall,
    check_cap,
    check_count,
    check_real,
)
from .formats import GrayImage

MAGIC = b"FIC1"
_HEADER = struct.Struct("<4sHHBB")

#: One range transform, exactly as a ``FIC1`` record stores it: the domain
#: block's top-left corner, the isometry index in [0, 7], the contrast
#: s_q = round(s * 63) in [-63, 63] and the offset o_q in gray levels, in
#: [-255, 255].  Decoding writes clamp(round(s_q/63 * D^ + o_q)).
TRANSFORM = np.dtype(
    [("domain_x", "<u2"), ("domain_y", "<u2"), ("isometry", "u1"), ("s_q", "i1"), ("o_q", "<i2")]
)

#: Scale factor that turns residuals into integers: 63 (contrast grid) * 4
#: (domain downsample denominator).
_SCALE = 252

PSNR_CAP_DB = 99.0

#: Largest image a code may describe.  Parsing plus a decode peaks at about
#: 69 bytes per pixel for range size 1, 50 for range size 2 and 44-46 for
#: range sizes of 4 and up (tracemalloc over ``from_bytes`` plus
#: ``pifs_decode``, 1024^2), so a decode at the cap peaks near 210 MB.  The
#: cap is not raised to match, so that the set of refused inputs stays the
#: same.  It also keeps the decoder's int32 flat source indices exact.
MAX_PIXELS = 3_000_000

#: Cap on the work of pifs_decode, pixels x iterations, checked before
#: anything is allocated.  A pass costs about 30-50 ns per pixel for range
#: size 8 (512^2 to 1728^2) and about 80 ns for range size 1 at 1728^2, whose
#: scattered gathers miss the cache, and at least about 17-29 us however
#: small the image, so an image is charged as at least _MIN_DECODE_PIXELS
#: pixels.  A decode at the cap takes about 6-22 s (random codes at 512^2 and
#: 1728^2, and at 2^2 and 16^2 under that floor).
MAX_DECODE_PIXEL_PASSES = 200_000_000
_MIN_DECODE_PIXELS = 256


def _check_blocks(width: int, height: int, range_size: int) -> None:
    """An image must stay within MAX_PIXELS, tile into range blocks and fit
    one 2*range_size domain."""
    width = check_count(width, "width", 0)
    height = check_count(height, "height", 0)
    check_cap(width * height, MAX_PIXELS, f"{width}x{height} image", "pixel")
    range_size = check_count(range_size, "range_size", 1)
    if width % range_size or height % range_size:
        raise DimensionError(
            f"{width}x{height} image is not divisible by range_size {range_size}"
        )
    dsize = 2 * range_size
    if width < dsize or height < dsize:
        raise ImageTooSmall(f"no {dsize}x{dsize} domain block fits in {width}x{height}")


@dataclass(frozen=True, eq=False)
class PifsCode:
    """The compressed image: one transform per range block, row-major.

    ``transforms`` is a read-only record array of TRANSFORM; it may be given
    as such an array or as (N, 5) integer rows in TRANSFORM's field order.
    Codes compare equal when their ``FIC1`` bytes do.
    """

    width: int
    height: int
    range_size: int
    transforms: np.recarray

    def __post_init__(self):
        _check_blocks(self.width, self.height, self.range_size)
        rows = np.asarray(self.transforms)
        if rows.dtype == TRANSFORM:
            rows = np.stack([rows[name] for name in TRANSFORM.names], axis=-1)
        elif rows.size == 0:
            rows = np.empty((0, 5), dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != 5 or rows.dtype.kind not in "iu":
            raise DomainError("transforms must be TRANSFORM records or (N, 5) integer rows")
        expected = (self.width // self.range_size) * (self.height // self.range_size)
        if len(rows) != expected:
            raise DomainError(f"expected {expected} transforms, got {len(rows)}")
        x, y, iso, s_q, o_q = rows.T
        if np.any((iso < 0) | (iso > 7)):
            raise DomainError("isometry index must lie in [0, 7]")
        if np.any((s_q < -63) | (s_q > 63)):
            raise DomainError("quantized contrast must lie in [-63, 63]")
        if np.any((o_q < -255) | (o_q > 255)):
            raise DomainError("quantized offset must lie in [-255, 255]")
        dsize = 2 * self.range_size
        # x > width - dsize rather than x + dsize > width: int64 rows cannot wrap
        out = (x < 0) | (x > self.width - dsize) | (y < 0) | (y > self.height - dsize)
        if np.any(out):
            i = int(np.argmax(out))
            raise DomainError(f"domain block at ({x[i]}, {y[i]}) leaves the image")
        rec = np.rec.fromarrays(rows.T, dtype=TRANSFORM)  # a copy the code owns
        rec.flags.writeable = False
        object.__setattr__(self, "transforms", rec)

    def __eq__(self, other):
        if not isinstance(other, PifsCode):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self):
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(MAGIC, self.width, self.height, self.range_size, 0)
        return header + self.transforms.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PifsCode":
        """Parse a ``FIC1`` container; any defect raises FormatError."""
        width, height, range_size = _read_header(data)
        records = np.frombuffer(data, TRANSFORM, offset=_HEADER.size)
        try:
            return cls(width=width, height=height, range_size=range_size, transforms=records)
        except DomainError as exc:
            raise FormatError(f"invalid transform container: {exc}") from None


def _read_header(data: bytes):
    """(width, height, range_size) from a ``FIC1`` header, checked as
    from_bytes checks it but without reading the records."""
    if len(data) < _HEADER.size:
        raise FormatError("truncated transform container")
    magic, width, height, range_size, _ = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad container magic {magic!r}")
    if (len(data) - _HEADER.size) % TRANSFORM.itemsize != 0:
        raise FormatError("transform payload has a partial record")
    try:
        _check_blocks(width, height, range_size)
    except DomainError as exc:
        raise FormatError(f"invalid transform container: {exc}") from None
    return width, height, range_size


def apply_isometry(block: np.ndarray, t: int) -> np.ndarray:
    """Dihedral-group element t in [0, 7] on the last two axes: rotations,
    then mirrored rotations."""
    if t < 4:
        return np.rot90(block, t, axes=(-2, -1))
    return np.rot90(block[..., ::-1], t - 4, axes=(-2, -1))


def _scan(cross, sd, sd2, sr, sr2, n, s_grid):
    """Exact integer errors of candidates against range blocks.

    Row i pairs a candidate, whose sum(S), sum(S^2) and sum(S*R) are sd[i],
    sd2[i] and cross[i], with a block whose sum(R) and sum(R^2) are sr[i]
    and sr2[i]; sr and sr2 may also be scalars, one block for every row.
    Returns (err, o), both (rows, len(s_grid)): the scaled squared error at
    the best offset for each contrast, and that offset.
    """
    s = s_grid[None, :]
    sd = sd[:, None]
    sr = np.asarray(sr)[..., None]
    sr2 = np.asarray(sr2)[..., None]
    # the error is 252^2*n*(o - num/den)^2 plus a term free of o, with
    # num = 252*sr - s*sd and den = 252*n: the nearest integer to num/den,
    # the smaller on a tie, clipped to the offset range, is the best offset
    den = _SCALE * n
    o_f, rem = np.divmod(_SCALE * sr - s * sd, den)
    o = np.clip(o_f + (2 * rem > den), -255, 255)
    big_o = _SCALE * o
    err = (
        s * s * sd2[:, None]
        + n * big_o * big_o
        + (_SCALE * _SCALE) * sr2
        + 2 * s * big_o * sd
        - 2 * (_SCALE * s) * cross[:, None]
        - 2 * (_SCALE * big_o) * sr
    )
    return err, o


#: Entries (blocks x candidates) of one tile of the search, and (block,
#: candidate) pairs of one exact scan: with both fixed, the encoder's working
#: arrays do not grow with the number of range blocks.
_TILE_ENTRIES = 1 << 18
_SCAN_PAIRS = 1 << 9


def pifs_encode(
    image: GrayImage,
    range_size: int = 8,
    domain_step: int = 8,
    s_max: float = 1.0,
) -> PifsCode:
    """Encode an image as one contractive transform per range block.

    Domain blocks are 2*range_size squares stepped by domain_step and
    downsampled by 2x2 averaging; all 8 isometries are candidates.  For each
    range block the encoder finds the exact squared-error minimum over every
    candidate and every quantized (s_q, o_q) pair with |s_q/63| <= s_max: the
    true integer-grid optimum, with the documented tie-break.

    The search is pruned without changing its result.  With the candidate's
    moments varD = n*sd2 - sd^2, cov = n*cross - sd*sr and the block's
    varR = n*sr2 - sr^2, the unconstrained real least-squares residual
    L = 252^2 * (varR - cov^2/varD) / n (252^2 * varR / n when varD = 0) is
    a lower bound on the candidate's scaled integer error, because the
    quantized (s_q, o_q) grid, clipped offsets included, is a subset of the
    real plane.  The exact integer scan runs first on the candidate with
    the smallest L, whose best error U bounds the optimum from above, and
    then on every candidate with L <= U + margin, in candidate order.  Every
    candidate that can reach the optimum, ties included, survives, so the
    first minimum is the exhaustive search's first minimum.

    L is evaluated in float64 from exact int64 moments with fewer than ten
    roundings of relative size 2^-53 each, so it lies within 10 * 2^-53 * Z
    of its true value, where Z = 252^2 * varR / n >= L.  The margin
    2^-40 * (Z + U) exceeds that error, and the rounding of U + margin, by
    a factor of several hundred; pruning less than possible only costs time.

    The blocks are searched a tile at a time: as many as keep the tile's
    blocks x candidates within _TILE_ENTRIES, and at least one.  One
    float64 matrix product gives the tile's cross products sum(S*R).  Each
    is an integer of at most n * 1020 * 255 < 2^53, and so is every partial
    sum, so the product is exact whatever order the BLAS adds in, on any
    CPU kernel and thread count.  The code therefore depends only on
    integer arithmetic and on the float64 operations of L and of the
    margin: each an IEEE-754 conversion, add, subtract, multiply or
    divide, correctly rounded, run elementwise in the order of a one-block
    search.  The seed scans of a tile run as one _scan, and its surviving
    (block, candidate) pairs, ordered by block and then candidate, are
    scanned _SCAN_PAIRS at a time.
    """
    domain_step = check_count(domain_step, "domain_step", 1)
    check_real(s_max, "s_max", "[0, 1]")
    _check_blocks(image.width, image.height, range_size)

    rs = range_size
    n = rs * rs
    nby, nbx = image.height // rs, image.width // rs
    px = image.pixels

    # candidate pool: (domain row-major) x (isometry 0..7), flattened blocks;
    # float64 holds every sum and product of it exactly
    windows = np.lib.stride_tricks.sliding_window_view(px, (2 * rs, 2 * rs))
    windows = windows[::domain_step, ::domain_step]
    n_dx = windows.shape[1]
    sums = windows.reshape(-1, rs, 2, rs, 2).sum(axis=(2, 4), dtype=np.float64)
    cand = np.stack([apply_isometry(sums, t) for t in range(8)], axis=1).reshape(-1, n)
    sd = cand.sum(axis=1).astype(np.int64)
    sd2 = (cand * cand).sum(axis=1).astype(np.int64)
    # varD = 0 only for a flat domain, where cov = 0 as well; 1 keeps cov^2/varD 0
    var_d = np.maximum(n * sd2 - sd * sd, 1).astype(np.float64)

    s_cap = min(63, int(np.floor(63.0 * s_max + 1e-9)))
    s_grid = np.arange(-s_cap, s_cap + 1, dtype=np.int64)

    ranges = px.reshape(nby, rs, nbx, rs).transpose(0, 2, 1, 3).reshape(-1, n)
    ranges = ranges.astype(np.float64)
    sr_all = ranges.sum(axis=1).astype(np.int64)
    sr2_all = (ranges * ranges).sum(axis=1).astype(np.int64)
    scale = _SCALE * _SCALE / n

    rows = np.empty((len(ranges), 5), dtype=np.int64)  # TRANSFORM's field order
    tile = max(1, _TILE_ENTRIES // len(cand))
    for t0 in range(0, len(ranges), tile):
        blocks = slice(t0, t0 + tile)
        sr, sr2 = sr_all[blocks], sr2_all[blocks]
        var_r = n * sr2 - sr * sr
        ids = np.arange(len(sr))
        cross = (ranges[blocks] @ cand.T).astype(np.int64)  # (blocks, candidates)
        # L in the one-block search's operation order, in place
        bound = (n * cross - np.multiply.outer(sr, sd)).astype(np.float64)
        bound *= bound
        bound /= var_d
        np.subtract(var_r[:, None], bound, out=bound)
        bound *= scale
        c0 = bound.argmin(axis=1)  # each block's first minimum
        upper = _scan(cross[ids, c0], sd[c0], sd2[c0], sr, sr2, n, s_grid)[0].min(axis=1)
        margin = 2.0**-40 * (var_r * scale + upper)
        b, c = np.nonzero(bound <= (upper + margin)[:, None])  # by block, then candidate
        # where U = 0 nothing scores lower, so no later candidate wins a tie
        tie_cut = (upper[b] != 0) | (c <= c0[b])
        b, c = b[tie_cut], c[tie_cut]
        best, s_at, o_at = (np.empty(len(b), dtype=np.int64) for _ in range(3))
        for p0 in range(0, len(b), _SCAN_PAIRS):
            p = slice(p0, p0 + _SCAN_PAIRS)
            pb, pc = b[p], c[p]
            err, o = _scan(cross[pb, pc], sd[pc], sd2[pc], sr[pb], sr2[pb], n, s_grid)
            k = err.argmin(axis=1)  # first minimum: lowest s_q
            at = np.arange(len(k))
            best[p], s_at[p], o_at[p] = err[at, k], k, o[at, k]
        # each block's first minimum in candidate order: lowest (dy,dx,iso,s_q)
        low = np.minimum.reduceat(best, np.searchsorted(b, ids))
        hit = np.flatnonzero(best == low[b])
        win = hit[np.searchsorted(b[hit], ids)]
        d, iso = np.divmod(c[win], 8)
        d_y, d_x = np.divmod(d, n_dx)
        rows[blocks] = np.stack(
            [d_x * domain_step, d_y * domain_step, iso, s_grid[s_at[win]], o_at[win]], axis=1
        )
    return PifsCode(
        width=image.width,
        height=image.height,
        range_size=range_size,
        transforms=rows,
    )


def _check_passes(width: int, height: int, iterations: int) -> int:
    """iterations as an int, at least 1, whose pixel-passes over a
    width x height image stay within MAX_DECODE_PIXEL_PASSES."""
    iterations = check_count(iterations, "iterations", 1)
    check_cap(max(width * height, _MIN_DECODE_PIXELS) * iterations, MAX_DECODE_PIXEL_PASSES,
              f"max({width}x{height}, {_MIN_DECODE_PIXELS}) pixels x {iterations} iterations",
              "pixel-pass")
    return iterations


def pifs_decode(
    code: PifsCode, iterations: int, start: Optional[GrayImage] = None
) -> GrayImage:
    """Iterate the transform set from a start image (default mid-gray 128).

    Every pass reads only the previous image (double-buffered), writes
    clamp(round(s * D^ + o)) into each range block, and feeds the result
    back in.  The real-valued transform set contracts when every |s| < 1,
    but the quantised iterates end in a fixed point or in a short cycle,
    and with s_max = 1 a code need not contract at all.

    All blocks are decoded at once.  The 2x2 sum commutes with every
    isometry of the square domain block, so the isometries are applied once,
    one group at a time, to a flat index of each block's source pixels,
    ordered like the output image.  A pass is then one gather of the four
    sources of every output pixel, their uint16 sum, and the gray map in
    the per-block loop's float64 operation order, which keeps the output
    bit-identical to it.  More than MAX_DECODE_PIXEL_PASSES pixel-passes
    raise GridTooLarge.
    """
    h, w = code.height, code.width
    iterations = _check_passes(w, h, iterations)
    if start is None:
        img = np.full((h, w), 128, dtype=np.uint8)
    else:
        if start.width != w or start.height != h:
            raise DimensionMismatch(
                f"start image {start.width}x{start.height} does not match "
                f"code {w}x{h}"
            )
        img = start.pixels

    rs = code.range_size
    nby, nbx = h // rs, w // rs
    rec = code.transforms
    # int32 flat indices suffice: h * w <= MAX_PIXELS < 2**31
    span = np.arange(2 * rs, dtype=np.int32)
    src = (rec.domain_y[:, None, None] + span[:, None]) * w + (rec.domain_x[:, None, None] + span)
    for t in np.unique(rec.isometry):
        sel = rec.isometry == t
        src[sel] = apply_isometry(src[sel], int(t))
    # (block row, block col, cell row, a, cell col, b) -> (a, b, output row, col)
    src = src.reshape(nby, nbx, rs, 2, rs, 2).transpose(3, 5, 0, 2, 1, 4)
    src = src.reshape(4, nby, rs, nbx, rs)
    s = (rec.s_q / 63.0).reshape(nby, 1, nbx, 1)
    o = rec.o_q.astype(np.float64).reshape(nby, 1, nbx, 1)
    # take gathers with the int32 index as it is; img.ravel()[src] would
    # cast it to intp on every pass
    for _ in range(iterations):
        sums = img.ravel().take(src).sum(axis=0, dtype=np.uint16)
        vals = np.clip(np.rint(s * (sums / 4.0) + o), 0.0, 255.0)
        img = vals.astype(np.uint8).reshape(h, w)
    return GrayImage(pixels=img)


def decode_container(data: bytes, iterations: int) -> GrayImage:
    """pifs_decode of a ``FIC1`` container from the mid-gray start.

    iterations is checked against the header's image size before the
    records are parsed, so a refused count costs no parsing; pifs_decode
    repeats that check.  A malformed container raises FormatError.
    """
    width, height, _ = _read_header(data)
    _check_passes(width, height, iterations)
    return pifs_decode(PifsCode.from_bytes(data), iterations)


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
