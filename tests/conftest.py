"""Shared fixtures: the synthetic image corpus, CLI runner, the
independent brute-force encoder used to cross-check PIFS encoding, and the
exhaustive encoder and per-block decoder that the library's pruned search
and vectorised decoder must reproduce exactly."""

import contextlib
import io
from typing import Optional

import numpy as np
import pytest

import chaoscope as c
from chaoscope.cli import main
from chaoscope.compression import (
    _SCALE,
    GrayImage,
    PifsCode,
    _check_blocks,
)
from chaoscope.errors import DimensionMismatch, DomainError


def _gauss_kernel(sigma, radius):
    xs = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def make_ramp64():
    col = np.round(255 * np.arange(64) / 63).astype(np.uint8)
    return c.GrayImage(pixels=np.tile(col, (64, 1)))


def make_blob64():
    yy, xx = np.mgrid[0:64, 0:64]
    g = np.exp(-(((xx - 32) ** 2 + (yy - 32) ** 2) / (2 * 14.0 ** 2)))
    return c.GrayImage(pixels=np.round(255 * g).astype(np.uint8))


def make_blurred_checker64():
    yy, xx = np.mgrid[0:64, 0:64]
    base = (((xx // 32) + (yy // 32)) % 2).astype(np.float64)
    k = _gauss_kernel(4.0, 12)
    sm = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, base)
    sm = np.apply_along_axis(lambda col: np.convolve(col, k, mode="same"), 0, sm)
    return c.GrayImage(pixels=np.round(255 * sm).astype(np.uint8))


def make_photo(height, width, seed):
    """Seeded photo-like image: shading, a periodic texture, hard-edged
    shapes, a noisy patch and mild noise everywhere."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width] / max(height, width)
    img = 128.0 + 70.0 * (x - y) + 18.0 * np.sin(2 * np.pi * 7 * x) * np.cos(2 * np.pi * 5 * y)
    for _ in range(4):
        x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
        y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
        img[(x >= x0) & (x < x1) & (y >= y0) & (y < y1)] = rng.uniform(20.0, 235.0)
    cx, cy, r = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.25)
    img[(x - cx) ** 2 + (y - cy) ** 2 < r * r] = rng.uniform(20.0, 235.0)
    img += rng.normal(0.0, 2.0, img.shape)
    patch = (x < 0.3) & (y > 0.6)
    img[patch] += rng.normal(0.0, 15.0, int(patch.sum()))
    return c.GrayImage(pixels=np.clip(np.rint(img), 0, 255).astype(np.uint8))


@pytest.fixture(scope="session")
def corpus64():
    return {
        "ramp": make_ramp64(),
        "blob": make_blob64(),
        "checker": make_blurred_checker64(),
    }


@pytest.fixture(scope="session")
def sierpinski_depth7():
    start = c.BinaryImage.full(1024, 1024)
    return c.ifs_iterate(c.sierpinski_ifs(), start, 7)


def brute_force_encode(img, rs, step, s_max):
    """Pixel-space exhaustive search over (domain, isometry, s_q, o_q).

    Errors are exact integers (residuals scaled by 252); candidates are
    compared as (error, domain_y, domain_x, isometry, s_q, o_q) tuples so
    tie-breaking is total and matches the documented encoder order.
    """
    px = img.pixels.astype(np.int64)
    h, w = px.shape
    s_cap = min(63, int(np.floor(63.0 * s_max + 1e-9)))
    o_grid = np.arange(-255, 256, dtype=np.int64)
    results = []
    for ry in range(0, h, rs):
        for rx in range(0, w, rs):
            r = px[ry : ry + rs, rx : rx + rs].ravel()
            best = None
            for dy in range(0, h - 2 * rs + 1, step):
                for dx in range(0, w - 2 * rs + 1, step):
                    block = px[dy : dy + 2 * rs, dx : dx + 2 * rs]
                    sums = block.reshape(rs, 2, rs, 2).sum(axis=(1, 3))
                    for t in range(8):
                        st = apply_isometry(sums, t).ravel()
                        for s_q in range(-s_cap, s_cap + 1):
                            resid = (
                                s_q * st[None, :]
                                + 252 * o_grid[:, None]
                                - 252 * r[None, :]
                            )
                            errs = (resid * resid).sum(axis=1)
                            oi = int(np.argmin(errs))  # first min = smallest o_q
                            key = (int(errs[oi]), dy, dx, t, s_q, int(o_grid[oi]))
                            if best is None or key < best:
                                best = key
            results.append(best)
    return results


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


def exhaustive_encode(
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

    transforms = []
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
        # (domain_x, domain_y, isometry, s_q, o_q)
        transforms.append(
            (dx, dy, c_idx % 8, int(s_grid[s_idx]), int(best_o[c_idx, s_idx]))
        )
    return PifsCode(
        width=image.width,
        height=image.height,
        range_size=range_size,
        transforms=transforms,
    )


def loop_decode(
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
            vals = np.clip(np.rint(t.s_q / 63.0 * block + float(t.o_q)), 0.0, 255.0)
            nxt[ry * rs : (ry + 1) * rs, rx * rs : (rx + 1) * rs] = vals.astype(
                np.uint8
            )
        img = nxt
    return GrayImage(pixels=img)


@pytest.fixture
def brute_force_encoder():
    return brute_force_encode


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""

    def runner(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    return runner
