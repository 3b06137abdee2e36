"""Shared fixtures: the synthetic image corpus, CLI runner, the
independent brute-force encoder used to cross-check PIFS encoding, the
exhaustive encoder and per-block decoder that the library's pruned search
and vectorised decoder must reproduce exactly, and the ndarray integrator,
map loop and byte-loop keystream that the library's float loops must
reproduce exactly, the Henon inverse and keystream bit difference used as
oracles, and the full-grid escape grid and IFS pass that the
library's tiled kernels must reproduce exactly, and the per-parameter
bifurcation loop, the two-streams-per-trial avalanche loop, the row-by-row
cobweb trace and the line-list CSV writer that the lane sweep, the
three-keystream avalanche, the column-slice trace and the block CSV writer
must reproduce exactly."""

import contextlib
import importlib
import io
import math
from typing import Callable, Iterable, Optional, Sequence

import mpmath
import numpy as np
import pytest

import chaoscope as c
from chaoscope.analysis import BifurcationDiagram, CobwebTrace
from chaoscope.cipher import ChaosKey
from chaoscope.cli import main
from chaoscope.compression import (
    _SCALE,
    GrayImage,
    PifsCode,
    _check_blocks,
)
from chaoscope.errors import (
    DegenerateOrbit,
    DimensionMismatch,
    DomainError,
    GridTooLarge,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
)
from chaoscope.fractals import (
    DEFAULT_MAX_PIXELS,
    BinaryImage,
    ComplexWindow,
    EscapeGrid,
    IfsSystem,
)
from chaoscope.integrate import (
    ArrayLike,
    FieldFn,
    IntegratorConfig,
    MapFn,
    MapOrbit,
    Trajectory,
    as_state,
)
from chaoscope.systems import LogisticParams, check_logistic_x0, logistic_step


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


# The dynamics step loops as they were written on ndarrays, one numpy
# operation per stage and per iterate, kept as oracles: the float
# loops in the library must give bit-identical times, states, orbits,
# keystream bytes and error messages.

# Dormand-Prince 5(4) tableau.  The seventh stage equals the next step's
# first stage (FSAL), which the main loop exploits.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: weights for the embedded error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.17  # proportional exponent (order 5, with integral damping)
_PI_BETA = 0.04  # integral memory exponent


def _loop_eval_field(field: FieldFn, t: float, y: np.ndarray, dim: int) -> np.ndarray:
    f = np.atleast_1d(np.asarray(field(t, y), dtype=np.float64))
    if f.shape != (dim,):
        raise DomainError(
            f"field returned shape {f.shape}, expected ({dim},)"
        )
    return f


def loop_integrate(
    field: FieldFn,
    x0: ArrayLike,
    t0: float,
    t1: float,
    config: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate x' = field(t, x) over [t0, t1] with adaptive Dormand-Prince 4(5).

    Returns the accepted-step sequence only (no dense output).  The first
    recorded time is exactly t0 and the last exactly t1.

    A trial step with a NaN or Inf stage or new state has a NaN or Inf
    error norm and is rejected like any other.  Raises NonFiniteState when the controller wants
    a step below min_step, or one too small to change t, after a non-finite
    trial, StepUnderflow after a finite one, and MaxStepsExceeded when the
    attempt budget runs out.  The default budget is 1,000,000 attempts, or
    fewer for a state of 9 or more components: the largest count whose
    kept steps, one more than the attempts, of dim + 1 values each, fit
    MAX_ORBIT_VALUES, and at least 1.
    """
    cfg = config if config is not None else IntegratorConfig()
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")
    y = np.array(as_state(x0, "x0"))
    dim = y.size
    cap = importlib.import_module("chaoscope.integrate").MAX_ORBIT_VALUES
    max_steps = cfg.max_steps or max(1, min(1_000_000, cap // (dim + 1) - 1))
    span = t1 - t0
    min_step = cfg.min_step if cfg.min_step is not None else 1e-12 * span
    if cfg.initial_step is not None:
        h = min(cfg.initial_step, span)
    else:
        h = min(max(span / 100.0, min_step), span)

    t = t0
    k1 = _loop_eval_field(field, t, y, dim)
    times = [t0]
    states = [y.copy()]
    prev_err = 1e-4
    err_norm = 0.0
    attempts = 0
    k = [np.zeros(dim) for _ in range(7)]

    while t < t1:
        attempts += 1
        if attempts > max_steps:
            raise MaxStepsExceeded(
                f"no convergence to t1={t1} within {max_steps} attempted steps"
            )
        final = t + h >= t1
        if final:
            h = t1 - t
        elif not np.isfinite(err_norm) and (h < min_step or t + h == t):
            raise NonFiniteState(f"non-finite field value or state in the step from t={t!r}")
        elif h < min_step:
            raise StepUnderflow(
                f"required step {h:.3e} underflows min_step {min_step:.3e} at t={t!r}"
            )
        elif t + h == t:
            raise StepUnderflow(f"step {h:.3e} does not advance t={t!r}")

        k[0] = k1
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = _loop_eval_field(field, t + _DP_C[i] * h, yi, dim)
        y_new = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        err = h * sum(e * k[i] for i, e in enumerate(_DP_E))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale + 0.0 * np.abs(y_new)))

        if err_norm <= 1.0:
            t = t1 if final else t + h
            y = y_new
            k1 = k[6]  # FSAL: stage 7 is the next step's stage 1
            times.append(t)
            states.append(y.copy())
            if err_norm == 0.0:
                factor = _FAC_MAX
            else:
                factor = _SAFETY * err_norm ** (-_PI_ALPHA) * prev_err ** _PI_BETA
                factor = min(_FAC_MAX, max(_FAC_MIN, factor))
            prev_err = max(err_norm, 1e-4)
            h = h * factor
        else:
            h = h * min(1.0, max(0.1, _SAFETY * err_norm ** (-0.2)))

    return Trajectory(times=np.array(times), states=np.array(states))


def loop_iterate_map(
    map_fn: MapFn,
    x0: ArrayLike,
    n: int,
    discard: int = 0,
) -> MapOrbit:
    """Collect iterates discard..n-1 of a discrete map started at x0.

    The orbit counts x0 as iterate 0, so discard=0 keeps the initial point
    and points[k] is iterate discard + k (n - discard points in total).
    A FloatKernel's start state must lie in its domain.
    """
    if discard < 0:
        raise DomainError("discard cannot be negative")
    if n <= discard:
        raise DomainError(f"need n > discard, got n={n}, discard={discard}")
    cur = np.array(as_state(x0, "x0", getattr(map_fn, "domain", "(-inf, inf)")))
    dim = cur.size
    points = np.empty((n - discard, dim), dtype=np.float64)
    for i in range(n):
        if i >= discard:
            points[i - discard] = cur
        if i == n - 1:
            break
        cur = np.atleast_1d(np.asarray(map_fn(cur), dtype=np.float64))
        if cur.shape != (dim,):
            raise DomainError(f"map returned shape {cur.shape}, expected ({dim},)")
        if not np.all(np.isfinite(cur)):
            raise NonFiniteState(
                f"orbit left the finite range at iterate {i + 1}", index=i + 1
            )
    return MapOrbit(points=points, discarded=discard)


def mp_slope(xs, ys) -> float:
    """The least-squares slope of the points (xs[k], ys[k]) in 60 digits,
    rounded once to a float."""
    with mpmath.workdps(60):
        xs, ys = [mpmath.mpf(x) for x in xs], [mpmath.mpf(y) for y in ys]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                     / sum((x - mx) ** 2 for x in xs))


def henon_inverse(p, s):
    """The Henon map's inverse iterate, defined for b != 0."""
    if p.b == 0.0:
        raise DomainError("Henon map is not invertible for b = 0")
    x, y = s
    xp = y / p.b
    return (xp, x - 1.0 + p.a * xp * xp)


def _loop_advance(mu: float, x: float, step: int) -> float:
    nxt = mu * x * (1.0 - x)
    if nxt == 0.0:
        raise DegenerateOrbit(f"orbit hit 0 at iterate {step}")
    if nxt == x:
        raise DegenerateOrbit(f"orbit hit the fixed point {x!r} at iterate {step}")
    return nxt


def loop_keystream(key: ChaosKey, n: int) -> bytes:
    """Generate n keystream bytes; deterministic for a given key."""
    if n < 0:
        raise DomainError("n must be non-negative")
    x = key.x0
    for i in range(key.warmup):
        x = _loop_advance(key.mu, x, i + 1)
    out = bytearray(n)
    for i in range(n):
        x = _loop_advance(key.mu, x, key.warmup + i + 1)
        out[i] = int(x * 4294967296.0) & 0xFF
    return bytes(out)


def bit_difference(key_a: ChaosKey, key_b: ChaosKey, n_bytes: int) -> float:
    """Fraction of differing bits between the two keys' byte-loop keystreams."""
    xored = bytes(a ^ b for a, b in zip(loop_keystream(key_a, n_bytes),
                                        loop_keystream(key_b, n_bytes)))
    return float(np.unpackbits(np.frombuffer(xored, dtype=np.uint8)).mean())


def full_grid_mandelbrot(
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


def full_grid_ifs_iterate(system: IfsSystem, start: BinaryImage, n: int) -> BinaryImage:
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


# The logistic-map sweep, the avalanche harness, the cobweb trace and the
# CSV writer as they were written before the lane sweep, the three-keystream
# avalanche, the column-slice trace and the block writer, kept unchanged as
# oracles: one family call per parameter and iterate, two keystreams per
# trial, two vertex rows written per step, one format per row and the whole
# text held in memory.


def loop_bifurcation_scan(
    family: Callable[[float, float], float],
    p_lo: float,
    p_hi: float,
    p_steps: int,
    x0: float,
    discard: int,
    keep: int,
) -> BifurcationDiagram:
    """Sweep `family(param, x)` over p_steps parameters, keeping post-transient iterates.

    discard must be at least 100 so transients have died before sampling.
    """
    if not p_lo < p_hi:
        raise DomainError("need p_lo < p_hi")
    if p_steps < 1:
        raise DomainError("p_steps must be positive")
    if discard < 100:
        raise DomainError("discard must be at least 100")
    if keep < 1:
        raise DomainError("keep must be positive")
    params = np.linspace(p_lo, p_hi, p_steps)
    samples = np.empty((p_steps, keep), dtype=np.float64)
    for row, param in enumerate(params):
        x = x0
        for i in range(discard + keep):
            if i >= discard:
                samples[row, i - discard] = x
            x = family(param, x)
            if not math.isfinite(x):
                raise NonFiniteState(
                    f"orbit diverged at parameter {float(param)!r}, iterate {i + 1}",
                    index=i + 1,
                )
    return BifurcationDiagram(params=params, samples=samples)


def loop_avalanche_test(key: ChaosKey, n_bytes: int, trials: int) -> float:
    """Mean keystream bit-difference under one-ulp perturbations of x0.

    Each trial nudges x0 by one unit in the last place, alternating the sign
    across trials, and measures the XOR bit fraction against the unperturbed
    stream.  A well-diffusing map scores close to 0.5.
    """
    if n_bytes < 1024:
        raise DomainError("n_bytes must be at least 1024")
    if trials < 8:
        raise DomainError("trials must be at least 8")
    fractions = []
    for i in range(trials):
        target = 1.0 if i % 2 == 0 else 0.0
        nudged = math.nextafter(key.x0, target)
        other = ChaosKey(mu=key.mu, x0=nudged, warmup=key.warmup)
        fractions.append(bit_difference(key, other, n_bytes))
    return float(np.mean(fractions))


def loop_cobweb_trace(p: LogisticParams, x0: float, n: int) -> CobwebTrace:
    """Graphical iteration of the logistic map: 2n staircase vertices after (x0, 0)."""
    check_logistic_x0(x0)
    if n < 1:
        raise DomainError("n must be a positive integer")
    verts = np.empty((2 * n + 1, 2), dtype=np.float64)
    verts[0] = (x0, 0.0)
    x = x0
    for k in range(n):
        nxt = logistic_step(p, x)
        verts[2 * k + 1] = (x, nxt)
        verts[2 * k + 2] = (nxt, nxt)
        x = nxt
    xs = np.linspace(0.0, 1.0, 512)
    curve = np.column_stack([xs, logistic_step(p, xs)])
    return CobwebTrace(vertices=verts, curve_samples=curve)


def row_csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text of a generic CSV with 17-significant-digit numeric fields.

    A Python int prints as an integer and any other value as a float with
    17 significant digits.  Every row must have the length and the column
    kinds of the first, whose values fix the one format string of all rows.
    """
    lines = [",".join(header)]
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = ",".join("%d" if isinstance(v, int) else "%.17g" for v in first)
        lines.append(fmt % tuple(first))
        lines.extend(fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


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
