"""Output checks for every benchmark command, from independent oracles.

Each check is written from the documented rule (README and module
docstrings), not by calling chaoscope, and accepts roundoff-level
differences within the tolerance stated beside it, so an optimisation that
reorders floating-point work still passes while a wrong output fails.

A check is a callable ``check(out_path, stdout)`` that returns None when
the output is right and a one-line reason when it is not.  It never raises
for a bad output: a crash inside a check is reported as a failed check.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Check = Callable[[Optional[Path], str], Optional[str]]

LOG3_LOG2 = math.log(3.0) / math.log(2.0)
FIC_HEADER = struct.Struct("<4sHHBB")
FIC_RECORD = np.dtype(
    [("dx", "<u2"), ("dy", "<u2"), ("iso", "u1"), ("s_q", "i1"), ("o_q", "<i2")]
)
CHX_HEADER = struct.Struct("<4sBIQ")


class Bad(Exception):
    """A check found the output wrong; the message is the reason."""


def guarded(fn: Callable[..., None]) -> Check:
    def check(out_path, stdout):
        try:
            fn(out_path, stdout)
        except Bad as exc:
            return str(exc)
        except Exception as exc:  # a malformed output can break any parser
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Bad(reason)


def stdout_value(stdout: str, key: str) -> float:
    m = re.search(rf"^{re.escape(key)} (\S+)$", stdout, re.MULTILINE)
    expect(m is not None, f"stdout has no '{key}' line")
    return float(m.group(1))


def read_csv(path: Path, header: str) -> np.ndarray:
    with open(path, "rb") as fh:
        first = fh.readline().decode("ascii").rstrip("\n")
        expect(first == header, f"CSV header {first!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    expect(np.all(np.isfinite(data)), "CSV holds a non-finite value")
    return data


def read_pgm(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    expect(m is not None, "not a binary PGM with maxval 255")
    w, h = int(m.group(1)), int(m.group(2))
    body = data[m.end():]
    expect(len(body) == w * h, f"PGM payload is {len(body)} bytes, expected {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------- flows

def lorenz_rhs(sigma=10.0, r=28.0, b=8.0 / 3.0):
    def f(t, s):
        x, y, z = s
        return [sigma * (y - x), r * x - y - x * z, x * y - b * z]

    return f


def chua_rhs(c1=15.0, c2=1.0, c3=25.58, m0=-8.0 / 7.0, m1=-5.0 / 7.0):
    def f(t, s):
        x, y, z = s
        g = m1 * x + 0.5 * (m0 - m1) * (abs(x + 1.0) - abs(x - 1.0))
        return [c1 * (y - x - g), c2 * (x - y + z), -c3 * y]

    return f


RHS = {"lorenz": lorenz_rhs, "chua": chua_rhs}


def flow_csv(system: str, x0, t0: float, t1: float, rel_tol: float,
             early_t: float) -> Check:
    """Accepted steps of `simulate`.

    Structure: header t,x0,x1,x2, first time t0, last time t1, times
    strictly increasing.  Values: every state with t <= early_t (before
    chaos amplifies the solver's own local error) matches scipy's DOP853 at
    rtol = atol = 1e-12 within 100 * rel_tol * (1 + |x|).  The integrator
    stays within 7x rel_tol there on every early window used here, so any
    solver that honours its tolerance passes.
    """

    def run(path, stdout):
        from scipy.integrate import solve_ivp

        data = read_csv(path, "t,x0,x1,x2")
        t = data[:, 0]
        expect(len(t) >= 2 and t[0] == t0 and t[-1] == t1, "span endpoints are wrong")
        expect(bool(np.all(np.diff(t) > 0.0)), "times are not strictly increasing")
        expect(bool(np.all(data[0, 1:] == x0)), "first state is not x0")
        early = t <= early_t
        expect(int(early.sum()) >= 10, "fewer than 10 early steps to compare")
        ref = solve_ivp(RHS[system](), (t0, early_t), list(x0), method="DOP853",
                        rtol=1e-12, atol=1e-12, t_eval=t[early])
        expect(ref.success, "reference solver failed")
        got = data[early, 1:]
        want = ref.y.T
        tol = 100.0 * rel_tol * (1.0 + np.abs(want))
        worst = float(np.max(np.abs(got - want) / tol))
        expect(worst <= 1.0, f"early states off scipy DOP853 by {worst:.3g}x tolerance")

    return guarded(run)


def divergence(t1: float, rate: float, rate_tol: float) -> Check:
    """`divergence`: 2000 rows on a uniform grid over [0, t1], a printed
    fitted rate within rate_tol of the known exponent, and that rate equal
    (to 1e-9) to a least-squares refit of the written CSV over the printed
    fit window."""

    def run(path, stdout):
        data = read_csv(path, "x,y")
        expect(len(data) == 2000, f"{len(data)} rows, expected 2000")
        grid = np.linspace(0.0, t1, 2000)
        expect(bool(np.allclose(data[:, 0], grid, rtol=0.0, atol=1e-12)), "time grid is wrong")
        fitted = stdout_value(stdout, "fitted_rate")
        expect(abs(fitted - rate) <= rate_tol,
               f"fitted rate {fitted:.6g} not within {rate_tol} of {rate}")
        m = re.search(r"^fit_window (\S+) (\S+)$", stdout, re.MULTILINE)
        expect(m is not None, "stdout has no fit_window line")
        lo, hi = float(m.group(1)), float(m.group(2))
        sel = (data[:, 0] >= lo) & (data[:, 0] <= hi)
        expect(int(sel.sum()) >= 2, "fit window holds fewer than 2 rows")
        refit = float(np.polyfit(data[sel, 0], data[sel, 1], 1)[0])
        expect(abs(refit - fitted) <= 1e-9 * max(1.0, abs(fitted)),
               f"printed rate {fitted!r} disagrees with the CSV refit {refit!r}")

    return guarded(run)


# ---------------------------------------------------------------- maps

def logistic_step(mu, x):
    return mu * x * (1.0 - x)


def bifurcate(lo: float, hi: float, steps: int, x0: float, discard: int,
              keep: int) -> Check:
    """`bifurcate`: steps*keep rows of (mu, x).

    mu column: np.linspace(lo, hi, steps), each repeated keep times (to
    1e-15).  Every row's x lies in [0, 1] and every kept iterate follows
    from the one before it by one scalar logistic step (to 1e-12).  For
    mu <= 3.54 the orbit sits on an attracting cycle, so roundoff decays,
    and the first kept iterate also matches a scalar recompute from x0
    through `discard` steps (to 1e-9).  For chaotic mu a full recompute is
    roundoff-sensitive by nature, so only the one-step rule applies there.
    """

    def run(path, stdout):
        data = read_csv(path, "x,y")
        expect(len(data) == steps * keep, f"{len(data)} rows, expected {steps * keep}")
        mus = np.linspace(lo, hi, steps)
        expect(bool(np.allclose(data[:, 0], np.repeat(mus, keep), rtol=0.0, atol=1e-15)),
               "parameter column is wrong")
        x = data[:, 1].reshape(steps, keep)
        expect(bool(np.all((x >= 0.0) & (x <= 1.0))), "an iterate leaves [0, 1]")
        nxt = mus[:, None] * x[:, :-1] * (1.0 - x[:, :-1])
        worst = float(np.max(np.abs(nxt - x[:, 1:]), initial=0.0))
        expect(worst <= 1e-12, f"consecutive iterates break the map by {worst:.3g}")
        for k in np.flatnonzero(mus <= 3.54)[:: max(1, steps // 25)]:
            v = x0
            for _ in range(discard):
                v = logistic_step(mus[k], v)
            expect(abs(v - x[k, 0]) <= 1e-9, f"first kept iterate at mu={mus[k]!r} is wrong")

    return guarded(run)


def henon_orbit(steps: int, discard: int, x0=(0.1, 0.0), a=1.2, b=0.4) -> Check:
    """`iterate` of the Henon map: n column discard..steps-1; every row
    follows from the previous by one step (x, y) -> (1 + y - a x^2, b x)
    to 1e-12 * (1 + |x|); the first row matches a scalar recompute from x0
    to 1e-5 (chaos amplifies one-ulp differences by ~e^(0.42 n))."""

    def run(path, stdout):
        data = read_csv(path, "n,x0,x1")
        expect(len(data) == steps - discard, f"{len(data)} rows, expected {steps - discard}")
        expect(bool(np.array_equal(data[:, 0], np.arange(discard, steps))), "n column is wrong")
        x, y = data[:-1, 1], data[:-1, 2]
        nx, ny = 1.0 + y - a * x * x, b * x
        err = np.maximum(np.abs(nx - data[1:, 1]), np.abs(ny - data[1:, 2]))
        worst = float(np.max(err / (1.0 + np.abs(nx)), initial=0.0))
        expect(worst <= 1e-12, f"consecutive iterates break the map by {worst:.3g}")
        u, v = x0
        for _ in range(discard):
            u, v = 1.0 + v - a * u * u, b * u
        expect(abs(u - data[0, 1]) <= 1e-5 and abs(v - data[0, 2]) <= 1e-5,
               "first kept iterate is wrong")

    return guarded(run)


def cobweb(mu: float, x0: float, steps: int) -> Check:
    """`cobweb`: 2n+1 vertices starting at (x0, 0), alternating vertical
    moves onto the map's graph and horizontal moves onto the diagonal, to
    1e-12."""

    def run(path, stdout):
        v = read_csv(path, "x,y")
        expect(len(v) == 2 * steps + 1, f"{len(v)} vertices, expected {2 * steps + 1}")
        expect(v[0, 0] == x0 and v[0, 1] == 0.0, "first vertex is not (x0, 0)")
        x = x0
        for k in range(steps):
            nxt = logistic_step(mu, x)
            expect(abs(v[2 * k + 1, 0] - x) <= 1e-12 and abs(v[2 * k + 1, 1] - nxt) <= 1e-12,
                   f"vertical move {k} is wrong")
            expect(abs(v[2 * k + 2, 0] - nxt) <= 1e-12 and abs(v[2 * k + 2, 1] - nxt) <= 1e-12,
                   f"horizontal move {k} is wrong")
            x = v[2 * k + 2, 0]

    return guarded(run)


def lorenz_equilibria(sigma=10.0, r=28.0, b=8.0 / 3.0) -> Check:
    """`equilibria`: the origin and C+- = (+-w, +-w, r-1), w = sqrt(b(r-1)),
    to 1e-12."""

    def run(path, stdout):
        got = read_csv(path, "x0,x1,x2")
        w = math.sqrt(b * (r - 1.0))
        want = np.array([[0.0, 0.0, 0.0], [w, w, r - 1.0], [-w, -w, r - 1.0]])
        expect(got.shape == want.shape, f"{len(got)} equilibria, expected 3")
        expect(bool(np.allclose(got, want, rtol=0.0, atol=1e-12)), "equilibria are wrong")

    return guarded(run)


# ---------------------------------------------------------------- cipher

def logistic_keystream(mu: float, x0: float, warmup: int, n: int) -> np.ndarray:
    """The documented keystream rule: warm up, then one byte per iterate,
    the low byte of floor(x * 2**32)."""
    x = x0
    for _ in range(warmup):
        x = mu * x * (1.0 - x)
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        x = mu * x * (1.0 - x)
        out[i] = int(x * 4294967296.0) & 0xFF
    return out


def chx_container(plain: Path, mu: float, x0: float, warmup: int,
                  prefix: int = 4096) -> Check:
    """`encrypt`: a CHX1 header (version 1, the warmup, the payload length)
    and a body whose first `prefix` bytes XOR the keystream back to the
    plaintext exactly."""

    def run(path, stdout):
        data = Path(path).read_bytes()
        payload = Path(plain).read_bytes()
        magic, version, got_warmup, length = CHX_HEADER.unpack_from(data, 0)
        expect(magic == b"CHX1" and version == 1, "bad CHX1 header")
        expect(got_warmup == warmup, f"header warmup {got_warmup}, expected {warmup}")
        body = np.frombuffer(data, dtype=np.uint8, offset=CHX_HEADER.size)
        expect(length == len(payload) == len(body), "container length is wrong")
        n = min(prefix, len(payload))
        ks = logistic_keystream(mu, x0, warmup, n)
        expect(bool(np.array_equal(body[:n] ^ ks, np.frombuffer(payload, np.uint8)[:n])),
               "ciphertext does not decrypt to the plaintext")

    return guarded(run)


def same_bytes(reference: Path) -> Check:
    """`decrypt`: output equals the original plaintext byte for byte."""

    def run(path, stdout):
        expect(Path(path).read_bytes() == Path(reference).read_bytes(),
               "decrypted bytes differ from the plaintext")

    return guarded(run)


def stdout_near(key: str, want: float, tol: float) -> Check:
    """A printed `key value` line within tol of want (avalanche: 0.5 +- 0.05;
    boxdim and simdim: log 3 / log 2)."""

    def run(path, stdout):
        got = stdout_value(stdout, key)
        expect(abs(got - want) <= tol, f"{key} {got!r} not within {tol} of {want!r}")

    return guarded(run)


# ---------------------------------------------------------------- fractals

def axis_samples(lo: float, hi: float, scale: float) -> int:
    return int(math.floor((hi - lo) / scale + 1e-9)) + 1


def escape_count(c: complex, nmax: int, threshold: float) -> int:
    w = 0j
    for n in range(1, nmax + 1):
        w = w * w + c
        if abs(w) > threshold:
            return n
    return nmax


def mandelbrot(window, scale: float, nmax: int, seed: int, samples: int = 400,
               threshold: float = 4.0) -> Check:
    """`mandelbrot`: a PGM of the window's sample grid.

    Size: nx x ny from the endpoint-inclusive sample count.  Every byte is
    one of the nmax possible scaled counts.  Pixel values: `samples` seeded
    pixels match a scalar escape loop at z = lo + k*scale (top row is the
    largest imaginary part); at least 97% must agree exactly, since a
    one-ulp sample position can change the count of a pixel on the set's
    boundary.
    """
    xmin, xmax, ymin, ymax = window

    def run(path, stdout):
        img = read_pgm(path)
        nx, ny = axis_samples(xmin, xmax, scale), axis_samples(ymin, ymax, scale)
        expect(img.shape == (ny, nx), f"PGM is {img.shape[1]}x{img.shape[0]}, expected {nx}x{ny}")
        levels = np.rint(255.0 * (np.arange(1, nmax + 1) - 1.0) / (nmax - 1.0))
        expect(bool(np.all(np.isin(img, levels.astype(np.uint8)))), "a pixel is not a scaled count")
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, ny, samples)
        cols = rng.integers(0, nx, samples)
        agree = 0
        for r, c in zip(rows, cols):
            y = ymin + scale * (ny - 1 - r)
            count = escape_count(complex(xmin + scale * c, y), nmax, threshold)
            agree += int(img[r, c] == levels[count - 1])
        expect(agree >= 0.97 * samples, f"only {agree}/{samples} sampled pixels match")

    return guarded(run)


def sierpinski(size: int, steps: int) -> Check:
    """`ifs --preset sierpinski`: the rasterised set after `steps` passes
    from the full square.  The three half-scale maps send pixel-centre
    column c to c // 2 + offset exactly (offsets 0, size/2 and size/4 in
    x; 0 and size/2 in y, in the y-up frame), so an integer reference is
    exact; at most 0.01% of pixels may differ."""

    def run(path, stdout):
        img = read_pgm(path)
        expect(img.shape == (size, size), f"PGM is not {size}x{size}")
        expect(bool(np.all((img == 0) | (img == 255))), "IFS raster is not black/white")
        bits = np.ones((size, size), dtype=bool)  # row 0 = lowest y
        offsets = [(0, 0), (size // 2, 0), (size // 4, size // 2)]
        for _ in range(steps):
            rows, cols = np.nonzero(bits)
            nxt = np.zeros_like(bits)
            for ox, oy in offsets:
                nxt[rows // 2 + oy, cols // 2 + ox] = True
            bits = nxt
        want = np.where(bits[::-1], 255, 0)
        wrong = int(np.count_nonzero(img != want))
        expect(wrong <= 1e-4 * size * size, f"{wrong} pixels differ from the reference")

    return guarded(run)


# ---------------------------------------------------------------- PIFS

def parse_fic(data: bytes):
    magic, w, h, rs, _ = FIC_HEADER.unpack_from(data, 0)
    expect(magic == b"FIC1", "bad FIC1 magic")
    expect(rs >= 1 and w % rs == 0 and h % rs == 0, "bad range size")
    rec = np.frombuffer(data, dtype=FIC_RECORD, offset=FIC_HEADER.size)
    expect(len(rec) == (w // rs) * (h // rs), "wrong number of transforms")
    expect(bool(np.all((rec["iso"] <= 7) & (np.abs(rec["s_q"].astype(int)) <= 63)
                       & (np.abs(rec["o_q"].astype(int)) <= 255))), "transform field out of range")
    expect(bool(np.all((rec["dx"] + 2 * rs <= w) & (rec["dy"] + 2 * rs <= h))),
           "domain block leaves the image")
    return w, h, rs, rec


def reference_decode(data: bytes, iterations: int) -> np.ndarray:
    """Documented decode rule, vectorised over blocks: from mid-gray 128,
    each pass writes clamp(rint(s_q/63 * D + o_q)) into every range block,
    where D is the domain block's 2x2 average under isometry t (t < 4:
    rot90 t times; else rot90 of the left-right mirror, t - 4 times)."""
    w, h, rs, rec = parse_fic(data)
    n = len(rec)
    span = np.arange(2 * rs)
    rows = rec["dy"].astype(np.int64)[:, None] + span
    cols = rec["dx"].astype(np.int64)[:, None] + span
    s = (rec["s_q"] / 63.0)[:, None, None]
    o = rec["o_q"].astype(np.float64)[:, None, None]
    iso = rec["iso"]
    img = np.full((h, w), 128, dtype=np.uint8)
    nby, nbx = h // rs, w // rs
    for _ in range(iterations):
        dom = img[rows[:, :, None], cols[:, None, :]].astype(np.int64)
        dhat = dom.reshape(n, rs, 2, rs, 2).sum(axis=(2, 4)) / 4.0
        blocks = np.empty_like(dhat)
        for t in range(8):
            sel = iso == t
            src = dhat[sel] if t < 4 else dhat[sel][:, :, ::-1]
            blocks[sel] = np.rot90(src, t % 4, axes=(1, 2))
        vals = np.clip(np.rint(s * blocks + o), 0.0, 255.0).astype(np.uint8)
        img = vals.reshape(nby, nbx, rs, rs).transpose(0, 2, 1, 3).reshape(h, w)
    return img


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return 99.0 if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


def decoded(code: Path, iterations: int) -> Check:
    """`decompress`: the PGM matches the reference decoder; every pixel
    within 2 gray levels and at most 1% of pixels differing at all (a
    round-half tie flipped by reordered arithmetic propagates, but stays
    small, because every map is contractive)."""

    def run(path, stdout):
        got = read_pgm(path)
        want = reference_decode(Path(code).read_bytes(), iterations)
        expect(got.shape == want.shape, "decoded size is wrong")
        diff = np.abs(got.astype(int) - want.astype(int))
        expect(int(diff.max()) <= 2, f"a pixel is {int(diff.max())} levels off the reference")
        expect(np.count_nonzero(diff) <= 0.01 * diff.size, "over 1% of pixels differ")

    return guarded(run)


def encoded(image: Path, range_size: int, psnr_floor: float) -> Check:
    """`compress`: a valid FIC1 code for the input's size and range size
    that, decoded by the reference decoder for 10 passes, reaches at least
    psnr_floor dB against the input."""

    def run(path, stdout):
        data = Path(path).read_bytes()
        original = read_pgm(image)
        w, h, rs, _ = parse_fic(data)
        expect((h, w) == original.shape and rs == range_size, "code header is wrong")
        quality = psnr(reference_decode(data, 10), original)
        expect(quality >= psnr_floor, f"decoded PSNR {quality:.2f} dB below {psnr_floor} dB")

    return guarded(run)
