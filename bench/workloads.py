"""The benchmark's workloads: ordered chaoscope command lines and their checks.

Flag values are fixed; only the generated input files vary with the seed,
so every seed does the same amount of work.  Values that may start with
'-' are written as --flag=value, which argparse never mistakes for an
option.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracles

KEY = (3.9, 0.3)
KEY_FLAG = f"--key={KEY[0]},{KEY[1]}"
WARMUP = 1000
LORENZ_X0 = (15.0, 20.0, 30.0)
CHUA_X0 = (-1.6, 0.0, 1.6)
OVERVIEW = (-2.4, 1.2, -1.5, 1.5)
ZOOM = (-0.80, -0.70, 0.05, 0.15)
TOUR_WINDOW = (-2.0, 0.5, -1.0, 1.0)
# largest Lyapunov exponent of the Lorenz flow at the classic parameters
LORENZ_LAMBDA = 0.9056


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `python -m chaoscope *argv`, writing `out`."""

    name: str  # unique within a workload
    sub: str  # the subcommand
    argv: Tuple[str, ...]
    out: Optional[Path]
    check: oracles.Check


def window_flag(w) -> str:
    return "--window=" + ":".join(repr(v) for v in w)


def _cmd(name, argv, out, check) -> Command:
    full = tuple(argv) + (("--out", str(out)) if out is not None else ())
    return Command(name=name, sub=argv[0], argv=full, out=out, check=check)


def dynamics(inp: Dict[str, Path], out: Path, seed: int) -> List[Command]:
    payload, chx = inp["payload.bin"], out / "payload.chx"
    return [
        _cmd("simulate_lorenz",
             ["simulate", "--system", "lorenz", "--span", "0:40",
              "--rel-tol", "1e-8", "--abs-tol", "1e-8"],
             out / "lorenz.csv", oracles.flow_csv("lorenz", LORENZ_X0, 0.0, 40.0, 1e-8, 1.0)),
        _cmd("simulate_chua",
             ["simulate", "--system", "chua", "--span", "0:40",
              "--rel-tol", "1e-8", "--abs-tol", "1e-8"],
             out / "chua.csv", oracles.flow_csv("chua", CHUA_X0, 0.0, 40.0, 1e-8, 2.0)),
        _cmd("divergence",
             ["divergence", "--system", "lorenz", "--t1", "40",
              "--rel-tol", "1e-6", "--abs-tol", "1e-6"],
             out / "divergence.csv", oracles.divergence(40.0, LORENZ_LAMBDA, 0.15)),
        _cmd("bifurcate",
             ["bifurcate", "--mu-range", "2.8:4.0", "--mu-steps", "1000",
              "--discard", "500", "--keep", "100"],
             out / "bifurcate.csv", oracles.bifurcate(2.8, 4.0, 1000, 0.3, 500, 100)),
        _cmd("iterate",
             ["iterate", "--system", "henon", "--steps", "40000", "--discard", "49"],
             out / "henon.csv", oracles.henon_orbit(40000, 49)),
        _cmd("encrypt", ["encrypt", "--in", str(payload), KEY_FLAG],
             chx, oracles.chx_container(payload, *KEY, WARMUP)),
        _cmd("decrypt", ["decrypt", "--in", str(chx), KEY_FLAG],
             out / "payload.out", oracles.same_bytes(payload)),
        _cmd("avalanche", ["avalanche", KEY_FLAG, "--bytes", "10240", "--trials", "16"],
             None, oracles.stdout_near("avalanche_fraction", 0.5, 0.05)),
    ]


def images(inp: Dict[str, Path], out: Path, seed: int) -> List[Command]:
    sier, photo, code = out / "sierpinski.pgm", inp["photo128.pgm"], inp["code512.fic"]
    return [
        _cmd("mandelbrot_overview",
             ["mandelbrot", window_flag(OVERVIEW), "--scale", "0.004", "--nmax", "100"],
             out / "overview.pgm", oracles.mandelbrot(OVERVIEW, 0.004, 100, seed)),
        _cmd("mandelbrot_zoom",
             ["mandelbrot", window_flag(ZOOM), "--scale", "4e-4", "--nmax", "300"],
             out / "zoom.pgm", oracles.mandelbrot(ZOOM, 4e-4, 300, seed)),
        _cmd("ifs", ["ifs", "--preset", "sierpinski", "--size", "1024", "--steps", "7"],
             sier, oracles.sierpinski(1024, 7)),
        _cmd("boxdim", ["boxdim", "--in", str(sier), "--min-exp", "2", "--max-exp", "7"],
             None, oracles.stdout_near("dimension", oracles.LOG3_LOG2, 0.05)),
        _cmd("compress", ["compress", "--in", str(photo), "--range-size", "8"],
             out / "photo128.fic", oracles.encoded(photo, 8, PSNR_FLOOR_128)),
        _cmd("decompress", ["decompress", "--in", str(code), "--iterations", "5"],
             out / "code512.pgm", oracles.decoded(code, 5)),
    ]


def tour_small(inp: Dict[str, Path], out: Path, seed: int) -> List[Command]:
    """The README tour at the small sizes of the CLI determinism test.

    Not a workload of its own: at about 0.2 s per command its times were
    mostly interpreter start, which this shared machine could not time
    steadily.  A traced run uses these commands as probes for the layers
    its workload does not reach; `setup_s` keeps the start-up cost measured.
    """
    sier, secret, chx = out / "tour_sier.pgm", inp["secret.bin"], out / "tour_secret.chx"
    photo, code = inp["photo64.pgm"], inp["code64.fic"]
    return [
        _cmd("simulate",
             ["simulate", "--system", "lorenz", "--span", "0:10",
              "--rel-tol", "1e-4", "--abs-tol", "1e-4"],
             out / "tour_sim.csv", oracles.flow_csv("lorenz", LORENZ_X0, 0.0, 10.0, 1e-4, 0.5)),
        _cmd("iterate", ["iterate", "--system", "henon", "--steps", "500", "--discard", "49"],
             out / "tour_it.csv", oracles.henon_orbit(500, 49)),
        _cmd("cobweb", ["cobweb", "--steps", "30"],
             out / "tour_cob.csv", oracles.cobweb(3.8282, 0.2, 30)),
        _cmd("bifurcate",
             ["bifurcate", "--mu-range", "3.5:3.6", "--mu-steps", "5",
              "--discard", "200", "--keep", "5"],
             out / "tour_bif.csv", oracles.bifurcate(3.5, 3.6, 5, 0.3, 200, 5)),
        # x' = 0.7x separates at exactly 0.7; sampling the twins at the
        # nearest accepted step biases the fit (0.67 at the default tolerance)
        _cmd("divergence",
             ["divergence", "--system", "linear1d", "--params", "0.7", "--x0", "1", "--t1", "5"],
             out / "tour_div.csv", oracles.divergence(5.0, 0.7, 0.05)),
        _cmd("equilibria", ["equilibria", "--system", "lorenz"],
             out / "tour_eq.csv", oracles.lorenz_equilibria()),
        _cmd("mandelbrot",
             ["mandelbrot", window_flag(TOUR_WINDOW), "--scale", "0.05", "--nmax", "30"],
             out / "tour_man.pgm", oracles.mandelbrot(TOUR_WINDOW, 0.05, 30, seed)),
        _cmd("ifs", ["ifs", "--size", "128", "--steps", "4"], sier, oracles.sierpinski(128, 4)),
        _cmd("boxdim", ["boxdim", "--in", str(sier), "--min-exp", "2", "--max-exp", "5"],
             out / "tour_box.csv", oracles.stdout_near("dimension", oracles.LOG3_LOG2, 0.05)),
        _cmd("simdim", ["simdim", "--copies", "3", "--ratio", "0.5"],
             None, oracles.stdout_near("dimension", oracles.LOG3_LOG2, 1e-12)),
        _cmd("compress", ["compress", "--in", str(photo)],
             out / "tour_cmp.fic", oracles.encoded(photo, 8, PSNR_FLOOR_64)),
        _cmd("decompress", ["decompress", "--in", str(code), "--iterations", "8"],
             out / "tour_dec.pgm", oracles.decoded(code, 8)),
        _cmd("encrypt", ["encrypt", "--in", str(secret), KEY_FLAG],
             chx, oracles.chx_container(secret, *KEY, WARMUP)),
        _cmd("decrypt", ["decrypt", "--in", str(chx), KEY_FLAG],
             out / "tour_dcr.bin", oracles.same_bytes(secret)),
        _cmd("avalanche", ["avalanche", KEY_FLAG, "--bytes", "1024", "--trials", "8"],
             None, oracles.stdout_near("avalanche_fraction", 0.5, 0.05)),
    ]


def setup_command() -> Command:
    """The trivial command whose wall time is `setup_s`."""
    return _cmd("setup", ["simdim", "--copies", "3", "--ratio", "0.5"], None,
                oracles.stdout_near("dimension", oracles.LOG3_LOG2, 1e-12))


WORKLOADS = {"dynamics": dynamics, "images": images}

# PSNR floors for the seeded natural-like images.  Over seeds 0..149 the
# exhaustive encoder reached 22.2 to 33 dB at 64x64 (median 27.6), and
# 27.9 to 33.7 dB at 128x128 over seeds 0..11; the floors sit about 2 and
# 4 dB under those minima, far above what a wrong code decodes to.
PSNR_FLOOR_128 = 24.0
PSNR_FLOOR_64 = 20.0
