"""Command-line front door: one subcommand per computation, file outputs only.

``main`` checks the --in and --out paths of every command before it runs
it.  Each command then checks only what the command line alone knows (flag
syntax, the cipher key, preset names) and calls the library, whose own
checks run before any computation.  A flag that mirrors a library default
has no default of its own: a flag left out is not passed, so the library's
default applies.  The exit status follows the type of the error, with a
one-line diagnostic on stderr:

* 0 on success;
* 2 for a ``DomainError``, a flag value or input outside a documented
  precondition;
* 1 for a malformed input file (``FormatError``), any other
  ``ChaoscopeError`` raised while computing, or an ``OSError``.

Files are written atomically, so a failing run never leaves partial output
behind.  Each command imports the library modules it calls when it runs, so
a run loads only the code of its own command.

``run`` is the process entry point (``python -m chaoscope``, the
``chaoscope`` script).  It calls ``main``, flushes stdout and stderr once,
and ends the process with ``os._exit``.  That skips the interpreter's
teardown, about 20 ms per command whose work nobody reads: every output
file is closed and renamed before ``main`` returns, and nothing in the
package registers ``atexit`` handlers, relies on ``__del__`` or starts
threads.  So ``atexit`` handlers do not run in a CLI process, and BLAS
worker threads are not joined.  A stdout that fails to flush (a closed
pipe) exits 1 with one line, ``chaoscope <command>: <Type>: <message>``;
so does a printing command without stdout (fd 1 closed), before it runs.
Under a profiler or tracer (``sys.getprofile()`` or ``sys.gettrace()``
set) ``run`` exits normally, so the tool can write its report.  ``main``
only returns the exit code, for tests and library callers.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Tuple

from .errors import ChaoscopeError, DomainError, FormatError, check_cap, check_count, lookup_preset

KEY_ENV_VAR = "CHAOSCOPE_KEY"

#: Largest ``ifs --size``: ifs_iterate peaks at about 3.3 bytes per pixel
#: from 1024^2 to 3500^2 (tracemalloc, sierpinski from a full start image,
#: 7 steps), and the start image and the PGM writer add about 4, so 3500^2
#: pixels need about 0.1 GB.
IFS_MAX_SIZE = 3500

#: The commands that print their result on stdout.
_PRINTING_COMMANDS = frozenset({"divergence", "boxdim", "simdim", "avalanche"})

#: Help text of --warmup; its bound is cipher.MAX_WARMUP, spelled out so that
#: building the parser does not load the cipher (a test keeps them equal).
_WARMUP_HELP = "keystream warmup iterates, 256 to 1000000"


def _parse_floats(text: str, what: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{what} must be comma-separated numbers, got '{text}'")


def _parse_colon(text: str, count: int, what: str) -> Tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != count:
        raise DomainError(f"{what} needs {count} colon-separated numbers, got '{text}'")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"{what} must be numeric, got '{text}'")


def _resolve_key(args) -> Tuple[float, float]:
    text = getattr(args, "key", None) or os.environ.get(KEY_ENV_VAR)
    if not text:
        raise DomainError(
            f"no cipher key: pass --key mu,x0 or set {KEY_ENV_VAR}"
        )
    values = _parse_floats(text, "key")
    if len(values) != 2:
        raise DomainError(f"key must be 'mu,x0', got '{text}'")
    return values


def _given(args, *names) -> dict:
    """The flags among names that the command line gave, by name."""
    values = {name: getattr(args, name) for name in names}
    return {name: v for name, v in values.items() if v is not None}


def _system_args(args):
    """The --system preset, its --params (None for the defaults) and --x0 state.

    The --x0 state is a tuple of floats.  The library checks that each
    component lies in the preset's domain and that the state has the
    preset's dimension.
    """
    from .systems import preset as named_preset

    preset = named_preset(args.system)
    params = _parse_floats(args.params, "--params") if args.params else None
    state = preset.default_state
    if getattr(args, "x0", None):
        state = _parse_floats(args.x0, "--x0")
    return preset, params, state


#: IntegratorConfig fields with a flag each, and the flag's type.
_INTEGRATOR_FLAGS = {"rel_tol": float, "abs_tol": float, "initial_step": float,
                     "max_steps": int, "min_step": float}


# One function per subcommand, named after it; COMMANDS lists it, and main
# runs it once the paths are checked.  Each checks only what the command
# line alone knows and leaves every other check to the library call.


def _simulate(args) -> None:
    from .formats import write_trajectory_csv
    from .integrate import IntegratorConfig, integrate

    preset, params, x0 = _system_args(args)
    t0, t1 = _parse_colon(args.span, 2, "--span")
    field = preset.field(params)
    config = IntegratorConfig(**_given(args, *_INTEGRATOR_FLAGS))
    write_trajectory_csv(integrate(field, x0, t0, t1, config), args.out)


def _iterate(args) -> None:
    from .formats import write_trajectory_csv
    from .integrate import iterate_map

    preset, params, x0 = _system_args(args)
    step = preset.map(params)
    write_trajectory_csv(iterate_map(step, x0, args.steps, **_given(args, "discard")), args.out)


def _cobweb(args) -> None:
    from .analysis import cobweb_trace
    from .formats import write_trajectory_csv
    from .systems import LogisticParams

    params = LogisticParams(mu=args.mu)
    write_trajectory_csv(cobweb_trace(params, args.x0, args.steps), args.out)


def _bifurcate(args) -> None:
    from .analysis import bifurcation_scan
    from .formats import write_trajectory_csv

    lo, hi = _parse_colon(args.mu_range, 2, "--mu-range")
    diagram = bifurcation_scan(lo, hi, args.mu_steps, args.x0, args.discard, args.keep)
    write_trajectory_csv(diagram, args.out)


def _divergence(args) -> None:
    from .analysis import divergence_rate
    from .formats import write_divergence_csv
    from .integrate import IntegratorConfig

    preset, params, x0 = _system_args(args)
    field = preset.field(params)
    config = IntegratorConfig(**_given(args, *_INTEGRATOR_FLAGS))
    report = divergence_rate(field, x0, args.delta0, args.t1, config)
    write_divergence_csv(report, args.out)
    print(f"fitted_rate {report.fitted_rate:.17g}")
    print(f"fit_window {report.fit_window[0]:.17g} {report.fit_window[1]:.17g}")


def _equilibria(args) -> None:
    from .analysis import lorenz_equilibria
    from .formats import write_rows_csv
    from .systems import LorenzParams

    if args.system != "lorenz":
        raise DomainError("equilibria currently supports only --system lorenz")
    preset, params, _ = _system_args(args)
    params = LorenzParams(*preset.resolve_params(params))
    points = lorenz_equilibria(params)
    write_rows_csv(args.out, ["x0", "x1", "x2"], (list(p) for p in points))


def _mandelbrot(args) -> None:
    from .formats import write_pgm
    from .fractals import ComplexWindow, mandelbrot_grid

    xmin, xmax, ymin, ymax = _parse_colon(args.window, 4, "--window")
    window = ComplexWindow(
        xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax, scale=args.scale
    )
    write_pgm(mandelbrot_grid(window, args.nmax, **_given(args, "threshold")), args.out)


def _ifs(args) -> None:
    from .formats import write_pgm
    from .fractals import IFS_PRESETS, BinaryImage, ifs_iterate

    make = lookup_preset(IFS_PRESETS, args.preset, "IFS")
    size = check_count(args.size, "--size", 2)
    check_cap(size, IFS_MAX_SIZE, "--size", "pixel-side")
    start = BinaryImage.full(size, size)
    write_pgm(ifs_iterate(make(), start, args.steps), args.out)


def _boxdim(args) -> None:
    from .formats import read_pgm, write_rows_csv
    from .fractals import BinaryImage, box_count_dimension

    bits = BinaryImage(bits=read_pgm(args.input).pixels[::-1] >= 128)
    estimate, pts = box_count_dimension(bits, args.min_exp, args.max_exp)
    if args.out:
        write_rows_csv(args.out, ["x", "y"], ([x, y] for x, y in pts))
    print(f"dimension {estimate:.17g}")


def _simdim(args) -> None:
    from .similarity import similarity_dimension

    print(f"dimension {similarity_dimension(args.copies, args.ratio):.17g}")


def _compress(args) -> None:
    from .compression import pifs_encode
    from .formats import read_pgm, write_bytes_atomic

    code = pifs_encode(read_pgm(args.input), **_given(args, "range_size", "domain_step", "s_max"))
    write_bytes_atomic(args.out, code.to_bytes())


def _decompress(args) -> None:
    from .compression import decode_container
    from .formats import write_pgm

    write_pgm(decode_container(args.input.read_bytes(), args.iterations), args.out)


def _encrypt(args) -> None:
    from .cipher import ChaosKey, pack_container
    from .formats import write_bytes_atomic

    mu, x0 = _resolve_key(args)
    key = ChaosKey(mu=mu, x0=x0, **_given(args, "warmup"))
    write_bytes_atomic(args.out, pack_container(key, args.input.read_bytes()))


def _decrypt(args) -> None:
    from .cipher import unpack_container
    from .formats import write_bytes_atomic

    mu, x0 = _resolve_key(args)
    write_bytes_atomic(args.out, unpack_container(mu, x0, args.input.read_bytes()))


def _avalanche(args) -> None:
    from .cipher import ChaosKey, avalanche_test

    mu, x0 = _resolve_key(args)
    key = ChaosKey(mu=mu, x0=x0, **_given(args, "warmup"))
    print(f"avalanche_fraction {avalanche_test(key, args.bytes, args.trials):.17g}")


def _flag(*names, **options):
    """One add_argument call: the flag's names and its options."""
    return names, options


# Flags that several commands share, each declared once.
_OUT = _flag("--out", required=True)
_IN = _flag("--in", dest="input", required=True)
_KEY = _flag("--key", help=f"mu,x0 (default: ${KEY_ENV_VAR})")
_WARMUP = _flag("--warmup", type=int, help=_WARMUP_HELP)
_SYSTEM = _flag("--system", required=True)
_X0 = _flag("--x0", help="comma-separated initial state")
_PARAMS = _flag("--params", help="comma-separated system parameters")
_INTEGRATOR = tuple(_flag("--" + name.replace("_", "-"), type=kind)
                    for name, kind in _INTEGRATOR_FLAGS.items())

#: Each command's (help line, runner, flags), in --help order.
COMMANDS = {
    "simulate": ("integrate a flow preset over a time span", _simulate, (
        _SYSTEM,
        _flag("--span", required=True, help="t0:t1"),
        _X0, _PARAMS, *_INTEGRATOR, _OUT)),
    "iterate": ("iterate a map preset", _iterate, (
        _SYSTEM,
        _flag("--steps", type=int, required=True),
        _flag("--discard", type=int),
        _X0, _PARAMS, _OUT)),
    "cobweb": ("graphical iteration of the logistic map", _cobweb, (
        _flag("--mu", type=float, default=3.8282),
        _flag("--x0", type=float, default=0.2),
        _flag("--steps", type=int, default=50),
        _OUT)),
    "bifurcate": ("logistic bifurcation-diagram scan", _bifurcate, (
        _flag("--mu-range", required=True, help="lo:hi"),
        _flag("--mu-steps", type=int, default=600),
        _flag("--x0", type=float, default=0.3),
        _flag("--discard", type=int, default=500),
        _flag("--keep", type=int, default=100),
        _OUT)),
    "divergence": ("twin-trajectory separation rate", _divergence, (
        _SYSTEM, _X0, _PARAMS,
        _flag("--delta0", type=float, default=1e-8),
        _flag("--t1", type=float, required=True),
        *_INTEGRATOR, _OUT)),
    "equilibria": ("equilibrium points of a flow", _equilibria, (_SYSTEM, _PARAMS, _OUT)),
    "mandelbrot": ("escape-time grid as PGM", _mandelbrot, (
        _flag("--window", default="-2.4:1.2:-1.5:1.5", help="xmin:xmax:ymin:ymax"),
        _flag("--scale", type=float, default=0.005),
        _flag("--nmax", type=int, default=50),
        _flag("--threshold", type=float),
        _OUT)),
    "ifs": ("deterministic IFS iteration as PGM", _ifs, (
        _flag("--preset", default="sierpinski"),
        _flag("--size", type=int, default=1024, help=f"2 to {IFS_MAX_SIZE}"),
        _flag("--steps", type=int, default=7),
        _OUT)),
    "boxdim": ("box-counting dimension of a PGM", _boxdim, (
        _IN,
        _flag("--min-exp", type=int, default=2),
        _flag("--max-exp", type=int, default=7),
        _flag("--out", type=lambda s: s or None,  # an empty --out writes no CSV
              help="optional CSV of the log-log fit points"))),
    "simdim": ("similarity dimension from copies and ratio", _simdim, (
        _flag("--copies", type=int, required=True),
        _flag("--ratio", type=float, required=True))),
    "compress": ("encode a PGM as block transforms", _compress, (
        _IN,
        _flag("--range-size", type=int),
        _flag("--domain-step", type=int),
        _flag("--s-max", type=float),
        _OUT)),
    "decompress": ("decode block transforms to a PGM", _decompress, (
        _IN,
        _flag("--iterations", type=int, default=10),
        _OUT)),
    "encrypt": ("stream-encrypt a file", _encrypt, (_IN, _KEY, _WARMUP, _OUT)),
    "decrypt": ("decrypt a stream-encrypted file", _decrypt, (_IN, _KEY, _OUT)),
    "avalanche": ("keystream sensitivity measurement", _avalanche, (
        _KEY, _WARMUP,
        _flag("--bytes", type=int, default=10240),
        _flag("--trials", type=int, default=16))),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every command's parser, or the named one's, which parses and errs alike."""
    parser = argparse.ArgumentParser(
        prog="chaoscope",
        description="Chaotic flows and maps, fractals, fractal image "
        "compression, and a logistic-map stream cipher.",
    )
    metavar = command and "{" + ",".join(COMMANDS) + "}"  # the full parser's usage line
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        summary, _, flags = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for names, options in flags:
            p.add_argument(*names, **options)
    return parser


# flags whose values may begin with "-" (windows, spans, negative states);
# they are joined into --flag=value form so argparse cannot mistake the
# value for an option
_VALUE_FLAGS = {"--window", "--span", "--x0", "--params", "--mu-range", "--key"}


def _normalize_argv(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list] = None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    try:  # only the named command's subparser, when argv names one
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if getattr(args, "input", None) is not None:
            if not Path(args.input).is_file():
                raise DomainError(f"input file does not exist: {args.input}")
            args.input = Path(args.input)
        if getattr(args, "out", None) is not None:
            out = Path(args.out)
            if not out.parent.is_dir():
                raise DomainError(f"output directory does not exist: {out.parent}")
            if out.is_dir():
                raise IsADirectoryError(f"output is a directory: {out}")
        if sys.stdout is None and args.command in _PRINTING_COMMANDS:
            raise OSError("no stdout to print the result on")
        COMMANDS[args.command][1](args)
    except (ChaoscopeError, OSError) as exc:
        return _report(f"chaoscope {args.command}", exc)
    return 0


def _report(prefix: str, exc: Exception) -> int:
    """Print the one-line diagnostic of exc; return its exit code."""
    if isinstance(exc, DomainError) and not isinstance(exc, FormatError):
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
    print(f"{prefix}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def run() -> None:
    """Run main on sys.argv, flush stdout and stderr, and end the process.

    A flush that fails leaves its bytes in the buffer, so stdout is flushed
    once and the process ends with ``os._exit``, which flushes nothing.
    """
    argv = sys.argv[1:]
    code = main(argv)
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        sys.stdout = None  # so that a normal exit, under a tracer, does not flush it again
        # the top-level parser takes no positional but the command
        command = argv[0] if argv and not argv[0].startswith("-") else None
        code = _report(f"chaoscope {command}" if command else "chaoscope", exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    if sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
