"""Golden digests of the CLI tour: every command's stdout and output bytes.

Criterion 10 only checks that two runs of one build agree; this test pins
the outputs across builds.  Each command of ``_determinism_cases`` runs
once, and the SHA-256 of its stdout and of its output file must equal the
digest committed in ``golden/cli_digests.json``.  The codec cases add
``compress`` runs on seeded photo-like images (textured, edged and noisy,
one of them non-square) and ``decompress`` of each resulting code, which
the tour's flat ramp barely exercises.  The large cases add the
benchmark's ``bifurcate`` run: its 100k rows cross many CSV blocks and
repeat each parameter 100 times, where the tour's 25 rows fit in one
block.  They also add the benchmark's two ``mandelbrot`` windows, a
zoom on the neck at -0.75 at nmax 3000, whose pixels lie mostly inside
the main cardioid and the period-2 bulb or at their common boundary, and
a deep zoom near -0.7435 + 0.1318i at nmax 3000, whose counts depend on
how numpy's complex square rounds.
Last come the benchmark's flow and map runs: Lorenz and Chua ``simulate``
over 0:40 at tolerance 1e-8 (thousands of integrator steps, where the
tour's run takes a few hundred), Lorenz ``divergence`` to t1 = 40, and a
40k-iterate Henon orbit.  The digests must hold both for ``cli.main``
called in this process and for real ``python -m chaoscope`` processes,
which end through ``cli.run``.

Digests pin bits, not correctness, so every case must also pass an
independent check from the benchmark's ``bench/oracles.py``.  Each tour
case uses the check of the ``workloads.tour_small`` command with its
flags, and the seven large cases taken from the benchmark their workload
command's, found by command line in ``bench/workloads.py``.  The codec
cases use the same ``compress`` and ``decompress`` checks on their own
images, and the neck and deep zooms, which no workload runs, the
escape-time check on their own windows.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py

which prints the cases whose digests changed and writes nothing when a
case fails its check.  Record the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import chaoscope
from chaoscope.cli import _normalize_argv, main

from chaoscope.formats import write_pgm

from conftest import make_photo
from test_acceptance import _determinism_cases

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
SRC = str(Path(chaoscope.__file__).parents[1])
sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))

import oracles  # noqa: E402
import workloads  # noqa: E402

#: Seeds the pixels that the escape-time checks sample.
ORACLE_SEED = 2026
NECK = (-0.755, -0.745, -0.005, 0.005)
DEEP = (-0.7440, -0.7430, 0.1313, 0.1323)

# name -> (height, width, seed, extra compress flags)
CODEC_CASES = {
    "photo128": (128, 128, 2026, []),
    "photo128_rs4": (128, 128, 2026, ["--range-size", "4", "--domain-step", "4",
                                      "--s-max", "0.5"]),
    "photo96x64": (64, 96, 2027, []),
}

# name -> (output file suffix, argv) of a larger run than the tour's
LARGE_CASES = {
    "bifurcate_1000x100": (".csv", ["bifurcate", "--mu-range", "2.8:4.0", "--mu-steps", "1000",
                                    "--discard", "500", "--keep", "100"]),
    "mandelbrot_overview": (".pgm", ["mandelbrot", "--window=-2.4:1.2:-1.5:1.5",
                                     "--scale", "0.004", "--nmax", "100"]),
    "mandelbrot_zoom": (".pgm", ["mandelbrot", "--window=-0.8:-0.7:0.05:0.15",
                                 "--scale", "4e-4", "--nmax", "300"]),
    "mandelbrot_neck_3000": (".pgm", ["mandelbrot", workloads.window_flag(NECK),
                                      "--scale", "4e-5", "--nmax", "3000"]),
    "mandelbrot_deep_3000": (".pgm", ["mandelbrot", workloads.window_flag(DEEP),
                                      "--scale", "2e-6", "--nmax", "3000"]),
    "simulate_lorenz_1e-8": (".csv", ["simulate", "--system", "lorenz", "--span", "0:40",
                                      "--rel-tol", "1e-8", "--abs-tol", "1e-8"]),
    "simulate_chua_1e-8": (".csv", ["simulate", "--system", "chua", "--span", "0:40",
                                    "--rel-tol", "1e-8", "--abs-tol", "1e-8"]),
    "divergence_lorenz_40": (".csv", ["divergence", "--system", "lorenz", "--t1", "40",
                                      "--rel-tol", "1e-6", "--abs-tol", "1e-6"]),
    "iterate_henon_40000": (".csv", ["iterate", "--system", "henon", "--steps", "40000",
                                     "--discard", "49"]),
}


def _run(argv):
    """Run argv through cli.main in this process; return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


def _run_child(argv):
    """Run argv as a ``python -m chaoscope`` process; return its stdout.

    stdout is a pipe, block-buffered since PYTHONUNBUFFERED is removed, so
    the printed lines reach it only through the flush in ``cli.run``; no
    bytecode is written, as in the benchmark's children.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=SRC)
    child = subprocess.run([sys.executable, "-m", "chaoscope", *argv], env=env,
                           capture_output=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, b""), (argv, child.returncode, child.stderr)
    return child.stdout.decode("utf-8")


def _codec_cases(root: Path):
    """compress each seeded photo, then decompress the code it wrote."""
    cases = []
    for name, (height, width, seed, flags) in CODEC_CASES.items():
        pgm, fic = root / f"{name}.pgm", root / f"{name}.fic"
        write_pgm(make_photo(height, width, seed), pgm)
        cases.append((f"compress_{name}", ["compress", "--in", str(pgm)] + flags,
                      [str(fic)]))
        cases.append((f"decompress_{name}", ["decompress", "--in", str(fic)],
                      [str(root / f"{name}_dec.pgm")]))
    return cases


def run_cases(root: Path, run=_run) -> dict:
    """Run every tour, codec and large case under root with run(argv) ->
    stdout; map name -> (stdout, output path or None)."""
    cases, ifs_pgm, fic, chx, secret = _determinism_cases(root)
    cases = cases + _codec_cases(root)
    cases += [(name, argv, [str(root / f"{name}{suffix}")])
              for name, (suffix, argv) in LARGE_CASES.items()]
    run(["ifs", "--size", "128", "--steps", "4", "--out", str(ifs_pgm)])
    run(["compress", "--in", str(root / "in_ramp.pgm"), "--out", str(fic)])
    run(["encrypt", "--in", str(secret), "--key", "3.9,0.3", "--out", str(chx)])

    outputs = {}
    for name, argv, outs in cases:
        cmd = list(argv) + (["--out", outs[0]] if outs is not None else [])
        outputs[name] = run(cmd), Path(outs[0]) if outs is not None else None
    return outputs


def digests_of(outputs: dict) -> dict:
    """Map name -> stdout and output digests."""
    return {
        name: {
            "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "out": hashlib.sha256(out.read_bytes() if out is not None else b"").hexdigest(),
        }
        for name, (stdout, out) in outputs.items()
    }


def compute_digests(root: Path, run=_run) -> dict:
    return digests_of(run_cases(root, run))


def _flags(argv) -> tuple:
    """argv in --flag=value form, without its --in and --out files."""
    args = _normalize_argv(list(argv))
    files = {i + 1 for i, arg in enumerate(args) if arg in ("--in", "--out")}
    return tuple(arg for i, arg in enumerate(args)
                 if i not in files and arg not in ("--in", "--out"))


def all_of(*checks):
    """A check that fails with the reason of the first of checks that fails."""
    return lambda out, stdout: next(filter(None, (c(out, stdout) for c in checks)), None)


def escape_classes(window, scale: float, nmax: int, seed: int, samples: int = 200):
    """A check of a ``mandelbrot`` PGM on a window of mostly one kind of
    pixel, where ``oracles.mandelbrot``'s uniform sample barely sees the
    other kind: up to ``samples`` seeded pixels that the image shows
    escaping (a byte below 255), and as many of the rest, each class
    matching ``oracles.escape_count`` at that check's 97%."""
    xmin, _, ymin, _ = window
    levels = np.rint(255.0 * (np.arange(1, nmax + 1) - 1.0) / (nmax - 1.0))

    def run(path, stdout):
        img = oracles.read_pgm(path)
        rng = np.random.default_rng(seed)
        for kind, pixels in (("escaping", np.flatnonzero(img < 255)),
                             ("other", np.flatnonzero(img == 255))):
            oracles.expect(len(pixels) > 0, f"no {kind} pixel")
            picked = rng.choice(pixels, min(samples, len(pixels)), replace=False)
            agree = 0
            for r, col in zip(*np.divmod(picked, img.shape[1])):
                c = complex(xmin + scale * col, ymin + scale * (img.shape[0] - 1 - r))
                agree += int(img[r, col] == levels[oracles.escape_count(c, nmax, 4.0) - 1])
            oracles.expect(agree >= 0.97 * len(picked),
                           f"only {agree}/{len(picked)} sampled {kind} pixels match")

    return oracles.guarded(run)


def case_checks(root: Path) -> dict:
    """Map each case to its oracle check.

    A tour or large case takes the check of the benchmark command with its
    flags, from ``workloads.tour_small`` or a workload, built on the tour's
    input files under root.  A codec case takes the same ``compress`` and
    ``decompress`` checks on its own image, range size and pass count.
    """
    inputs = {"payload.bin": root / "payload.bin", "photo128.pgm": root / "photo128.pgm",
              "code512.fic": root / "code512.fic", "secret.bin": root / "in_secret.bin",
              "photo64.pgm": root / "in_ramp.pgm", "code64.fic": root / "in_ramp.fic"}

    def by_flags(*makers):
        return {_flags(cmd.argv): cmd.check
                for make in makers for cmd in make(inputs, root, ORACLE_SEED)}

    tour, large = by_flags(workloads.tour_small), by_flags(*workloads.WORKLOADS.values())
    checks = {name: tour[_flags(argv)] for name, argv, _ in _determinism_cases(root)[0]}
    checks.update((name, large[_flags(argv)]) for name, (_, argv) in LARGE_CASES.items()
                  if _flags(argv) in large)
    for name, window, scale in (("mandelbrot_neck_3000", NECK, 4e-5),
                                ("mandelbrot_deep_3000", DEEP, 2e-6)):
        checks[name] = all_of(oracles.mandelbrot(window, scale, 3000, ORACLE_SEED),
                              escape_classes(window, scale, 3000, ORACLE_SEED))
    for name, (height, width, seed, flags) in CODEC_CASES.items():
        given = dict(zip(flags[::2], flags[1::2]))
        floor = workloads.PSNR_FLOOR_128 if height * width >= 128 * 128 else workloads.PSNR_FLOOR_64
        checks[f"compress_{name}"] = oracles.encoded(
            root / f"{name}.pgm", int(given.get("--range-size", 8)), floor)
        checks[f"decompress_{name}"] = oracles.decoded(root / f"{name}.fic", 10)
    return checks


def oracle_failures(root: Path, outputs: dict) -> dict:
    """Map each case whose output fails its check to the reason."""
    reasons = {name: check(outputs[name][1], outputs[name][0])
               for name, check in case_checks(root).items()}
    return {name: reason for name, reason in reasons.items() if reason is not None}


def test_every_large_case_has_an_oracle(tmp_path):
    assert set(LARGE_CASES) <= set(case_checks(tmp_path))


def test_every_golden_case_has_an_oracle(tmp_path):
    assert set(case_checks(tmp_path)) == set(json.loads(GOLDEN.read_text()))


def test_cli_outputs_match_golden_digests(tmp_path):
    outputs = run_cases(tmp_path)
    assert oracle_failures(tmp_path, outputs) == {}
    assert digests_of(outputs) == json.loads(GOLDEN.read_text())


def test_cli_processes_match_golden_digests(tmp_path):
    """Every case as its own process: each stdout line and output byte is
    complete when the process ends, and no temp file is left behind."""
    assert compute_digests(tmp_path, _run_child) == json.loads(GOLDEN.read_text())
    assert list(tmp_path.rglob("*.tmp")) == []


def openblas_core():
    """The core type that numpy's bundled OpenBLAS chose when it loaded, or
    None where numpy bundles no ``scipy_openblas64`` library."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


#: The numpy loops, as (ufunc, loop signature), whose SIMD level the
#: dispatch variants set: float64 ``log``, which rounds otherwise than libm
#: and which no output may call, and complex128 ``square``, which the
#: escape-time kernel runs.
DISPATCHED = (("log", "dd"), ("square", "DD"))


def numpy_dispatch(field: str = "current") -> dict:
    """Each DISPATCHED loop's SIMD level as numpy reports it ("current": the
    level it runs, "available": all it was built with), or {} where numpy
    does not report it."""
    try:
        from numpy._core._multiarray_umath import __cpu_targets_info__ as info
    except ImportError:
        return {}
    return {ufunc: info[ufunc][sig][field] for ufunc, sig in DISPATCHED}


def _child_digests(root: Path, **env) -> tuple:
    """The OpenBLAS core, the numpy dispatch and every digest, computed in a
    fresh process with env added to its environment."""
    paths = [SRC, str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    script = (
        "import json, sys; from pathlib import Path; "
        "from test_golden import compute_digests, numpy_dispatch, openblas_core; "
        "print(json.dumps([openblas_core(), numpy_dispatch(), "
        "compute_digests(Path(sys.argv[1]))]))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(root)],
        env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return tuple(json.loads(child.stdout))


#: variant -> (environment of the child, the SIMD level each DISPATCHED
#: loop must then run, or None when numpy's dispatch is not the variant,
#: and the cases whose digests are expected to differ under it).
CPU_VARIANTS = {
    # an AVX2 CPU's numpy loops
    "numpy_X86_V3": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, "X86_V3",
                     set()),
    # an SSE4.2 CPU's numpy loops: complex square without FMA changes 259 of
    # the deep zoom's 251,016 bytes
    "numpy_X86_V2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
                     "baseline(X86_V2)", {"mandelbrot_deep_3000"}),
    # glibc's libm without FMA: its pow, the step controller's **, rounds
    # otherwise, which changes these flow runs
    "glibc_no_fma": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}, None,
                     {"divergence", "divergence_lorenz_40", "simulate_lorenz_1e-8",
                      "simulate_chua_1e-8"}),
}
THREADS = ["1", "2"]
CORES = ["Haswell", "Sandybridge"]
#: (test, parameter) -> the environment its child adds, for each of the
#: seven tests below that recompute every digest in a fresh process.
CHILD_ENVS = {
    **{("threads", n): {"OPENBLAS_NUM_THREADS": n} for n in THREADS},
    **{("core", core): {"OPENBLAS_CORETYPE": core} for core in CORES},
    **{("variant", name): env for name, (env, _, _) in CPU_VARIANTS.items()},
}


def _skip_reason(kind: str, name: str):
    """Why this machine cannot run the child of CHILD_ENVS[kind, name], or None."""
    if kind == "threads":
        return None
    x86 = platform.machine().lower() in ("x86_64", "amd64")
    if kind == "core":
        return None if x86 and openblas_core() is not None else (
            "needs numpy's bundled OpenBLAS on x86-64")
    if not x86:
        return "the variants are x86-64 CPUs"
    if platform.libc_ver()[0] != "glibc":
        return "the committed digests and the libm variant are glibc's"
    level, available = CPU_VARIANTS[name][1], numpy_dispatch("available")
    if level is not None and not all(level in levels.split() for levels in available.values()):
        return f"numpy here has no {level} loop for each of {DISPATCHED}: {available}"
    return None


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Map (kind, name) -> the future of _child_digests for each child of
    CHILD_ENVS that this machine can run.  All are submitted when the first
    of the tests below starts and run two at a time, while the tests take
    their results in order; a child not yet started when the module ends
    (a run of some of the tests) is cancelled."""
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        yield {key: pool.submit(_child_digests, tmp_path_factory.mktemp(key[1]), **env)
               for key, env in CHILD_ENVS.items() if _skip_reason(*key) is None}
    finally:
        pool.shutdown(cancel_futures=True)


def _child(children, kind: str, name: str) -> tuple:
    """What the child of CHILD_ENVS[kind, name] returned; skips the test
    where this machine cannot run it."""
    reason = _skip_reason(kind, name)
    if reason is not None:
        pytest.skip(reason)
    return children[kind, name].result()


@pytest.mark.parametrize("threads", THREADS)
def test_golden_digests_do_not_depend_on_blas_threads(threads, children):
    """The digests hold in a fresh process with OPENBLAS_NUM_THREADS=1 and =2.

    The thread count is read when numpy loads, hence the subprocess.  This
    covers any BLAS or LAPACK call of the tour splitting its work over a
    different number of threads.
    """
    _, _, digests = _child(children, "threads", threads)
    assert digests == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("core", CORES)
def test_golden_digests_do_not_depend_on_the_openblas_core(core, children):
    """The digests hold in a fresh process whose OpenBLAS runs the kernels of
    another x86-64 core, chosen by OPENBLAS_CORETYPE.

    numpy's bundled OpenBLAS picks its kernels by CPU when it loads, so
    this runs, on one machine, the kernels that an AVX2 (Haswell) or AVX
    (Sandybridge) CPU would run.  An unknown name falls back to the native
    core silently, so the child reports the core OpenBLAS really chose,
    which must be the one asked for.  Other CPU families,
    other BLAS builds and other numpy versions are not covered.
    """
    chosen, _, digests = _child(children, "core", core)
    assert chosen == core
    assert digests == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_golden_digests_under_other_x86_64_cpus(variant, children):
    """Every digest recomputed in a fresh process that runs the numpy loops
    or the glibc libm of another x86-64 CPU: exactly the listed cases differ
    from their committed digests.

    NPY_DISABLE_CPU_FEATURES caps numpy's run-time SIMD dispatch, and
    silently ignores a name it does not know, so the child reports the
    level that float64 log and complex square really run, which must be the
    one asked for.  GLIBC_TUNABLES masks the CPU features glibc picks its
    libm variants by.  Both act on the child only.  A listed case that
    matches fails the test as an unlisted case that differs does, so the
    list shrinks as outputs stop depending on the CPU.  Not covered: other
    CPU families (aarch64), other C libraries (musl) and other numpy
    versions.
    """
    _, dispatch, digests = _child(children, "variant", variant)
    _, level, differ = CPU_VARIANTS[variant]
    if level is not None:
        assert dispatch == {ufunc: level for ufunc, _ in DISPATCHED}
    golden = json.loads(GOLDEN.read_text())
    assert digests.keys() == golden.keys()
    assert {name for name in golden if digests[name] != golden[name]} == differ


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_cases(Path(tmp))
        failures = oracle_failures(Path(tmp), outputs)
        digests = digests_of(outputs)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = sorted(name for name in digests.keys() | old.keys()
                     if digests.get(name) != old.get(name))
    print("changed: " + (", ".join(changed) or "none"))
    for name, reason in failures.items():
        print(f"{name} fails its oracle: {reason}", file=sys.stderr)
    if failures:
        sys.exit(f"not writing {GOLDEN}: {len(failures)} case(s) fail their oracles")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
