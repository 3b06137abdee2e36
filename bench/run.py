"""chaoscope benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 bench/run.py --workload dynamics --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  With --trace 0 every command runs as a real
`python -m chaoscope` child, whole passes over the workload repeat for
about --seconds, and the end-to-end metrics come out, their times scaled
by a fixed reference load timed between the commands (see untraced_run).  With
--trace 1 the same commands run once more as children (for the per-command
times), then twice each in this process through `cli.main`, once with
every layer function traced and once plain, and the per-layer metrics
come out.
Every output of every command is checked (see oracles.py); a failed check
counts as a failed operation and never stops the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full results, the run environment and the
trace's spans go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES_FIRST = 5
SETUP_SAMPLES_PER_PASS = 2
MICRO_REPEATS = 5
# The yardstick of the end-to-end times (see untraced_run), and its median
# wall time on the machine the bounds were set on: 2 vCPUs of a shared
# Intel Xeon at 2.0 GHz.  REFERENCE_S only turns reference units back into
# seconds; a change to it rescales every result alike.
REFERENCE_LOAD = BENCH / "reference_load.py"
REFERENCE_S = 0.3
# One BLAS thread in this process and in every child.  numpy's OpenBLAS
# otherwise starts a worker per core at import, which spins and then waits
# at exit: on a machine with few shared cores that adds about 0.1 s of wall
# time to every command, varying with whatever else the scheduler runs.
# Set before anything imports numpy; children inherit it.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD_BLAS)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
SUBCOMMANDS = (
    "simulate", "iterate", "cobweb", "bifurcate", "divergence", "equilibria",
    "mandelbrot", "ifs", "boxdim", "simdim", "compress", "decompress",
    "encrypt", "decrypt", "avalanche",
)
PER_LAYER = {
    "python.start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.overhead_ms": "ms",
    "integrate.steps": "count",
    "integrate.rejected": "count",
    "integrate.field_evals": "count",
    "integrate.us_per_step": "us",
    "integrate.map_us_per_iter": "us",
    "systems.lorenz_us_per_eval": "us",
    "systems.chua_us_per_eval": "us",
    "analysis.divergence_self_ms": "ms",
    "analysis.bifurcate_ns_per_iter": "ns",
    "cipher.keystream_ns_per_byte": "ns",
    "cipher.avalanche_ms": "ms",
    "fractals.escape_ns_per_pixel_iter": "ns",
    "fractals.escape_useful_ratio": "ratio",
    "fractals.escape_peak_bytes_per_px": "B",
    "fractals.ifs_ms": "ms",
    "fractals.boxdim_ms": "ms",
    "compression.encode_ms_per_block": "ms",
    "compression.candidates": "count",
    "compression.decode_ms_per_pass": "ms",
    "compression.from_bytes_ms": "ms",
    "formats.csv_ns_per_value": "ns",
    "formats.pgm_write_ms": "ms",
    "formats.read_pgm_ms": "ms",
    "formats.bytes_written": "B",
    **{f"cmd.{sub}.wall_s": "s" for sub in SUBCOMMANDS},
    "trace.overhead_s": "s",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chaoscope.cli; "
    "print(time.perf_counter() - t)"
)


class Ledger:
    """Counts attempted and failed operations; caches check verdicts.

    A verdict is cached per (command, output digest): a later pass that
    writes the same bytes has the same verdict without re-running the
    oracle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.verdicts = {}

    def record(self, cmd, rc: int, stdout: str, stderr: str) -> bool:
        self.attempted += 1
        reason = None
        if rc != 0:
            last = stderr.strip().splitlines()[-1:]
            reason = f"exit {rc}: {last[0] if last else ''}"
        else:
            digest = hashlib.sha256(stdout.encode())
            if cmd.out is not None:
                try:
                    digest.update(cmd.out.read_bytes())
                except OSError as exc:
                    reason = f"no output: {exc}"
            if reason is None:
                key = (cmd.name, digest.hexdigest())
                if key not in self.verdicts:
                    self.verdicts[key] = cmd.check(cmd.out, stdout)
                reason = self.verdicts[key]
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{cmd.name}: {reason}")
            print(f"FAILED {cmd.name}: {reason}", file=sys.stderr)
        return reason is None


class Child:
    """Runs commands as `python -m chaoscope` children and measures each."""

    def __init__(self, work: Path, ledger: Ledger):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.stdout = work / "child.stdout"
        self.stderr = work / "child.stderr"
        self.ledger = ledger

    def spawn(self, args):
        """Run `python *args`; return (exit code, wall s, cpu s, max RSS KiB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        cpu = usage.ru_utime + usage.ru_stime
        return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss

    def run(self, cmd):
        """Run one workload command and check its output; return its measures."""
        if cmd.out is not None and cmd.out.exists():
            cmd.out.unlink()
        rc, wall, cpu, rss = self.spawn(["-m", "chaoscope", *cmd.argv])
        self.ledger.record(cmd, rc, self.stdout.read_text(errors="replace"),
                           self.stderr.read_text(errors="replace"))
        return {"wall_s": wall, "cpu_s": cpu, "max_rss_kib": rss}


def another_pass_fits(start: float, done: int, seconds: float) -> bool:
    """True while one more pass, of the mean length so far, would end no
    more than half a pass after `seconds`: runs measure `seconds` give or
    take half a pass, whatever the pass length."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done <= seconds


def reference_seconds(child: Child):
    """Wall and CPU time of one run of the reference load, as a child."""
    rc, wall, cpu, _ = child.spawn([str(REFERENCE_LOAD)])
    if rc != 0:
        raise RuntimeError(f"the reference load failed: {child.stderr.read_text()}")
    return wall, cpu


def untraced_run(cmds, setup, child: Child, seconds: float):
    """Whole passes as children for about `seconds`; end-to-end metrics.

    On the shared machine the bounds were set on, one command took up to
    1.7 times as long from one minute to the next as other tenants came
    and went, and a whole run could sit in a slow spell, so no statistic
    over a run's own samples was steady.  The reference load therefore runs
    between every two timed commands, and each command's times are scaled
    by REFERENCE_S over the mean of the reference times just before and
    after it (wall by wall, CPU by CPU): the result is in seconds at the
    reference machine's speed.
    """
    child.run(setup)  # warm-up: bytecode caches and the page cache fill here
    refs = [reference_seconds(child)]

    def measure(cmd):
        m = child.run(cmd)
        refs.append(reference_seconds(child))
        for i, key in enumerate(("wall_s", "cpu_s")):
            m[f"{key}_scale"] = REFERENCE_S / statistics.mean(r[i] for r in refs[-2:])
        return m

    setups = [measure(setup) for _ in range(SETUP_SAMPLES_FIRST)]
    samples = defaultdict(list)
    peaks = []
    start = time.perf_counter()
    while True:
        measures = [measure(c) for c in cmds]
        for c, m in zip(cmds, measures):
            samples[c.name].append(m)
        peaks.append(max(m["max_rss_kib"] for m in measures))
        setups += [measure(setup) for _ in range(SETUP_SAMPLES_PER_PASS)]
        if not another_pass_fits(start, len(peaks), seconds):
            break

    def scaled_median(ms, key):
        return statistics.median(m[key] * m[f"{key}_scale"] for m in ms)

    metrics = {
        "wall_s": sum(scaled_median(samples[c.name], "wall_s") for c in cmds),
        "cpu_s": sum(scaled_median(samples[c.name], "cpu_s") for c in cmds),
        "peak_rss_mib": statistics.median(peaks) / 1024.0,
        "setup_s": scaled_median(setups, "wall_s"),
    }
    details = {"passes": len(peaks), "reference_s": refs, "setup": setups,
               "commands": dict(samples)}
    return metrics, details


def run_in_process(cmd, ledger: Ledger, tracer=None) -> float:
    """Call cli.main for one command in this process; return its seconds."""
    from chaoscope import cli

    if cmd.out is not None and cmd.out.exists():
        cmd.out.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.cmd = cmd.name
            span = tracer.open("cli.main")
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
        except Exception:  # a crash is a failed operation, not a stopped run
            traceback.print_exc()
            rc = 1
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
    if tracer is not None and cmd.out is not None and cmd.out.exists():
        span.counts["bytes_written"] = cmd.out.stat().st_size
    ledger.record(cmd, rc, out.getvalue(), err.getvalue())
    return seconds


def traced_run(cmds, setup, child: Child, seconds: float, ledger: Ledger):
    """Per-layer metrics: CLI micro-costs, then passes for about `seconds`."""
    import tracing

    child.run(setup)  # warm-up
    metrics = {
        "python.start_ms": 1e3 * statistics.median(
            child.spawn(["-c", "pass"])[1] for _ in range(MICRO_REPEATS)),
        "cli.import_ms": 1e3 * statistics.median(import_seconds(child)
                                                 for _ in range(MICRO_REPEATS)),
    }
    sys.path.insert(0, str(SRC))
    from chaoscope import cli

    parse = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for cmd in cmds:
            cli.build_parser().parse_args(list(cmd.argv))
        parse.append((time.perf_counter() - t0) / len(cmds))
    metrics["cli.parse_ms"] = 1e3 * statistics.median(parse)
    metrics["systems.lorenz_us_per_eval"] = tracing.field_eval_us("lorenz", (1.0, 2.0, 20.0))
    metrics["systems.chua_us_per_eval"] = tracing.field_eval_us("chua", (0.5, 0.1, -0.3))

    iterations = []
    span_passes = []
    start = time.perf_counter()
    while True:
        per_sub = defaultdict(float)
        for cmd in cmds:
            per_sub[cmd.sub] += child.run(cmd)["wall_s"]
        # each command runs traced, then at once untraced, so the machine's
        # speed drifts little between the two halves of a pair; traced
        # first, so one-time costs inflate the overhead rather than hide it
        tracer = tracing.Tracer()
        traced = plain = 0.0
        for cmd in cmds:
            tracer.install()
            try:
                traced += run_in_process(cmd, ledger, tracer)
            finally:
                tracer.uninstall()
            plain += run_in_process(cmd, ledger)
        layer = tracing.layer_metrics(tracer.spans)
        layer.update({f"cmd.{sub}.wall_s": per_sub[sub] for sub in SUBCOMMANDS})
        layer["trace.overhead_s"] = traced - plain
        iterations.append(layer)
        span_passes.append(tracer.dump())
        if not another_pass_fits(start, len(iterations), seconds):
            break
    for key in iterations[0]:
        metrics[key] = statistics.median(it[key] for it in iterations)
    return metrics, {"iterations": iterations}, span_passes


def import_seconds(child: Child) -> float:
    rc, _, _, _ = child.spawn(["-c", IMPORT_PROBE])
    if rc != 0:
        raise RuntimeError(f"importing chaoscope.cli failed: {child.stderr.read_text()}")
    return float(child.stdout.read_text())


def environment() -> dict:
    """What a reader needs to compare two results: machine and versions."""
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is itself a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    import gen_inputs
    import workloads

    parser = argparse.ArgumentParser(description="chaoscope benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chaoscope" / "cli.py").is_file():
        print(f"chaoscope sources not found under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        inputs = gen_inputs.generate(args.seed, work / "inputs")
        cmds = workloads.WORKLOADS[args.workload](inputs, work / "out", args.seed)
        setup = workloads.setup_command()
        ledger = Ledger()
        child = Child(work, ledger)
        if args.trace == 0:
            metrics, details = untraced_run(cmds, setup, child, args.seconds)
            units = END_TO_END
        else:
            # commands this workload lacks run at their tour-small size, so
            # every workload reports every layer and every subcommand
            have = {c.sub for c in cmds}
            probes = [c for c in workloads.tour_small(inputs, work / "out", args.seed)
                      if c.sub not in have]
            metrics, details, span_passes = traced_run(
                cmds + probes, setup, child, args.seconds, ledger)
            tracing_spans = results / f"{tag}-spans.json"
            tracing_spans.write_text(json.dumps({"passes": span_passes}))
            units = PER_LAYER
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from the declared one: {sorted(missing)}")
    report = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (results / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": environment(), "failures": ledger.failures,
         "report": report, "details": details}, indent=1, default=str))
    for k in units:
        print(f"{k} {metrics[k]!r} {units[k]}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
