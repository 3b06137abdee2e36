"""In-process tracing of chaoscope's layers, from outside the package.

`Tracer.install()` replaces each public layer function listed in LAYERS,
wherever a chaoscope module holds a reference to it, with a wrapper that
records a span (name, start, end, parent span, command id) and counts at
the same boundary; `uninstall()` puts the originals back.  Nothing under
src/ changes.  Spans stay in memory until the run writes them out once.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    cmd: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Counter:
    """Counting wrapper around a callable the program evaluates repeatedly."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


# Hooks run around one wrapped call.  `before(args)` may replace arguments
# (bound by name) and returns state for `after(args, result, state, span)`,
# which fills span.counts once the span is closed, outside its time.

def _integrate_before(args):
    args["field"] = Counter(args["field"])
    return args["field"]


def _integrate_after(args, result, counter, span):
    steps = len(result.times) - 1
    # Dormand-Prince: one initial evaluation, then six per attempted step
    attempts = (counter.calls - 1) // 6
    span.counts.update(steps=steps, field_evals=counter.calls, rejected=attempts - steps)


def _escape_before(args):
    tracemalloc.start()
    return None


def _escape_after(args, grid, state, span):
    counts = grid.counts
    span.counts.update(
        pixels=counts.size,
        useful=int(counts.sum(dtype="int64")),
        passes=int(counts.max()),
    )


def _escape_stop(span):
    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()


def _encode_after(args, code, state, span):
    image, rs, step = args["image"], args["range_size"], args["domain_step"]
    dsize = 2 * rs
    origins = len(range(0, image.height - dsize + 1, step)) * len(
        range(0, image.width - dsize + 1, step)
    )
    blocks = (image.width // rs) * (image.height // rs)
    span.counts.update(blocks=blocks, candidates=8 * origins * blocks)


def _csv_after(args, result, state, span):
    with open(args["path"], "rb") as fh:
        data = fh.read()
    rows = data.count(b"\n") - 1
    cols = data[: data.index(b"\n")].count(b",") + 1
    span.counts["values"] = rows * cols


@dataclass(frozen=True)
class Hook:
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    stop: Optional[Callable] = None  # runs when the call ends, inside the span


def _count(**fns):
    return Hook(after=lambda args, result, state, span: span.counts.update(
        {k: f(args) for k, f in fns.items()}))


#: (module, public function, hook): the layer boundaries the tracer wraps.
LAYERS = [
    ("integrate", "integrate", Hook(_integrate_before, _integrate_after)),
    ("integrate", "iterate_map", _count(iters=lambda a: a["n"] - 1)),
    ("analysis", "divergence_rate", Hook()),
    ("analysis", "bifurcation_scan",
     _count(iters=lambda a: a["p_steps"] * (a["discard"] + a["keep"]))),
    ("analysis", "cobweb_trace", Hook()),
    ("analysis", "lorenz_equilibria", Hook()),
    ("cipher", "keystream", _count(bytes=lambda a: a["n"])),
    ("cipher", "avalanche_test", Hook()),
    ("cipher", "pack_container", Hook()),
    ("cipher", "unpack_container", Hook()),
    ("fractals", "mandelbrot_grid", Hook(_escape_before, _escape_after, _escape_stop)),
    ("fractals", "ifs_iterate", Hook()),
    ("fractals", "box_count_dimension", Hook()),
    ("fractals", "similarity_dimension", Hook()),
    ("compression", "pifs_encode", Hook(after=_encode_after)),
    ("compression", "pifs_decode", _count(passes=lambda a: a["iterations"])),
    ("formats", "write_rows_csv", Hook(after=_csv_after)),
    ("formats", "write_trajectory_csv", Hook()),
    ("formats", "write_divergence_csv", Hook()),
    ("formats", "write_pgm", Hook()),
    ("formats", "read_pgm", Hook()),
]
CSV_WRITERS = {"formats.write_rows_csv", "formats.write_trajectory_csv",
               "formats.write_divergence_csv"}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.cmd: Optional[str] = None
        self.patched = []

    def open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            cmd=self.cmd,
            parent=self.stack[-1].id if self.stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Hook) -> Callable:
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            named = bound.arguments
            span = tracer.open(name)
            try:
                state = hook.before(named) if hook.before else None
                result = fn(*bound.args, **bound.kwargs)
            finally:
                if hook.stop:
                    hook.stop(span)
                tracer.close(span)
            if hook.after:
                hook.after(named, result, state, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every LAYERS function in every chaoscope module that holds it."""
        for mod_name, attr, hook in LAYERS:
            module = importlib.import_module(f"chaoscope.{mod_name}")
            orig = getattr(module, attr)
            self._replace(orig, self.wrap(f"{mod_name}.{attr}", orig, hook))
        compression = importlib.import_module("chaoscope.compression")
        code_cls = compression.PifsCode
        orig = code_cls.__dict__["from_bytes"]
        traced = self.wrap("compression.from_bytes", orig.__func__, Hook())
        code_cls.from_bytes = classmethod(traced)
        self.patched.append((code_cls, "from_bytes", orig))

    def _replace(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "chaoscope" and not name.startswith("chaoscope."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    self.patched.append((module, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.patched):
            setattr(owner, key, orig)
        self.patched.clear()

    def dump(self) -> List[dict]:
        return [
            {"id": s.id, "name": s.name, "cmd": s.cmd, "parent": s.parent,
             "start": s.start, "end": s.end, "counts": s.counts}
            for s in self.spans
        ]


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (spans of that pass only).

    A command span is named "cli.main"; every other span is a library call.
    Self time of a span is its duration minus its direct children's.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name, key=None):
        group = by_name[name]
        return sum(s.counts[key] for s in group) if key else sum(s.seconds for s in group)

    def per(name, key, scale):
        units = total(name, key)
        if not units:
            raise RuntimeError(f"no {key} counted in {name} spans")
        return scale * total(name) / units

    def need(name):
        if not by_name[name]:
            raise RuntimeError(f"no {name} call was traced")
        return by_name[name]

    mains = need("cli.main")
    overhead = [s.seconds - sum(c.seconds for c in children[s.id]) for s in mains]
    divergence_self = sum(
        s.seconds - sum(c.seconds for c in children[s.id] if c.name == "integrate.integrate")
        for s in need("analysis.divergence_rate")
    )
    by_id = {s.id: s for s in spans}
    csv_outer = [s for s in spans if s.name in CSV_WRITERS
                 and (s.parent is None or by_id[s.parent].name not in CSV_WRITERS)]
    escapes = need("fractals.mandelbrot_grid")
    need("formats.write_pgm")
    need("formats.read_pgm")
    need("compression.from_bytes")
    return {
        "cli.overhead_ms": 1e3 * statistics.fmean(overhead),
        "integrate.steps": total("integrate.integrate", "steps"),
        "integrate.rejected": total("integrate.integrate", "rejected"),
        "integrate.field_evals": total("integrate.integrate", "field_evals"),
        "integrate.us_per_step": per("integrate.integrate", "steps", 1e6),
        "integrate.map_us_per_iter": per("integrate.iterate_map", "iters", 1e6),
        "analysis.divergence_self_ms": 1e3 * divergence_self,
        "analysis.bifurcate_ns_per_iter": per("analysis.bifurcation_scan", "iters", 1e9),
        "cipher.keystream_ns_per_byte": per("cipher.keystream", "bytes", 1e9),
        "cipher.avalanche_ms": 1e3 * sum(s.seconds for s in need("cipher.avalanche_test")),
        "fractals.escape_ns_per_pixel_iter": per("fractals.mandelbrot_grid", "useful", 1e9),
        "fractals.escape_useful_ratio": total("fractals.mandelbrot_grid", "useful")
        / sum(s.counts["passes"] * s.counts["pixels"] for s in escapes),
        "fractals.escape_peak_bytes_per_px": max(
            s.counts["peak_bytes"] / s.counts["pixels"] for s in escapes),
        "fractals.ifs_ms": 1e3 * sum(s.seconds for s in need("fractals.ifs_iterate")),
        "fractals.boxdim_ms": 1e3 * sum(s.seconds for s in need("fractals.box_count_dimension")),
        "compression.encode_ms_per_block": per("compression.pifs_encode", "blocks", 1e3),
        "compression.candidates": total("compression.pifs_encode", "candidates"),
        "compression.decode_ms_per_pass": per("compression.pifs_decode", "passes", 1e3),
        "compression.from_bytes_ms": 1e3 * total("compression.from_bytes"),
        "formats.csv_ns_per_value": 1e9 * sum(s.seconds for s in csv_outer)
        / total("formats.write_rows_csv", "values"),
        "formats.pgm_write_ms": 1e3 * total("formats.write_pgm"),
        "formats.read_pgm_ms": 1e3 * total("formats.read_pgm"),
        "formats.bytes_written": sum(s.counts.get("bytes_written", 0) for s in mains),
    }


def field_eval_us(preset_name: str, state, calls: int = 20000, repeats: int = 5) -> float:
    """Median time of one field evaluation of a flow preset, in microseconds."""
    import numpy as np
    from chaoscope import systems

    field = systems.preset(preset_name).field(None)
    y = np.asarray(state, dtype=np.float64)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            field(0.0, y)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / calls

