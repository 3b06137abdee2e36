"""Qualitative-dynamics instruments.

Equilibrium checks, the linear-stability trichotomy, graphical-iteration
(cobweb) traces, bifurcation-diagram scans, and a divergence-rate probe that
quantifies sensitive dependence on initial conditions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .errors import (DomainError, NonFiniteState, SeparationUnderflow, check_cap, check_count,
                     check_real)
from .integrate import (MAX_ORBIT_VALUES, FieldFn, IntegratorConfig, _check_length, _FlatRows,
                        _float_kernel, _slope, _stream, as_state)
from .systems import LogisticParams, LorenzParams, check_logistic_x0, logistic_step, preset

if TYPE_CHECKING:
    import numpy as np

#: Number of uniform sample times the divergence probe projects both twin
#: trajectories onto (nearest accepted step endpoint wins).
DIVERGENCE_GRID_POINTS = 2000

#: Caps of bifurcation_scan, checked before anything is allocated.  A sweep
#: peaks at about 8 bytes per kept row (the lane buffer, which the diagram
#: keeps as its samples) plus 32 per value of mu (the lanes and the step's
#: temporaries), and its CSV writer streams, so MAX_SCAN_ROWS rows take
#: 0.2-1 GB (tracemalloc).  One lane-iterate costs about 6-10 ns and one
#: step of the loop at least about 1.5 us whatever the lane count (one lane,
#: 100k steps), so a step is charged as at least _MIN_LANES lanes, and
#: MAX_SCAN_ITERATES takes about 6 s on one lane and 13-18 s on 2M.
MAX_SCAN_ROWS = 25_000_000
MAX_SCAN_ITERATES = 2_000_000_000
_MIN_LANES = 512

#: Fraction of the reference attractor diameter beyond which separation is
#: considered saturated and excluded from the exponential fit.
SATURATION_FRACTION = 0.01


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BIFURCATION = "bifurcation"


def classify_linear(a: float) -> Stability:
    """Strict sign trichotomy for x' = a*x: decay, growth, or the a=0 boundary."""
    check_real(a, "a", "(-inf, inf)")
    if a < 0.0:
        return Stability.STABLE
    if a > 0.0:
        return Stability.UNSTABLE
    return Stability.BIFURCATION


def verify_equilibrium(field: FieldFn, point, tol: float) -> bool:
    """True when every |component| of field(0, point) is at most tol (a NaN is
    not).  The field is evaluated as integrate evaluates it."""
    check_real(tol, "tol", "(0, inf)")
    state = as_state(point, "point")
    value = _float_kernel(field, len(state), "field")(0.0, state)
    _check_length(value, len(state), "field")
    return all(abs(v) <= tol for v in value)


def lorenz_equilibria(p: LorenzParams) -> list[np.ndarray]:
    """All equilibria of the Lorenz field: the origin, plus C+- when r > 1.
    C+- = (+-w, +-w, r - 1) with w = sqrt(b (r - 1)); an overflowing w
    raises NonFiniteState."""
    import numpy as np

    points = [np.zeros(3)]
    if p.r > 1.0:
        w = math.sqrt(p.b * (p.r - 1.0))
        if w == math.inf:
            raise NonFiniteState(f"C+- are not finite: b * (r - 1) overflows for b={p.b!r}, "
                                 f"r={p.r!r}")
        points.append(np.array([w, w, p.r - 1.0]))
        points.append(np.array([-w, -w, p.r - 1.0]))
    return points


@dataclass(frozen=True)
class CobwebTrace:
    """Staircase polyline between a 1-D map's graph and the diagonal.

    ``vertices`` starts at (x0, 0), then alternates vertical moves onto the
    curve with horizontal moves onto the diagonal.  ``curve_samples`` holds
    (x, f(x)) pairs for plotting the graph; the diagonal y = x is implied.
    """

    vertices: np.ndarray
    curve_samples: np.ndarray


def cobweb_trace(p: LogisticParams, x0: float, n: int) -> CobwebTrace:
    """Graphical iteration of the logistic map: 2n staircase vertices after (x0, 0).

    Traces of more than integrate.MAX_ORBIT_VALUES values, 2 * (2n + 1),
    raise GridTooLarge before anything is allocated.
    """
    check_logistic_x0(x0)
    n = check_count(n, "n", 1)
    check_cap(2 * (2 * n + 1), MAX_ORBIT_VALUES, f"2 x (2 x {n} steps + 1)", "value")
    import numpy as np
    from .integrate import iterate_map  # looked up when called: a tracer's wrapper is not kept

    orbit = iterate_map(preset("logistic").map((p.mu,)), [x0], n + 1).points[:, 0]
    # (x0, 0), then (x_k, x_k+1) and (x_k+1, x_k+1) for each step k
    verts = np.empty((2 * n + 1, 2), dtype=np.float64)
    verts[0] = (x0, 0.0)
    verts[1::2, 0] = orbit[:-1]
    verts[1::2, 1] = orbit[1:]
    verts[2::2] = orbit[1:, None]
    xs = np.linspace(0.0, 1.0, 512)
    curve = np.column_stack([xs, logistic_step(p, xs)])
    return CobwebTrace(vertices=verts, curve_samples=curve)


@dataclass(frozen=True)
class BifurcationDiagram:
    """Post-transient iterates of the logistic map across a sweep of mu.

    ``params`` holds the P swept values of mu and ``samples`` the (P, keep)
    kept iterates: samples[i] are the iterates at params[i], in iterate
    order.  The record checks only these shapes, so it holds any sweep.
    """

    params: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "params", np.asarray(self.params, dtype=np.float64))
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if (self.params.ndim != 1 or self.samples.ndim != 2
                or len(self.samples) != len(self.params)):
            raise DomainError("diagram needs 1-D params and 2-D samples with a row per param")


def bifurcation_scan(
    p_lo: float,
    p_hi: float,
    p_steps: int,
    x0: float,
    discard: int,
    keep: int,
) -> BifurcationDiagram:
    """Sweep the logistic map over p_steps values of mu, keeping post-transient iterates.

    Every mu of np.linspace(p_lo, p_hi, p_steps) is iterated at once, as a
    float64 lane, with systems.logistic_step's operations in its order.
    Both ends must lie in [0, 4] and x0 in [0, 1], and discard must be at
    least 100 so transients have died before sampling.  A span too narrow
    for p_steps strictly increasing values of mu raises DomainError, so every
    mu lies in [p_lo, p_hi] and, by logistic_step's range lemma, every
    iterate in [0, 1].  Sweeps over MAX_SCAN_ROWS kept rows or
    MAX_SCAN_ITERATES iterates raise GridTooLarge before any allocation.
    """
    import numpy as np

    for mu in (p_lo, p_hi):
        LogisticParams(mu)
    check_logistic_x0(x0)
    p_steps = check_count(p_steps, "p_steps", 1)
    discard = check_count(discard, "discard", 100)
    keep = check_count(keep, "keep", 1)
    if not p_lo < p_hi:
        raise DomainError("need p_lo < p_hi")
    check_cap(p_steps * keep, MAX_SCAN_ROWS, f"{p_steps} parameters x {keep} kept iterates",
              "row")
    check_cap(max(p_steps, _MIN_LANES) * (discard + keep), MAX_SCAN_ITERATES,
              f"max({p_steps}, {_MIN_LANES}) parameters x {discard + keep} iterates", "iterate")
    params = np.linspace(p_lo, p_hi, p_steps)
    if not (params[1:] > params[:-1]).all():
        raise DomainError(f"{p_steps} values of mu from {p_lo!r} to {p_hi!r} are not strictly "
                          f"increasing in float64")
    kept = np.empty((keep, p_steps), dtype=np.float64)
    x = np.full(p_steps, x0, dtype=np.float64)
    for i in range(discard + keep):
        if i >= discard:
            kept[i - discard] = x
        x = params * x * (1.0 - x)
    return BifurcationDiagram(params=params, samples=kept.T)


@dataclass(frozen=True)
class DivergenceReport(_FlatRows):
    """Twin-trajectory separation history and its fitted exponential rate."""

    _COLUMNS = {"times": 0, "log_separation": 1}
    times: np.ndarray
    log_separation: np.ndarray
    fitted_rate: float
    fit_window: Tuple[float, float]


def _nearest_states(steps: Iterator[Tuple[float, List[float]]], grid: List[float]):
    """The states of a stream of (t, state) steps nearest each time of a
    nondecreasing grid that ends at the last step's time, and every state's
    per-component min and max.  A forward walk holding two steps finds what
    searchsorted (side left) finds, clipped to [1, n - 1], earlier on a tie."""
    (t_a, a), (t_b, b) = next(steps), next(steps)
    lo, hi, near = list(map(min, a, b)), list(map(max, a, b)), []
    for g in grid:
        while t_b < g:  # g is at most the last step's time, so b is not the last
            (t_a, a), (t_b, b) = (t_b, b), next(steps)
            lo, hi = list(map(min, lo, b)), list(map(max, hi, b))
        near.append(a if g - t_a <= t_b - g else b)
    return near, lo, hi


def divergence_rate(
    field: FieldFn,
    x0,
    delta0: float,
    t1: float,
    config: Optional[IntegratorConfig] = None,
) -> DivergenceReport:
    """Measure the exponential separation rate of twin trajectories.

    Integrates from x0 and from x0 perturbed by delta0 along the first
    coordinate, in that order, and samples both on a shared uniform grid
    with np.linspace's bits (nearest accepted step endpoint) as it walks
    each run's stream of steps: it holds each twin's 2000 samples, never a
    run.  A separation is the sqrt of its squared differences summed left to
    right from 0.0, np.linalg.norm(axis=1)'s order below 8 components, and
    its log is math.log's (-inf for 0).  The log separation is fitted against
    time by least squares (integrate._slope, with the grid step t1 /
    (DIVERGENCE_GRID_POINTS - 1), which must not underflow to 0).  The fit
    window is the prefix before separation saturates at SATURATION_FRACTION
    of the reference attractor's coordinate diameter; if that prefix is
    degenerate the full grid is used.  A log separation that is constant over
    the window (a fixed point, or a t1 too short for any change to show in
    float64) fits the rate 0.0.
    """
    check_real(delta0, "delta0", "(0, inf)")
    check_real(t1, "t1", "(0, inf)")
    check_real(step := t1 / (DIVERGENCE_GRID_POINTS - 1), "t1 / 1999", "(0, inf)")
    base = as_state(x0, "x0")
    perturbed = [base[0] + delta0, *base[1:]]
    if perturbed == base:
        raise SeparationUnderflow("delta0 vanished under addition; twins coincide")

    grid = [k * step for k in range(DIVERGENCE_GRID_POINTS - 1)] + [t1]
    ref_near, lo, hi = _nearest_states(_stream(field, base, 0.0, t1, config), grid)
    twin_near = _nearest_states(_stream(field, perturbed, 0.0, t1, config), grid)[0]
    sep = []
    for ref, twin in zip(ref_near, twin_near):
        total = 0.0  # not sum(), math.hypot, math.dist or fsum: each rounds otherwise
        for a, b in zip(ref, twin):
            total += (a - b) * (a - b)
        sep.append(math.sqrt(total))
    log_sep = [math.log(s) if s else -math.inf for s in sep]

    threshold = SATURATION_FRACTION * max(h - l for h, l in zip(hi, lo))
    cut = next((k for k, s in enumerate(sep) if not s <= threshold), len(grid))
    if cut < 2:
        cut = len(grid)  # degenerate geometry (e.g. a fixed point): fit everything
    if 0.0 in sep[:cut]:
        raise SeparationUnderflow("twin trajectories coincide bit-exactly")

    return DivergenceReport._from_flat(
        [v for row in zip(grid, log_sep) for v in row], 2,
        fitted_rate=_slope(log_sep[:cut], step), fit_window=(grid[0], grid[cut - 1]),
    )
