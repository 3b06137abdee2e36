"""Generic numerical engines: adaptive ODE integration and map iteration.

The flow integrator is an embedded explicit Runge-Kutta 4(5) pair with the
Dormand-Prince tableau (the method behind MATLAB's ode45) and a
proportional-integral step controller.  Error control uses a component-wise
mixed tolerance: a step is accepted when

    max_i |err_i| / (abs_tol + rel_tol * max(|y_i|, |y_new_i|)) <= 1

Both entry points are pure functions of their inputs; identical inputs give
bit-identical outputs on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
)

ArrayLike = Union[Sequence[float], np.ndarray]
FieldFn = Callable[[float, np.ndarray], ArrayLike]
MapFn = Callable[[np.ndarray], ArrayLike]

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


def as_state(x: ArrayLike) -> np.ndarray:
    """Validate and convert a point in phase space to a float64 vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"state must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteState("state contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the adaptive integrator.

    ``initial_step=None`` selects h0 = (t1 - t0)/100 clamped to
    [min_step, t1 - t0].  ``min_step=None`` selects 1e-12 * (t1 - t0).
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    initial_step: Optional[float] = None
    max_steps: int = 1_000_000
    min_step: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise DomainError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if self.initial_step is not None and self.initial_step <= 0.0:
            raise DomainError("initial_step must be positive")
        if self.max_steps < 1:
            raise DomainError("max_steps must be a positive integer")
        if self.min_step is not None:
            if self.min_step <= 0.0:
                raise DomainError("min_step must be positive")
            if self.initial_step is not None and not self.min_step < self.initial_step:
                raise DomainError("min_step must be smaller than initial_step")


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps: times (strictly increasing) and states."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.float64))
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise DomainError("trajectory needs 1-D times and 2-D states")
        if len(self.times) != len(self.states):
            raise DomainError("times and states must have equal length")
        if len(self.times) and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("times must be strictly increasing")

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class MapOrbit:
    """Iterates of a discrete map; points[k] is iterate number discarded + k."""

    points: np.ndarray
    discarded: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or len(self.points) == 0:
            raise DomainError("orbit needs a non-empty 2-D point array")
        if self.discarded < 0:
            raise DomainError("discarded count cannot be negative")

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _eval_field(field: FieldFn, t: float, y: np.ndarray, dim: int) -> np.ndarray:
    f = np.asarray(field(t, y), dtype=np.float64)
    if f.shape != (dim,):
        raise DomainError(
            f"field returned shape {f.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(f)):
        raise NonFiniteState(f"field returned NaN/Inf at t={t!r}")
    return f


def integrate(
    field: FieldFn,
    x0: ArrayLike,
    t0: float,
    t1: float,
    config: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate x' = field(t, x) over [t0, t1] with adaptive Dormand-Prince 4(5).

    Returns the accepted-step sequence only (no dense output).  The first
    recorded time is exactly t0 and the last exactly t1.

    Raises StepUnderflow when the controller wants a step below min_step
    or one too small to change t,
    MaxStepsExceeded when the attempt budget runs out, NonFiniteState when
    the field produces NaN/Inf.
    """
    cfg = config if config is not None else IntegratorConfig()
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")
    y = as_state(x0)
    dim = y.size
    span = t1 - t0
    min_step = cfg.min_step if cfg.min_step is not None else 1e-12 * span
    if cfg.initial_step is not None:
        h = min(cfg.initial_step, span)
    else:
        h = min(max(span / 100.0, min_step), span)

    t = t0
    k1 = _eval_field(field, t, y, dim)
    times = [t0]
    states = [y.copy()]
    prev_err = 1e-4
    attempts = 0
    k = [np.zeros(dim) for _ in range(7)]

    while t < t1:
        attempts += 1
        if attempts > cfg.max_steps:
            raise MaxStepsExceeded(
                f"no convergence to t1={t1} within {cfg.max_steps} attempted steps"
            )
        final = t + h >= t1
        if final:
            h = t1 - t
        elif h < min_step:
            raise StepUnderflow(
                f"required step {h:.3e} underflows min_step {min_step:.3e} at t={t!r}"
            )
        elif t + h == t:
            raise StepUnderflow(f"step {h:.3e} does not advance t={t!r}")

        k[0] = k1
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = _eval_field(field, t + _DP_C[i] * h, yi, dim)
        y_new = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        err = h * sum(e * k[i] for i, e in enumerate(_DP_E) if e != 0.0)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale))

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


def iterate_map(
    map_fn: MapFn,
    x0: ArrayLike,
    n: int,
    discard: int = 0,
) -> MapOrbit:
    """Collect iterates discard..n-1 of a discrete map started at x0.

    The orbit counts x0 as iterate 0, so discard=0 keeps the initial point
    and points[k] is iterate discard + k (n - discard points in total).
    """
    if discard < 0:
        raise DomainError("discard cannot be negative")
    if n <= discard:
        raise DomainError(f"need n > discard, got n={n}, discard={discard}")
    cur = as_state(x0)
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
