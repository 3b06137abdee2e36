"""Generic numerical engines: adaptive ODE integration and map iteration.

The flow integrator is an embedded explicit Runge-Kutta 4(5) pair with the
Dormand-Prince tableau (the method behind MATLAB's ode45) and a
proportional-integral step controller.  Error control uses a component-wise
mixed tolerance: a step is accepted when

    max_i |err_i| / (abs_tol + rel_tol * max(|y_i|, |y_new_i|)) <= 1

and that test alone judges a trial step: every stage enters err, and each
ratio adds 0.0 * |y_new_i|, so a NaN or Inf stage or new state rejects and
shrinks the step like any other failure (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4).

Both entry points are pure functions of their inputs; identical inputs give
bit-identical outputs on one platform.  They run on Python floats and keep
their results as flat lists of floats, so neither loads numpy when called
with a float kernel and a list or tuple of floats; numpy loads when a
record's arrays are first read, or when an ndarray callable or state is
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (
    DomainError,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
    check_cap,
    check_count,
    check_real,
)

if TYPE_CHECKING:
    import numpy as np

ArrayLike = Union[Sequence[float], "np.ndarray"]
FieldFn = Callable[[float, "np.ndarray"], ArrayLike]
MapFn = Callable[["np.ndarray"], ArrayLike]

# Dormand-Prince 5(4) tableau by name, for the unrolled stage loop below:
# nodes C, stage weights A, fifth-order weights B and error weights E = b5 - b4
# (zero entries omitted).  Stages 6 and 7 have the node 1, written as t + h.
# Stage 7's weights are the B weights, so it is the field at the new state
# y_new and equals the next step's first stage (FSAL, "first same as last").
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.17  # proportional exponent (order 5, with integral damping)
_PI_BETA = 0.04  # integral memory exponent

_isfinite = math.isfinite

#: Cap on n * dimension in iterate_map, checked before anything is
#: allocated.  The orbit keeps each value as a Python float in one list, and
#: its CSV writer reads that list in place, so iterate_map alone and the CLI
#: both peak at about 32-33 bytes per kept value (tracemalloc, Henon and
#: logistic, 400k iterates): 0.33 GB at the cap.  A preset map takes about
#: 0.33-0.40 us per iterate, so the loop at the cap takes about 2-4 s, and
#: the CLI with its CSV about 10-16 s (1M values took 1.0-1.6 s a child).
#: integrate keeps up to max_steps + 1 steps of dimension + 1 values, in
#: one flat list of floats, and is capped the same way: a Lorenz step peaks
#: at about 130 bytes in integrate and 135 with the CSV writer, and takes
#: about 11-22 us (tracemalloc, 9.6k-48k steps at rel_tol 1e-6, and the
#: fastest and slowest of 13 runs), so the 2.5M steps of a 3-D flow at the
#: cap take about 0.34 GB and 28-55 s.
MAX_ORBIT_VALUES = 10_000_000


def as_state(x: ArrayLike, name: str, interval: str = "(-inf, inf)") -> List[float]:
    """The point x in phase space as a new list of floats.  The only check of
    an input state: a shape other than a non-empty 1-D vector, or a NaN,
    +-inf or other component outside ``interval`` (by check_real), raises a
    DomainError that names the state.  A non-empty list or tuple of Python
    floats is copied and checked without numpy; any other x goes through
    numpy's float64 conversion."""
    if type(x) in (list, tuple) and x and all(type(v) is float for v in x):
        values = list(x)
    else:
        import numpy as np

        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError(f"{name} must be a 1-D vector, got shape {arr.shape}")
        values = arr.tolist()
    for value in values:
        check_real(value, name, interval)
    return values


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the adaptive integrator.

    ``initial_step=None`` selects h0 = (t1 - t0)/100 clamped to
    [min_step, t1 - t0], and integrate refuses a given one below min_step.
    ``max_steps=None`` selects _step_budget of the state's dimension.
    ``min_step=None`` selects 1e-12 * (t1 - t0).
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    initial_step: Optional[float] = None
    max_steps: Optional[int] = None
    min_step: Optional[float] = None

    def __post_init__(self):
        check_real(self.rel_tol, "rel_tol", "(0, 1)")
        check_real(self.abs_tol, "abs_tol", "(0, 1)")
        if self.initial_step is not None:
            check_real(self.initial_step, "initial_step", "(0, inf)")
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", check_count(self.max_steps, "max_steps", 1))
        if self.min_step is not None:
            check_real(self.min_step, "min_step", "(0, inf)")


class _FlatRows:
    """Base of a frozen dataclass whose _COLUMNS maps each array field to its
    column (an int) or columns (a slice) of rows of floats.  A record that
    an engine makes by _from_flat keeps its rows back to back in one list,
    which the CSV writers read in place through _flat, and builds its
    float64 arrays from it, with the same bits, on first access; they then
    replace the list.  A record built by its constructor holds its arrays.
    """

    @classmethod
    def _from_flat(cls, values: List[float], width: int, **fields):
        record = object.__new__(cls)
        record.__dict__.update(fields, _values=values, _width=width)
        return record

    def __getattr__(self, name):
        if name not in self._COLUMNS or "_values" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import numpy as np

        rows = np.array(self.__dict__.pop("_values"), dtype=np.float64).reshape(-1, self._width)
        self.__dict__.update((field, rows[:, cols]) for field, cols in self._COLUMNS.items())
        return self.__dict__[name]

    def _flat(self) -> List[float]:
        """The rows back to back as floats."""
        if "_values" in self.__dict__:
            return self._values
        import numpy as np

        return np.column_stack([getattr(self, f) for f in self._COLUMNS]).ravel().tolist()


@dataclass(frozen=True)
class Trajectory(_FlatRows):
    """Accepted integration steps: times (strictly increasing) and states."""

    _COLUMNS = {"times": 0, "states": slice(1, None)}
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.float64))
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise DomainError("trajectory needs 1-D times and 2-D states")
        if len(self.times) != len(self.states):
            raise DomainError("times and states must have equal length")
        if len(self.times) and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "_width", self.states.shape[1] + 1)

    @property
    def dimension(self) -> int:
        return self._width - 1


@dataclass(frozen=True)
class MapOrbit(_FlatRows):
    """Iterates of a discrete map; points[k] is iterate number discarded + k."""

    _COLUMNS = {"points": slice(None)}
    points: np.ndarray
    discarded: int = 0

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or len(self.points) == 0:
            raise DomainError("orbit needs a non-empty 2-D point array")
        object.__setattr__(self, "discarded", check_count(self.discarded, "discarded", 0))
        object.__setattr__(self, "_width", self.points.shape[1])

    @property
    def dimension(self) -> int:
        return self._width


class FloatKernel:
    """A FieldFn or MapFn whose arithmetic is written on Python floats.

    ``kernel`` takes ``(t, state)`` for a flow or ``(state)`` for a map,
    where state is a sequence of ``dimension`` floats that it must not
    change (integrate passes it the lists it keeps), and returns a
    sequence of floats.  The library runs it directly on floats; called like
    any other FieldFn or MapFn, with an ndarray state, it returns an ndarray.
    Either way a state of another length is refused, and a scalar state
    counts as one component.  iterate_map refuses a start state with a
    component outside ``domain``.  Preset fields and maps are FloatKernels.
    """

    __slots__ = ("kernel", "dimension", "domain")

    def __init__(self, kernel: Callable, dimension: int, domain: str = "(-inf, inf)"):
        self.kernel = kernel
        self.dimension = dimension
        self.domain = domain

    def __call__(self, *args) -> np.ndarray:
        try:
            dim = len(args[-1])
        except TypeError:  # a scalar is a state of one component, as in as_state
            args, dim = args[:-1] + ([args[-1]],), 1
        _check_dimension(self, dim, "field" if len(args) == 2 else "map")
        import numpy as np

        return np.array(self.kernel(*args), dtype=np.float64)


def _check_dimension(fn: FloatKernel, dim: int, what: str) -> None:
    """The only check that a FloatKernel fits a state of dim components."""
    if fn.dimension != dim:
        raise DomainError(f"{what} has dimension {fn.dimension}, got a state of dimension {dim}")


def _float_kernel(fn: Callable, dim: int, what: str) -> Callable:
    """The float kernel of fn for a state of dim components: its own, or one
    adapting an ndarray FieldFn or MapFn, ``what`` in its refusals.  A scalar
    result of an adapted callable counts as one value."""
    if isinstance(fn, FloatKernel):
        _check_dimension(fn, dim, what)
        return fn.kernel
    import numpy as np

    def adapted(*args):
        out = np.atleast_1d(np.asarray(fn(*args[:-1], np.array(args[-1])), dtype=np.float64))
        if out.shape != (dim,):
            raise DomainError(f"{what} returned shape {out.shape}, expected ({dim},)")
        return out.tolist()

    return adapted


def _check_length(values, dim: int, what: str) -> None:
    if len(values) != dim:
        raise DomainError(f"{what} returned shape ({len(values)},), expected ({dim},)")


def _step_budget(dim: int) -> int:
    """The default max_steps of dim components: 1,000,000 or as many as fit
    MAX_ORBIT_VALUES, but at least 1, so the cap refuses a state too wide."""
    return max(1, min(1_000_000, MAX_ORBIT_VALUES // (dim + 1) - 1))


def _slope(ys: Sequence[float], step: float) -> float:
    """Least-squares slope of the points (k * step, ys[k]), n = len(ys) >= 2,
    as fsum((k - m) * (ys[k] - ys[0])) / (n (n**2 - 1) / 12) / step with
    m = (n - 1) / 2 on Python floats: k - m is exact and so is fsum, so no
    BLAS kernel or summation order changes a bit; constant data gives 0.0."""
    n, m, y0 = len(ys), (len(ys) - 1) / 2, ys[0]
    moment = math.fsum((k - m) * (y - y0) for k, y in enumerate(ys))
    return moment / (n * (n * n - 1) / 12) / step


def integrate(
    field: FieldFn,
    x0: ArrayLike,
    t0: float,
    t1: float,
    config: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate x' = field(t, x) over [t0, t1] with adaptive Dormand-Prince 4(5).

    Collects the stream of accepted steps, _stream (no dense output); the
    first recorded time is exactly t0 and the last exactly t1.

    A field value of another length than the state raises DomainError.  A
    trial step whose field values or new state include a NaN or Inf is
    rejected like any other failed step.  When the controller wants a step
    below min_step, or one too small to change t, the run raises
    NonFiniteState if the last trial was non-finite, naming the start t of
    that step, and StepUnderflow otherwise.  MaxStepsExceeded is raised
    when the attempt budget, max_steps or by default _step_budget of the
    state's dimension, runs out.  A given initial_step below min_step raises
    DomainError, and max_steps + 1 kept steps of dimension + 1 values over
    MAX_ORBIT_VALUES GridTooLarge, before the field is called.

    The state and the stages are Python floats.  Every sum keeps the
    order of the ndarray formulation ``sum(a_j * k_j)``, its leading
    integer 0 included, so times and states are bit-identical to it: IEEE
    float64 ``*``, ``+`` and ``abs`` round the same in Python and in numpy,
    and neither fuses them.  The error sum keeps the full E row, k2's 0.0
    weight included.  Stage 7 is the field at y_new, where that formulation
    sums the row (b1, 0, b3, ..., b6): ``0 + b1*k1`` is never -0.0, so for
    a finite k2 adding ``0.0*k2`` (+-0.0) changes no bit of the sum, zero
    signs included.  A NaN or Inf k2 makes the error NaN, so that trial is
    rejected and its y_new, and stage 7's state, are never kept.  Each
    ratio adds ``0.0*|y_new_i|``: +0.0 when y_new_i is finite, which changes
    no bit of a ratio that is never -0.0, and NaN when it overflowed.
    """
    kept = []  # accepted steps as one flat list of floats, t then the state
    for t, y in _stream(field, x0, t0, t1, config):
        kept.append(t)
        kept += y
    return Trajectory._from_flat(kept, len(y) + 1)


def _stream(field, x0, t0, t1, config) -> Iterator[Tuple[float, List[float]]]:
    """integrate's accepted steps as (t, state), the state a list of floats
    never changed: (t0, x0) once the field's value there has the state's
    length, then one per accepted step, the last at t1.  integrate's checks
    and refusals come from next(), in its order, the checks from the first,
    which resolve the defaults of max_steps, min_step and h0."""
    cfg = config if config is not None else IntegratorConfig()
    check_real(t0, "t0", "(-inf, inf)")
    check_real(t1, "t1", "(-inf, inf)")
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")
    check_real(span := t1 - t0, "t1 - t0", "(0, inf)")
    y = as_state(x0, "x0")
    dim = len(y)
    max_steps = cfg.max_steps if cfg.max_steps is not None else _step_budget(dim)
    steps = max_steps + 1
    check_cap(steps * (dim + 1), MAX_ORBIT_VALUES, f"{steps} steps x {dim + 1} values", "value")
    f = _float_kernel(field, dim, "field")
    min_step = cfg.min_step if cfg.min_step is not None else 1e-12 * span
    if cfg.initial_step is not None:
        check_real(cfg.initial_step, "initial_step", f"[{min_step!r}, inf)")
        h = min(cfg.initial_step, span)
    else:
        h = min(max(span / 100.0, min_step), span)
    atol, rtol = cfg.abs_tol, cfg.rel_tol

    t = t0
    k1 = f(t, y)
    _check_length(k1, dim, "field")
    yield t, y
    prev_err = 1e-4
    err_norm = 0.0  # the last trial's; NaN or Inf when a stage was
    attempts = 0

    while t < t1:
        attempts += 1
        if attempts > max_steps:
            raise MaxStepsExceeded(
                f"no convergence to t1={t1} within {max_steps} attempted steps"
            )
        final = t + h >= t1
        if final:
            h = t1 - t
        elif h < min_step or t + h == t:
            # the step floor, reached after a non-finite trial or otherwise
            if not _isfinite(err_norm):
                raise NonFiniteState(f"non-finite field value or state in the step from t={t!r}")
            if h < min_step:
                raise StepUnderflow(
                    f"required step {h:.3e} underflows min_step {min_step:.3e} at t={t!r}"
                )
            raise StepUnderflow(f"step {h:.3e} does not advance t={t!r}")

        # each stage's length is checked before the next stage reads it, by
        # an inline len test that spares a step six calls
        k2 = f(t + _C2 * h, [y_ + h * (0 + _A21 * a) for y_, a in zip(y, k1)])
        if len(k2) != dim:
            _check_length(k2, dim, "field")
        k3 = f(t + _C3 * h, [
            y_ + h * (0 + _A31 * a + _A32 * b) for y_, a, b in zip(y, k1, k2)
        ])
        if len(k3) != dim:
            _check_length(k3, dim, "field")
        k4 = f(t + _C4 * h, [
            y_ + h * (0 + _A41 * a + _A42 * b + _A43 * c)
            for y_, a, b, c in zip(y, k1, k2, k3)
        ])
        if len(k4) != dim:
            _check_length(k4, dim, "field")
        k5 = f(t + _C5 * h, [
            y_ + h * (0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for y_, a, b, c, d in zip(y, k1, k2, k3, k4)
        ])
        if len(k5) != dim:
            _check_length(k5, dim, "field")
        k6 = f(t + h, [
            y_ + h * (0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ])
        if len(k6) != dim:
            _check_length(k6, dim, "field")
        y_new = [
            y_ + h * (0 + _B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
            for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
        ]
        k7 = f(t + h, y_new)
        if len(k7) != dim:
            _check_length(k7, dim, "field")
        # |err| / (atol + rtol * max(|y|, |y_new|)), with numpy's NaN-propagating
        # maximum: |y| is never NaN, so `u if u >= v else v` is np.maximum.
        # Every stage enters err, k2 with the weight 0.0, and 0.0 * v is NaN
        # for an Inf y_new, so a NaN or Inf stage or new state makes
        # err_norm NaN or Inf and the trial is rejected.
        ratios = [
            abs(h * (0 + _E1 * a + 0.0 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k))
            / (atol + rtol * (u if u >= v else v)) + 0.0 * v
            for u, v, a, b, c, d, e, g, k in zip(
                map(abs, y), map(abs, y_new), k1, k2, k3, k4, k5, k6, k7
            )
        ]
        total = sum(ratios)
        # np.max propagates NaN; max() alone would skip a NaN after the first
        err_norm = max(ratios) if total == total else total

        if err_norm <= 1.0:
            t = t1 if final else t + h
            y = y_new
            k1 = k7  # FSAL: stage 7 is the next step's stage 1
            yield t, y
            if err_norm == 0.0:
                factor = _FAC_MAX
            else:
                factor = _SAFETY * err_norm ** (-_PI_ALPHA) * prev_err ** _PI_BETA
                factor = min(_FAC_MAX, max(_FAC_MIN, factor))
            prev_err = max(err_norm, 1e-4)
            h = h * factor
        else:
            h = h * min(1.0, max(0.1, _SAFETY * err_norm ** (-0.2)))


def iterate_map(
    map_fn: MapFn,
    x0: ArrayLike,
    n: int,
    discard: int = 0,
) -> MapOrbit:
    """Collect iterates discard..n-1 of a discrete map started at x0.

    The orbit counts x0 as iterate 0, so discard=0 keeps the initial point
    and points[k] is iterate discard + k (n - discard points in total).
    The iterates are Python floats, and an iterate of another length than
    x0 raises DomainError; an ndarray MapFn is called through an adapter
    that checks the shape of each result.  A start state with a component
    outside a FloatKernel's domain raises DomainError.  Orbits of more than
    MAX_ORBIT_VALUES values (n times the dimension, discarded iterates
    included) raise GridTooLarge.
    """
    discard = check_count(discard, "discard", 0)
    n = check_count(n, "n", discard + 1)
    cur = as_state(x0, "x0", getattr(map_fn, "domain", "(-inf, inf)"))
    dim = len(cur)
    check_cap(n * dim, MAX_ORBIT_VALUES, f"{n} iterates x {dim} components", "value")
    step = _float_kernel(map_fn, dim, "map")
    points = [] if discard else list(cur)  # the kept iterates, back to back
    for i in range(1, n):
        cur = step(cur)
        if len(cur) != dim:
            _check_length(cur, dim, "map")
        if 0.0 * sum(cur) != 0.0 and not all(map(_isfinite, cur)):
            raise NonFiniteState(f"orbit left the finite range at iterate {i}", index=i)
        if i >= discard:
            points += cur
    return MapOrbit._from_flat(points, dim, discarded=discard)
