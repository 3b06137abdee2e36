"""Concrete systems: logistic and Henon maps, Lorenz and Chua flows, 1-D linear.

Each system is a frozen parameter record plus a formula on Python floats.
``PRESETS`` maps the names the CLI accepts to their ``SystemPreset`` records,
whose ``.field()`` or ``.map()``, a FloatKernel of the system's dimension, is
the one callable form of a system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Tuple

from .errors import DomainError, check_real, lookup_preset
from .integrate import FloatKernel


class _Params:
    """A parameter record whose every field must lie in ``interval``."""

    interval = "(-inf, inf)"

    def __post_init__(self):
        for f in fields(self):
            check_real(getattr(self, f.name), f.name, self.interval)


@dataclass(frozen=True)
class LogisticParams(_Params):
    mu: float

    interval = "[0, 4]"


@dataclass(frozen=True)
class HenonParams(_Params):
    a: float
    b: float


@dataclass(frozen=True)
class LorenzParams(_Params):
    sigma: float
    r: float
    b: float

    interval = "(0, inf)"


@dataclass(frozen=True)
class ChuaParams(_Params):
    c1: float
    c2: float
    c3: float
    m0: float  # inner slope of the piecewise-linear element
    m1: float  # outer slope

    def __post_init__(self):
        super().__post_init__()
        if self.m0 == self.m1:
            raise DomainError("m0 == m1 makes the circuit element linear")


@dataclass(frozen=True)
class Linear1DParams(_Params):
    a: float


@dataclass(frozen=True)
class _NoParams:
    """The empty parameter record of a preset that takes no parameters."""


def logistic_step(p: LogisticParams, x: float) -> float:
    """One iterate mu * x * (1 - x), rounded as fl(fl(mu * x) * fl(1 - x)).

    The range lemma: for mu in [0, 4] and x in [0, 1] the rounded iterate
    lies in [0, 1].  Both factors are at least 0, and fl(mu * x) <= 4x,
    since 4x is a float and rounding is monotone.  For x >= 1/2, 1 - x is
    exact (Sterbenz), so the product is at most 4x(1 - x) <= 1 before its
    rounding and after it.  For x < 1/2, fl(1 - x) <= 1 - x + 2^-54, so the
    product is below 4x(1 - x) + 2 * 2^-54 <= 1 + 2^-53 and rounds to at
    most 1.  bifurcation_scan's lanes and cipher.keystream's byte cast rely
    on it.
    """
    return p.mu * x * (1.0 - x)


def _logistic(p: LogisticParams, s) -> Tuple[float]:
    return (p.mu * s[0] * (1.0 - s[0]),)


def check_logistic_x0(x0: float) -> None:
    """Refuse a logistic-map start outside [0, 1], which the map keeps for mu in [0, 4]."""
    check_real(x0, "x0", PRESETS["logistic"].domain)


def henon_step(p: HenonParams, s: Tuple[float, float]) -> Tuple[float, float]:
    """One iterate (1 + y - a*x^2, b*x)."""
    x, y = s
    return (1.0 + y - p.a * x * x, p.b * x)


def _lorenz(p: LorenzParams, s) -> Tuple[float, float, float]:
    """(sigma*(y-x), r*x - y - x*z, x*y - b*z)."""
    x, y, z = s
    return (p.sigma * (y - x), p.r * x - y - x * z, x * y - p.b * z)


def chua_g(p: ChuaParams, x: float) -> float:
    """Piecewise-linear element m1*x + (m0-m1)/2 * (|x+1| - |x-1|)."""
    return p.m1 * x + 0.5 * (p.m0 - p.m1) * (abs(x + 1.0) - abs(x - 1.0))


def _chua(p: ChuaParams, s) -> Tuple[float, float, float]:
    """(c1*(y - x - g(x)), c2*(x - y + z), -c3*y)."""
    x, y, z = s
    return (p.c1 * (y - x - chua_g(p, x)), p.c2 * (x - y + z), -p.c3 * y)


def _chua_paper_code(p: _NoParams, s) -> Tuple[float, float, float]:
    """Verbatim reproduction of a circulating fixed-constant variant.

    The x equation is 15*(y - x) minus the piecewise-linear term directly
    (not multiplied by 15), with slopes +5/7 and -3/14 baked in; y and z use
    unit coupling and -25.58*y.  Unlike the chua preset with the canonical
    slopes, the only equilibrium here is the origin and it is stable, so
    orbits decay instead of scrolling; the preset exists for faithful
    reproduction, not for the double scroll.
    """
    x, y, z = s
    nl = (5.0 / 7.0) * x + 0.5 * (-(8.0 / 7.0) - (-5.0 / 7.0)) * (
        abs(x + 1.0) - abs(x - 1.0)
    )
    return (15.0 * (y - x) - nl, x - y + z, -25.58 * y)


def linear_solution(p: Linear1DParams, u0: float, t: float) -> float:
    """Closed form u0 * exp(a*t) of x' = a*x, x(0) = u0."""
    return u0 * math.exp(p.a * t)


def _linear1d(p: Linear1DParams, s) -> Tuple[float]:
    return (p.a * s[0],)


@dataclass(frozen=True)
class SystemPreset:
    """A named system the CLI can run: a flow or a map, as one record.

    ``formula(p, state)`` is the right-hand side (flow) or the next state
    (map) as a tuple of Python floats, with ``p`` an instance of
    ``params_type``; the state's dimension and the parameter names follow
    from ``default_state`` and the fields of ``params_type``.  Every
    component of a map's start state must lie in ``domain``.
    """

    name: str
    kind: str  # "flow" or "map"
    params_type: type
    formula: Callable
    default_state: Tuple[float, ...]
    default_params: Tuple[float, ...]
    domain: str = "(-inf, inf)"

    @property
    def dimension(self) -> int:
        return len(self.default_state)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self.params_type))

    def resolve_params(self, params: Optional[Tuple[float, ...]] = None):
        """The given parameters, or the defaults when None, checked for count."""
        if params is None:
            return self.default_params
        params = tuple(params)
        if len(params) != len(self.param_names):
            names = ",".join(self.param_names) or "(none)"
            raise DomainError(
                f"system '{self.name}' takes {len(self.param_names)} "
                f"parameters ({names}), got {len(params)}"
            )
        return params

    def _record(self, kind: str, params):
        if self.kind != kind:
            raise DomainError(f"preset '{self.name}' is not a {kind}")
        return self.params_type(*self.resolve_params(params))

    # Preset fields and maps are FloatKernels of the preset's dimension: the
    # library runs the formula on Python floats and refuses a state of
    # another length, and called with an ndarray they return an ndarray.

    def field(self, params: Optional[Tuple[float, ...]] = None):
        """Callable (t, state) -> derivative, for flow presets."""
        p, formula = self._record("flow", params), self.formula
        return FloatKernel(lambda t, s: formula(p, s), self.dimension)

    def map(self, params: Optional[Tuple[float, ...]] = None):
        """Callable state -> next state, for map presets."""
        p, formula = self._record("map", params), self.formula
        return FloatKernel(lambda s: formula(p, s), self.dimension, self.domain)


PRESETS = {
    p.name: p
    for p in (
        SystemPreset("logistic", "map", LogisticParams, _logistic, (0.2,), (3.8282,), "[0, 1]"),
        SystemPreset("henon", "map", HenonParams, henon_step, (0.1, 0.0), (1.2, 0.4)),
        SystemPreset(
            "lorenz", "flow", LorenzParams, _lorenz, (15.0, 20.0, 30.0),
            (10.0, 28.0, 8.0 / 3.0),
        ),
        SystemPreset(
            "chua", "flow", ChuaParams, _chua, (-1.6, 0.0, 1.6),
            (15.0, 1.0, 25.58, -8.0 / 7.0, -5.0 / 7.0),
        ),
        SystemPreset(
            "chua-paper-code", "flow", _NoParams, _chua_paper_code, (-1.6, 0.0, 1.6), (),
        ),
        SystemPreset("linear1d", "flow", Linear1DParams, _linear1d, (1.0,), (1.0,)),
    )
}


def preset(name: str) -> SystemPreset:
    """Look up a preset by its exact name."""
    return lookup_preset(PRESETS, name, "system")
