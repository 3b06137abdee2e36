"""Concrete systems: logistic and Henon maps, Lorenz and Chua flows, 1-D linear.

Each system is a frozen parameter record plus a step or field evaluator.
``PRESETS`` maps the names the CLI accepts to ready-to-run configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, UnknownPreset
from .integrate import FloatKernel


@dataclass(frozen=True)
class LogisticParams:
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 <= self.mu <= 4.0):
            raise DomainError(f"mu must lie in [0, 4], got {self.mu}")


@dataclass(frozen=True)
class HenonParams:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("Henon parameters must be finite")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float
    r: float
    b: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and self.r > 0.0 and self.b > 0.0):
            raise DomainError("Lorenz parameters must all be positive")


@dataclass(frozen=True)
class ChuaParams:
    c1: float
    c2: float
    c3: float
    m0: float  # inner slope of the piecewise-linear element
    m1: float  # outer slope

    def __post_init__(self):
        if self.m0 == self.m1:
            raise DomainError("m0 == m1 makes the circuit element linear")


@dataclass(frozen=True)
class Linear1DParams:
    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise DomainError("a must be finite")


def logistic_step(p: LogisticParams, x: float) -> float:
    """One iterate mu * x * (1 - x)."""
    return p.mu * x * (1.0 - x)


def check_logistic_x0(x0: float) -> None:
    """Refuse a logistic-map start outside [0, 1], the interval the map keeps
    for mu in [0, 4] (NaN included)."""
    if not (0.0 <= x0 <= 1.0):
        raise DomainError(f"x0 must lie in [0, 1], got {x0}")


def henon_step(p: HenonParams, s: Tuple[float, float]) -> Tuple[float, float]:
    """One iterate (1 + y - a*x^2, b*x)."""
    x, y = s
    return (1.0 + y - p.a * x * x, p.b * x)


def henon_inverse(p: HenonParams, s: Tuple[float, float]) -> Tuple[float, float]:
    """Inverse iterate, defined for b != 0."""
    if p.b == 0.0:
        raise DomainError("Henon map is not invertible for b = 0")
    x, y = s
    xp = y / p.b
    return (xp, x - 1.0 + p.a * xp * xp)


def _lorenz(p: LorenzParams, s) -> Tuple[float, float, float]:
    x, y, z = s
    return (p.sigma * (y - x), p.r * x - y - x * z, x * y - p.b * z)


def lorenz_field(p: LorenzParams, s: np.ndarray) -> np.ndarray:
    """(sigma*(y-x), r*x - y - x*z, x*y - b*z)."""
    return np.array(_lorenz(p, s))


def chua_g(p: ChuaParams, x: float) -> float:
    """Piecewise-linear element m1*x + (m0-m1)/2 * (|x+1| - |x-1|)."""
    return p.m1 * x + 0.5 * (p.m0 - p.m1) * (abs(x + 1.0) - abs(x - 1.0))


def _chua(p: ChuaParams, s) -> Tuple[float, float, float]:
    x, y, z = s
    return (p.c1 * (y - x - chua_g(p, x)), p.c2 * (x - y + z), -p.c3 * y)


def chua_field(p: ChuaParams, s: np.ndarray) -> np.ndarray:
    """(c1*(y - x - g(x)), c2*(x - y + z), -c3*y)."""
    return np.array(_chua(p, s))


def chua_paper_code_field(s: np.ndarray) -> np.ndarray:
    """Verbatim reproduction of a circulating fixed-constant variant.

    The x equation is 15*(y - x) minus the piecewise-linear term directly
    (not multiplied by 15), with slopes +5/7 and -3/14 baked in; y and z use
    unit coupling and -25.58*y.  Unlike chua_field with the canonical
    slopes, the only equilibrium here is the origin and it is stable, so
    orbits decay instead of scrolling; the preset exists for faithful
    reproduction, not for the double scroll.
    """
    return np.array(_chua_paper_code(s))


def _chua_paper_code(s) -> Tuple[float, float, float]:
    x, y, z = s
    nl = (5.0 / 7.0) * x + 0.5 * (-(8.0 / 7.0) - (-5.0 / 7.0)) * (
        abs(x + 1.0) - abs(x - 1.0)
    )
    return (15.0 * (y - x) - nl, x - y + z, -25.58 * y)


def linear_solution(p: Linear1DParams, u0: float, t: float) -> float:
    """Closed form u0 * exp(a*t) of x' = a*x, x(0) = u0."""
    return u0 * math.exp(p.a * t)


@dataclass(frozen=True)
class SystemPreset:
    """A named system the CLI can run: either a flow (field) or a map (step)."""

    name: str
    kind: str  # "flow" or "map"
    dimension: int
    default_state: Tuple[float, ...]
    param_names: Tuple[str, ...]
    default_params: Tuple[float, ...]
    make_field: Optional[Callable[[Tuple[float, ...]], Callable]] = None
    make_map: Optional[Callable[[Tuple[float, ...]], Callable]] = None

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

    def field(self, params: Optional[Tuple[float, ...]] = None):
        """Callable (t, state) -> derivative, for flow presets."""
        if self.make_field is None:
            raise DomainError(f"preset '{self.name}' is not a flow")
        return self.make_field(self.resolve_params(params))

    def map(self, params: Optional[Tuple[float, ...]] = None):
        """Callable state -> next state, for map presets."""
        if self.make_map is None:
            raise DomainError(f"preset '{self.name}' is not a map")
        return self.make_map(self.resolve_params(params))


# Preset fields and maps are FloatKernels: integrate and iterate_map run
# their formulas on Python floats, and called with an ndarray they return
# what the public ndarray functions above return.

def _logistic_map(params):
    p = LogisticParams(*params)
    return FloatKernel(lambda s: (logistic_step(p, s[0]),))


def _henon_map(params):
    p = HenonParams(*params)
    return FloatKernel(lambda s: henon_step(p, s))


def _lorenz_flow(params):
    p = LorenzParams(*params)
    return FloatKernel(lambda t, s: _lorenz(p, s))


def _chua_flow(params):
    p = ChuaParams(*params)
    return FloatKernel(lambda t, s: _chua(p, s))


def _chua_paper_code_flow(params):
    return FloatKernel(lambda t, s: _chua_paper_code(s))


def _linear1d_flow(params):
    p = Linear1DParams(*params)
    return FloatKernel(lambda t, s: (p.a * s[0],))


PRESETS = {
    "logistic": SystemPreset(
        name="logistic",
        kind="map",
        dimension=1,
        default_state=(0.2,),
        param_names=("mu",),
        default_params=(3.8282,),
        make_map=_logistic_map,
    ),
    "henon": SystemPreset(
        name="henon",
        kind="map",
        dimension=2,
        default_state=(0.1, 0.0),
        param_names=("a", "b"),
        default_params=(1.2, 0.4),
        make_map=_henon_map,
    ),
    "lorenz": SystemPreset(
        name="lorenz",
        kind="flow",
        dimension=3,
        default_state=(15.0, 20.0, 30.0),
        param_names=("sigma", "r", "b"),
        default_params=(10.0, 28.0, 8.0 / 3.0),
        make_field=_lorenz_flow,
    ),
    "chua": SystemPreset(
        name="chua",
        kind="flow",
        dimension=3,
        default_state=(-1.6, 0.0, 1.6),
        param_names=("c1", "c2", "c3", "m0", "m1"),
        default_params=(15.0, 1.0, 25.58, -8.0 / 7.0, -5.0 / 7.0),
        make_field=_chua_flow,
    ),
    "chua-paper-code": SystemPreset(
        name="chua-paper-code",
        kind="flow",
        dimension=3,
        default_state=(-1.6, 0.0, 1.6),
        param_names=(),
        default_params=(),
        make_field=_chua_paper_code_flow,
    ),
    "linear1d": SystemPreset(
        name="linear1d",
        kind="flow",
        dimension=1,
        default_state=(1.0,),
        param_names=("a",),
        default_params=(1.0,),
        make_field=_linear1d_flow,
    ),
}


def preset(name: str) -> SystemPreset:
    """Look up a preset by its exact name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise UnknownPreset(f"unknown system preset '{name}' (known: {known})") from None
