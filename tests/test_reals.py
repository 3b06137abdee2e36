"""Real parameters: one check (errors.check_real) for every entry point, which
refuses NaN and +-inf everywhere and has one message form."""

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import chaoscope as c
from chaoscope.errors import DomainError, check_real

SRC = Path(c.__file__).parent
IMAGE = c.GrayImage.constant(16, 16, 100)
LORENZ = c.preset("lorenz").field(None)
DECAY = c.preset("linear1d").field((-1.0,))
WINDOW = (-0.1, 0.1, -0.1, 0.1, 0.1)


def _scan(p_lo, p_hi, x0=0.3):
    """A short logistic sweep.  An end equal to the other end passes the
    range checks and is refused after them, by the order check."""
    if p_lo == p_hi:
        with pytest.raises(DomainError, match=r"^need p_lo < p_hi$"):
            c.bifurcation_scan(p_lo, p_hi, 2, x0, 100, 1)
        return
    c.bifurcation_scan(p_lo, p_hi, 2, x0, 100, 1)


def _window(field, v):
    names = ("xmin", "xmax", "ymin", "ymax", "scale")
    return c.ComplexWindow(*(v if name == field else w for name, w in zip(names, WINDOW)))


def _chua(field, v):
    names = ("c1", "c2", "c3", "m0", "m1")
    default = c.preset("chua").default_params
    return c.ChuaParams(*(v if name == field else w for name, w in zip(names, default)))


FINITE = "(-inf, inf)"

#: (id, call with the real v, the parameter's name, its interval)
REALS = [
    ("IntegratorConfig-rel_tol", lambda v: c.IntegratorConfig(rel_tol=v), "rel_tol", "(0, 1)"),
    ("IntegratorConfig-abs_tol", lambda v: c.IntegratorConfig(abs_tol=v), "abs_tol", "(0, 1)"),
    ("IntegratorConfig-initial_step", lambda v: c.IntegratorConfig(initial_step=v),
     "initial_step", "(0, inf)"),
    ("IntegratorConfig-min_step", lambda v: c.IntegratorConfig(min_step=v),
     "min_step", "(0, inf)"),
    ("integrate-t0", lambda v: c.integrate(DECAY, [1.0], v, 1.0), "t0", FINITE),
    ("integrate-t1", lambda v: c.integrate(DECAY, [1.0], -1.0, v), "t1", FINITE),
    ("LogisticParams-mu", lambda v: c.LogisticParams(v), "mu", "[0, 4]"),
    ("HenonParams-a", lambda v: c.HenonParams(v, 0.4), "a", FINITE),
    ("HenonParams-b", lambda v: c.HenonParams(1.2, v), "b", FINITE),
    ("LorenzParams-sigma", lambda v: c.LorenzParams(v, 28.0, 8 / 3), "sigma", "(0, inf)"),
    ("LorenzParams-r", lambda v: c.LorenzParams(10.0, v, 8 / 3), "r", "(0, inf)"),
    ("LorenzParams-b", lambda v: c.LorenzParams(10.0, 28.0, v), "b", "(0, inf)"),
    *[(f"ChuaParams-{name}", lambda v, name=name: _chua(name, v), name, FINITE)
      for name in ("c1", "c2", "c3", "m0", "m1")],
    ("Linear1DParams-a", lambda v: c.Linear1DParams(v), "a", FINITE),
    ("cobweb_trace-x0", lambda v: c.cobweb_trace(c.LogisticParams(3.9), v, 5), "x0", "[0, 1]"),
    ("classify_linear-a", lambda v: c.classify_linear(v), "a", FINITE),
    ("verify_equilibrium-tol", lambda v: c.verify_equilibrium(LORENZ, [0.0, 0.0, 0.0], v),
     "tol", "(0, inf)"),
    ("divergence_rate-delta0", lambda v: c.divergence_rate(LORENZ, [1.0, 1.0, 1.0], v, 0.01),
     "delta0", "(0, inf)"),
    ("divergence_rate-t1", lambda v: c.divergence_rate(LORENZ, [1.0, 1.0, 1.0], 1e-8, v),
     "t1", "(0, inf)"),
    ("bifurcation_scan-p_lo", lambda v: _scan(v, 4.0), "mu", "[0, 4]"),
    ("bifurcation_scan-p_hi", lambda v: _scan(0.0, v), "mu", "[0, 4]"),
    ("bifurcation_scan-x0", lambda v: _scan(3.0, 4.0, v), "x0", "[0, 1]"),
    *[(f"ComplexWindow-{name}", lambda v, name=name: _window(name, v), name, FINITE)
      for name in ("xmin", "xmax", "ymin", "ymax")],
    ("ComplexWindow-scale", lambda v: _window("scale", v), "scale", "(0, inf)"),
    ("mandelbrot_grid-threshold", lambda v: c.mandelbrot_grid(c.ComplexWindow(*WINDOW), 5, v),
     "threshold", "[2, inf)"),
    ("similarity_dimension-ratio", lambda v: c.similarity_dimension(3, v), "ratio", "(0, 1)"),
    ("pifs_encode-s_max", lambda v: c.pifs_encode(IMAGE, 8, 8, v), "s_max", "[0, 1]"),
    ("ChaosKey-mu", lambda v: c.ChaosKey(v, 0.3), "mu", "(3.57, 4]"),
    ("ChaosKey-x0", lambda v: c.ChaosKey(3.9, v), "x0", "(0, 1)"),
]

#: Float parameters that no check guards, each with the reason.
EXEMPT = {
    # pure formulas: their float arguments are state values, not parameters
    ("logistic_step", "x"): "a state value",
    ("chua_g", "x"): "a state value",
    ("linear_solution", "u0"): "a state value",
    ("linear_solution", "t"): "a time on the solution",
    # results: records the library fills in from checked inputs
    ("EscapeGrid", "threshold"): "copied from the checked mandelbrot_grid argument",
    ("DivergenceReport", "fitted_rate"): "a fitted output",
}

_IDS = [case[0] for case in REALS]
_CASES = [case[1:] for case in REALS]


def _bounds(interval):
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo, interval[0] == "[", -math.inf), (hi, interval[-1] == "]", math.inf)


def _outside(interval):
    """NaN, +-inf, and the floats just past each finite end (the end itself
    when it is open)."""
    values = [math.nan, math.inf, -math.inf]
    for end, closed, outward in _bounds(interval):
        if math.isfinite(end):
            values.append(math.nextafter(end, outward))
            if not closed:
                values.append(end)
    return values


@pytest.mark.parametrize("call, name, interval", _CASES, ids=_IDS)
def test_a_real_outside_its_interval_is_a_domain_error(call, name, interval):
    for v in _outside(interval):
        with pytest.raises(DomainError) as err:
            call(v)
        assert str(err.value) == f"{name} must lie in {interval}, got {v}"
        # raised by the real check on entry, not by a later step
        assert err.traceback[-1].name == "check_real"


@pytest.mark.parametrize("call, name, interval", _CASES, ids=_IDS)
def test_a_closed_end_is_accepted(call, name, interval):
    for end, closed, _ in _bounds(interval):
        if closed:
            call(end)


@pytest.mark.parametrize("call, name, interval", _CASES, ids=_IDS)
def test_a_string_is_a_type_error(call, name, interval):
    with pytest.raises(TypeError) as err:
        call("0.5")
    assert err.traceback[-1].name == "check_real"


def _float_parameters(obj):
    if dataclasses.is_dataclass(obj):
        items = [(f.name, f.type) for f in dataclasses.fields(obj)]
    elif inspect.isfunction(obj):
        items = [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]
    else:
        return []
    return [name for name, kind in items if kind in ("float", "Optional[float]")]


#: (id, call with one component v of the start state, the state's name).
#: A state is a vector, not a float parameter, so it stays out of REALS.
STATES = [
    ("integrate-x0", lambda v: c.integrate(DECAY, [v], 0.0, 1.0), "x0"),
    ("iterate_map-x0", lambda v: c.iterate_map(c.preset("henon").map(None), [0.1, v], 5), "x0"),
    ("divergence_rate-x0", lambda v: c.divergence_rate(LORENZ, [1.0, v, 1.0], 1e-8, 0.01), "x0"),
    ("verify_equilibrium-point", lambda v: c.verify_equilibrium(lambda t, s: s, [0.0, v], 1e-9),
     "point"),
]


@pytest.mark.parametrize("call, name", [case[1:] for case in STATES],
                         ids=[case[0] for case in STATES])
def test_a_non_finite_state_component_is_a_domain_error(call, name):
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError) as err:
            call(v)
        assert str(err.value) == f"{name} must lie in {FINITE}, got {v}"
        # raised by the real check in as_state, not as a NonFiniteState of the run
        assert err.traceback[-1].name == "check_real"


def test_a_logistic_start_outside_the_presets_domain_is_a_domain_error():
    # the preset's domain, checked by iterate_map on the start state; before,
    # x0 = 1.5 ran until the orbit overflowed, a NonFiniteState at iterate 10
    step = c.preset("logistic").map(None)
    for v in [*_outside("[0, 1]"), 1.5]:
        with pytest.raises(DomainError) as err:
            c.iterate_map(step, [v], 12)
        assert str(err.value) == f"x0 must lie in [0, 1], got {v}"
        assert err.traceback[-1].name == "check_real"
    for v in (0.0, 1.0):
        c.iterate_map(step, [v], 12)


def test_a_state_that_is_not_a_vector_is_refused_by_its_name():
    with pytest.raises(DomainError, match=r"^x0 must be a 1-D vector, got shape \(1, 2\)$"):
        c.integrate(DECAY, [[1.0, 2.0]], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^point must be a 1-D vector, got shape \(0,\)$"):
        c.verify_equilibrium(lambda t, s: s, [], 1e-9)


def test_every_float_parameter_of_the_api_is_checked_or_exempt():
    found = {(api, name) for api in c.__all__ for name in _float_parameters(getattr(c, api))}
    checked = {tuple(case[0].split("-")) for case in REALS}
    assert found - set(EXEMPT) == checked
    assert set(EXEMPT) <= found


def test_both_spans_are_checked():
    with pytest.raises(DomainError, match=r"^t1 - t0 must lie in \(0, inf\), got inf$"):
        c.integrate(DECAY, [1.0], -1e308, 1e308)
    with pytest.raises(DomainError,
                       match=r"^\(xmax - xmin\) / scale must lie in \(0, inf\), got inf$"):
        c.ComplexWindow(-1e308, 1e308, -1.0, 1.0, 0.1)
    with pytest.raises(DomainError,
                       match=r"^\(ymax - ymin\) / scale must lie in \(0, inf\), got 0.0$"):
        c.ComplexWindow(-1.0, 1.0, 0.0, 1e-300, 1e300)


def test_check_real_reads_both_kinds_of_end():
    for value in (0.0, 0.5, 1.0, 1, np.float64(0.25), np.int64(1)):
        check_real(value, "v", "[0, 1]")
    for value in (0.0, 1.0, np.float64(np.nan)):
        with pytest.raises(DomainError, match=rf"^v must lie in \(0, 1\), got {value}$"):
            check_real(value, "v", "(0, 1)")
    check_real(-1e308, "v", FINITE)
    check_real(-(2**1023), "v", FINITE)
    with pytest.raises(DomainError, match=r"^v must lie in \(-inf, inf\), got 1797"):
        check_real(2**1024, "v", FINITE)  # an int beyond the float range
    # NaN and +-inf are refused however the interval is written
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^v must lie in \[-inf, inf\], got {value}$"):
            check_real(value, "v", "[-inf, inf]")
    with pytest.raises(TypeError):
        check_real(None, "v", FINITE)


def _isfinite_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "isfinite" for alias in node.names):
                yield node.lineno


def _orders_a_name_against_a_float(cmp: ast.Compare) -> bool:
    sides = [cmp.left, *cmp.comparators]
    return (any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in cmp.ops)
            and any(isinstance(s, ast.Constant) and isinstance(s.value, float) for s in sides)
            and any(isinstance(s, (ast.Name, ast.Attribute)) for s in sides))


def _float_orderings(tree: ast.AST):
    """Lines of an ``if`` that raises DomainError on a name ordered against a
    float constant, such as ``if not x > 0.0: raise DomainError(...)``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)):
            continue
        exc = node.body[0].exc
        if (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "DomainError"
                and any(isinstance(cmp, ast.Compare) and _orders_a_name_against_a_float(cmp)
                        for cmp in ast.walk(node.test))):
            yield node.lineno


def test_reals_are_checked_only_in_errors_py():
    isfinite, orderings = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            isfinite += [f"{path.name}:{line}" for line in _isfinite_uses(tree)]
            orderings += [f"{path.name}:{line}" for line in _float_orderings(tree)]
    # the one math.isfinite is the integrator's alias, which checks field and
    # map values, not parameters
    alias = next(i for i, line in enumerate((SRC / "integrate.py").read_text().splitlines(), 1)
                 if line == "_isfinite = math.isfinite")
    assert isfinite == [f"integrate.py:{alias}"]
    assert orderings == []
    # and the checks see the forms they look for
    old = "if not (0.0 < mu <= 4.0):\n    raise DomainError('mu')\nfrom math import isfinite\n"
    assert len(list(_float_orderings(ast.parse(old)))) == 1
    assert len(list(_isfinite_uses(ast.parse(old)))) == 1
