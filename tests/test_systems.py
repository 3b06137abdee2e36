import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope import systems
from chaoscope.analysis import divergence_rate, verify_equilibrium
from chaoscope.errors import DomainError, UnknownPreset
from chaoscope.integrate import IntegratorConfig, integrate, iterate_map
from chaoscope.systems import (
    ChuaParams,
    HenonParams,
    Linear1DParams,
    LogisticParams,
    LorenzParams,
    PRESETS,
    chua_g,
    henon_step,
    linear_solution,
    logistic_step,
    preset,
)

from conftest import henon_inverse

LORENZ_DEFAULTS = (10.0, 28.0, 8.0 / 3.0)
CHUA_DEFAULTS = (15.0, 1.0, 25.58, -8.0 / 7.0, -5.0 / 7.0)


def test_logistic_step_values():
    assert logistic_step(LogisticParams(1.7), 0.0) == 0.0
    assert logistic_step(LogisticParams(2.0), 0.5) == 0.5
    assert logistic_step(LogisticParams(3.8282), 0.2) == 3.8282 * 0.2 * 0.8
    assert abs(logistic_step(LogisticParams(3.8282), 0.2) - 0.612512) < 1e-6


@given(mu=st.floats(0.0, 4.0), x=st.floats(0.0, 1.0))
def test_logistic_preserves_unit_interval(mu, x):
    assert 0.0 <= logistic_step(LogisticParams(mu), x) <= 1.0


def test_logistic_range_lemma_at_its_edge():
    # x = 1/2 - k 2^-54, just below 1/2, where fl(1 - x) may round up and
    # 4x(1 - x) is within 2^-53 of 1: the edge of the range lemma in
    # logistic_step's docstring.  The rounded product reaches 1 and no more.
    x = 0.5 - np.arange(2_000_001) * 2.0**-54
    at_four = logistic_step(LogisticParams(4.0), x)
    below_four = logistic_step(LogisticParams(math.nextafter(4.0, 0.0)), x)
    assert at_four.max() == below_four.max() == 1.0
    assert at_four.min() >= 0.0 and below_four.min() >= 0.0
    assert np.mean(at_four == 1.0) > 0.7
    # at k = 3, fl(1 - x) = 1/2 + 2^-52 rounds up, so the exact product of
    # the rounded factors passes 1 and only its rounding brings it back
    x3 = 0.5 - 3 * 2.0**-54
    assert Fraction(4.0 * x3) * Fraction(1.0 - x3) > 1
    assert logistic_step(LogisticParams(4.0), x3) == 1.0


@given(k=st.integers(0, 2**40), above=st.booleans(), ulps=st.integers(0, 2**30))
def test_logistic_preserves_unit_interval_near_its_maximum(k, above, ulps):
    # x on the float grid within 2^-13 of 1/2, on either side, and mu a few
    # ulps of [2, 4) below 4
    x = 0.5 + k * 2.0**-53 if above else 0.5 - k * 2.0**-54
    mu = 4.0 - ulps * 2.0**-51
    assert 0.0 <= logistic_step(LogisticParams(mu), x) <= 1.0


def test_logistic_params_domain():
    with pytest.raises(DomainError):
        LogisticParams(4.5)
    with pytest.raises(DomainError):
        LogisticParams(-0.1)


def test_henon_step_values():
    p = HenonParams(1.2, 0.4)
    assert henon_step(p, (0.0, 0.0)) == (1.0, 0.0)
    x1, y1 = henon_step(p, (0.1, 0.0))
    assert x1 == 0.988
    assert y1 == 0.4 * 0.1
    degenerate = HenonParams(0.0, 0.0)
    assert henon_step(degenerate, (123.4, 0.5)) == (1.5, 0.0)


@settings(max_examples=100)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.1, 1.0),
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
)
def test_henon_inverse_roundtrip(a, b, x, y):
    p = HenonParams(a, b)
    fx, fy = henon_step(p, (x, y))
    rx, ry = henon_inverse(p, (fx, fy))
    assert abs(rx - x) <= 1e-12
    assert abs(ry - y) <= 1e-12


def test_henon_inverse_needs_nonzero_b():
    with pytest.raises(DomainError):
        henon_inverse(HenonParams(1.2, 0.0), (1.0, 1.0))


def test_lorenz_field_values():
    p = LorenzParams(*LORENZ_DEFAULTS)
    field = preset("lorenz").field(LORENZ_DEFAULTS)
    assert np.all(field(0.0, np.zeros(3)) == 0.0)
    f = field(0.0, np.array([1.0, 1.0, 1.0]))
    # third component is x*y - b*z = 1 - 8/3
    assert f[0] == 0.0
    assert f[1] == 26.0
    assert f[2] == 1.0 - 8.0 / 3.0
    w = math.sqrt(p.b * (p.r - 1.0))
    assert abs(w - 8.485281) < 1e-6
    residual = field(0.0, np.array([w, w, p.r - 1.0]))
    assert np.max(np.abs(residual)) < 1e-12


def test_lorenz_params_positive():
    with pytest.raises(DomainError):
        LorenzParams(0.0, 28.0, 1.0)
    with pytest.raises(DomainError):
        LorenzParams(10.0, -1.0, 1.0)


def test_chua_g_values():
    p = ChuaParams(15.0, 1.0, 25.58, m0=-8.0 / 7.0, m1=-5.0 / 7.0)
    assert chua_g(p, 0.0) == 0.0
    assert chua_g(p, 1.0) == p.m0
    assert abs(chua_g(p, 1.0) - (-1.142857)) < 1e-6
    assert abs(chua_g(p, 10.0) - (-53.0 / 7.0)) < 1e-14
    assert abs(chua_g(p, 10.0) - (-7.571429)) < 1e-6


@given(x=st.floats(-100.0, 100.0))
def test_chua_g_is_odd(x):
    p = ChuaParams(15.0, 1.0, 25.58, m0=-8.0 / 7.0, m1=-5.0 / 7.0)
    assert chua_g(p, -x) == -chua_g(p, x)


@pytest.mark.parametrize("corner", [1.0, -1.0])
@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_chua_g_continuous_at_corners(corner, eps):
    # the one-sided slopes are m0 inside and m1 outside, so the two-sided
    # difference is |m0 + m1| * eps; bound it by twice the larger slope
    p = ChuaParams(15.0, 1.0, 25.58, m0=-8.0 / 7.0, m1=-5.0 / 7.0)
    left = chua_g(p, corner - eps)
    right = chua_g(p, corner + eps)
    assert abs(left - right) <= 2.0 * max(abs(p.m0), abs(p.m1)) * eps + 1e-15


def test_chua_field_values():
    field = preset("chua").field(CHUA_DEFAULTS)
    assert np.all(field(0.0, np.zeros(3)) == 0.0)
    f = field(0.0, np.array([1.0, 0.0, 0.0]))
    assert abs(f[0] - 15.0 / 7.0) < 1e-12
    assert f[1] == 1.0
    assert f[2] == 0.0


def test_chua_field_outer_equilibria():
    # x + g(x) = 0 at x = +-3/2 for the shipped slopes, so (x, 0, -x) is fixed
    field = preset("chua").field(CHUA_DEFAULTS)
    for x in (1.5, -1.5):
        f = field(0.0, np.array([x, 0.0, -x]))
        assert np.max(np.abs(f)) < 1e-12


def test_chua_params_require_distinct_slopes():
    with pytest.raises(DomainError):
        ChuaParams(15.0, 1.0, 25.58, m0=-1.0, m1=-1.0)


def test_chua_paper_code_field_matches_straight_line():
    x, y, z = -1.6, 0.0, 1.6
    expected_x = 15.0 * (y - x) - (
        (5.0 / 7.0) * x
        + 0.5 * (-(8.0 / 7.0) - (-5.0 / 7.0)) * (abs(x + 1.0) - abs(x - 1.0))
    )
    field = preset("chua-paper-code").field(())
    f = field(0.0, np.array([x, y, z]))
    assert f[0] == expected_x
    assert abs(f[0] - 24.714286) < 1e-6
    assert f[1] == x - y + z
    assert f[2] == -25.58 * y
    assert np.all(field(0.0, np.zeros(3)) == 0.0)


def test_chua_paper_code_orbit_decays_to_origin():
    # The verbatim double-scroll transcription has its only equilibrium at
    # the origin and spirals into it; it never reaches the x > 0.5 lobe.
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    traj = integrate(
        PRESETS["chua-paper-code"].field(None), [-1.6, 0.0, 1.6], 0.0, 200.0, cfg
    )
    assert np.max(np.abs(traj.states[-1])) < 1e-3
    assert not np.any(traj.states[:, 0] > 0.5)


def _band_visits(values, predicate):
    inside = predicate(values)
    return int(np.sum(inside[1:] & ~inside[:-1]) + (1 if inside[0] else 0))


def test_chua_equation_form_double_scrolls():
    cfg = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    traj = integrate(PRESETS["chua"].field(None), [-1.6, 0.0, 1.6], 0.0, 100.0, cfg)
    x = traj.states[:, 0]
    assert _band_visits(x, lambda v: v > 0.5) >= 10
    assert _band_visits(x, lambda v: v < -0.5) >= 10


def test_linear_solution_values():
    assert linear_solution(Linear1DParams(0.0), 7.0, 123.0) == 7.0
    assert abs(linear_solution(Linear1DParams(1.0), 1.0, 1.0) - 2.718282) < 1e-6
    assert abs(linear_solution(Linear1DParams(-1.0), 2.0, math.log(2.0)) - 1.0) < 1e-15


def test_preset_registry():
    assert set(PRESETS) == {
        "logistic",
        "henon",
        "lorenz",
        "chua",
        "chua-paper-code",
        "linear1d",
    }
    assert preset("lorenz").kind == "flow"
    assert preset("henon").kind == "map"
    assert preset("logistic").default_params == (3.8282,)
    with pytest.raises(UnknownPreset):
        preset("nosuch")


#: name: (kind, dimension, param_names, default_state, default_params)
PRESET_RECORDS = {
    "logistic": ("map", 1, ("mu",), (0.2,), (3.8282,)),
    "henon": ("map", 2, ("a", "b"), (0.1, 0.0), (1.2, 0.4)),
    "lorenz": ("flow", 3, ("sigma", "r", "b"), (15.0, 20.0, 30.0), (10.0, 28.0, 8.0 / 3.0)),
    "chua": ("flow", 3, ("c1", "c2", "c3", "m0", "m1"), (-1.6, 0.0, 1.6),
             (15.0, 1.0, 25.58, -8.0 / 7.0, -5.0 / 7.0)),
    "chua-paper-code": ("flow", 3, (), (-1.6, 0.0, 1.6), ()),
    "linear1d": ("flow", 1, ("a",), (1.0,), (1.0,)),
}


@pytest.mark.parametrize("name", sorted(PRESET_RECORDS))
def test_preset_records_are_unchanged(name):
    p = preset(name)
    assert p.name == name
    assert (p.kind, p.dimension, p.param_names, p.default_state, p.default_params) == (
        PRESET_RECORDS[name]
    )
    assert p.resolve_params(None) == p.default_params


@pytest.mark.parametrize("name", sorted(PRESET_RECORDS))
def test_preset_kind_and_count_messages_are_unchanged(name):
    p = preset(name)
    kind, _, names, _, _ = PRESET_RECORDS[name]
    other, build = ("map", p.map) if kind == "flow" else ("flow", p.field)
    with pytest.raises(DomainError, match=f"^preset '{name}' is not a {other}$"):
        build(None)
    listed = ",".join(names) or "(none)"
    want = f"system '{name}' takes {len(names)} parameters ({listed}), got 6"
    with pytest.raises(DomainError) as err:
        (p.field if kind == "flow" else p.map)((1.0,) * 6)
    assert str(err.value) == want


#: Each library entry point that takes a preset of a kind, with its call,
#: and the preset's own ndarray form.
ENTRY_POINTS = {
    "flow": {
        "integrate": lambda f, x0: integrate(f, x0, 0.0, 1.0),
        "divergence_rate": lambda f, x0: divergence_rate(f, x0, 1e-8, 1.0),
        "verify_equilibrium": lambda f, x0: verify_equilibrium(f, x0, 1e-9),
        "ndarray": lambda f, x0: f(0.0, np.array(x0)),
    },
    "map": {
        "iterate_map": lambda f, x0: iterate_map(f, x0, 5),
        "ndarray": lambda f, x0: f(np.array(x0)),
    },
}
OTHER_DIMENSIONS = [
    (name, entry, dim)
    for name, (kind, d, *_) in sorted(PRESET_RECORDS.items())
    for entry in ENTRY_POINTS[kind]
    for dim in (d - 1, d + 1) if dim >= 1
]
#: A preset wrapped in another callable, as the benchmark's tracer wraps it:
#: the library then calls the preset's ndarray form.
WRAPPED = {"flow": lambda f: lambda t, s: f(t, s), "map": lambda f: lambda s: f(s)}


@pytest.mark.parametrize("name, entry, dim", OTHER_DIMENSIONS)
def test_a_start_of_another_dimension_is_a_domain_error(name, entry, dim):
    p = preset(name)
    what, fn = ("field", p.field(None)) if p.kind == "flow" else ("map", p.map(None))
    want = f"^{what} has dimension {p.dimension}, got a state of dimension {dim}$"
    with pytest.raises(DomainError, match=want):
        ENTRY_POINTS[p.kind][entry](fn, [0.5] * dim)


@pytest.mark.parametrize("name, entry, dim", OTHER_DIMENSIONS)
def test_a_wrapped_preset_refuses_another_dimension(name, entry, dim):
    p = preset(name)
    what, fn = ("field", p.field(None)) if p.kind == "flow" else ("map", p.map(None))
    want = f"^{what} has dimension {p.dimension}, got a state of dimension {dim}$"
    with pytest.raises(DomainError, match=want):
        ENTRY_POINTS[p.kind][entry](WRAPPED[p.kind](fn), [0.5] * dim)


@pytest.mark.parametrize("state", [0.3, np.float64(0.3), np.array(0.3)], ids=repr)
@pytest.mark.parametrize("name", sorted(PRESET_RECORDS))
def test_the_ndarray_form_takes_a_scalar_as_a_state_of_one_component(name, state):
    # as every library entry point does with a scalar x0
    p = preset(name)
    fn, head = (p.field(None), (0.0,)) if p.kind == "flow" else (p.map(None), ())
    if p.dimension == 1:
        got = fn(*head, state)
        assert got.dtype == np.float64 and got.tolist() == fn(*head, [0.3]).tolist()
    else:
        want = f"has dimension {p.dimension}, got a state of dimension 1$"
        with pytest.raises(DomainError, match=want):
            fn(*head, state)


def test_systems_imports_no_numpy():
    # a preset has one form, the FloatKernel, which computes on Python floats
    tree = ast.parse(Path(systems.__file__).read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "dataclasses" in modules and "numpy" not in modules


def test_unknown_preset_message_is_unchanged():
    with pytest.raises(UnknownPreset) as err:
        preset("nosuch")
    assert str(err.value) == (
        "unknown system preset 'nosuch' "
        "(known: chua, chua-paper-code, henon, linear1d, logistic, lorenz)"
    )


def test_preset_kind_mismatch_raises():
    with pytest.raises(DomainError):
        preset("lorenz").map(None)
    with pytest.raises(DomainError):
        preset("logistic").field(None)


def test_preset_map_and_field_evaluate():
    henon = preset("henon").map(None)
    assert np.array_equal(henon(np.array([0.0, 0.0])), np.array([1.0, 0.0]))
    lorenz = preset("lorenz").field(None)
    assert np.array_equal(lorenz(0.0, np.zeros(3)), np.zeros(3))
    linear = preset("linear1d").field((2.0,))
    assert linear(0.0, np.array([3.0]))[0] == 6.0


def test_preset_checks_parameter_count():
    with pytest.raises(DomainError):
        preset("lorenz").field((1.0, 2.0))
    with pytest.raises(DomainError):
        preset("henon").map((1.2,))
    with pytest.raises(DomainError):
        preset("chua-paper-code").field((1.0,))
    assert preset("lorenz").resolve_params([10.0, 28.0, 1.0]) == (10.0, 28.0, 1.0)


@settings(max_examples=50)
@given(state=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
def test_public_fields_return_ndarrays_equal_to_preset_kernels(state):
    # a preset field called with an ndarray returns the kernel's floats as one
    s = np.array(state)
    for name, params in (("lorenz", LORENZ_DEFAULTS), ("chua", CHUA_DEFAULTS),
                         ("chua-paper-code", ())):
        field = preset(name).field(params)
        called = field(0.0, s)
        assert isinstance(called, np.ndarray) and called.dtype == np.float64
        assert called.shape == (3,)
        assert called.tobytes() == np.array(field.kernel(0.0, state)).tobytes()
