import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope.errors import (
    DomainError,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
)
from chaoscope.integrate import (
    IntegratorConfig,
    MapOrbit,
    Trajectory,
    integrate,
    iterate_map,
)


def linear_field(a):
    return lambda t, x: a * x


def test_exponential_growth_endpoint():
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    traj = integrate(linear_field(1.0), [1.0], 0.0, 1.0, cfg)
    assert abs(traj.states[-1][0] - 2.718282) / 2.718282 < 1e-5


def test_exponential_decay_endpoint():
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    traj = integrate(linear_field(-1.0), [1.0], 0.0, 1.0, cfg)
    assert abs(traj.states[-1][0] - 0.367879) / 0.367879 < 1e-5


def test_zero_field_constant_solution():
    traj = integrate(lambda t, x: np.zeros(3), [15.0, 20.0, 30.0], 0.0, 100.0)
    assert np.all(traj.states == np.array([15.0, 20.0, 30.0]))


def test_trajectory_spans_exact_endpoints():
    traj = integrate(linear_field(0.5), [2.0], 0.25, 7.75)
    assert traj.times[0] == 0.25
    assert traj.times[-1] == 7.75
    assert np.all(np.diff(traj.times) > 0)


def test_chained_integration_agrees_with_one_shot():
    tol = 1e-6
    cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol)
    one = integrate(linear_field(1.3), [1.0], 0.0, 2.0, cfg)
    first = integrate(linear_field(1.3), [1.0], 0.0, 1.0, cfg)
    second = integrate(linear_field(1.3), first.states[-1], 1.0, 2.0, cfg)
    delta = abs(one.states[-1][0] - second.states[-1][0])
    assert delta <= 10.0 * (tol + tol * abs(one.states[-1][0]))


@pytest.mark.parametrize("a,u0", [(1.0, 1.0), (-1.0, 2.0), (2.0, 0.5)])
def test_tightening_tolerances_never_increases_error(a, u0):
    errors = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7):
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        traj = integrate(linear_field(a), [u0], 0.0, 1.0, cfg)
        errors.append(abs(traj.states[-1][0] - u0 * math.exp(a)))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    # |u0| bounded away from 0: below the absolute tolerance no integrator
    # can promise relative accuracy
    u0=st.one_of(st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6), st.just(0.0)),
)
def test_linear_endpoint_matches_closed_form(a, u0):
    rel_tol = 1e-6
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-12)
    traj = integrate(linear_field(a), [u0], 0.0, 3.0, cfg)
    exact = u0 * math.exp(a * 3.0)
    if exact == 0.0:
        assert traj.states[-1][0] == 0.0
    else:
        assert abs(traj.states[-1][0] - exact) <= 100.0 * rel_tol * abs(exact)


def test_step_underflow_on_blowup():
    # x' = x^2 from 1 blows up at t = 1; a generous min_step trips first
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, min_step=1e-6)
    with pytest.raises(StepUnderflow):
        integrate(lambda t, x: x * x, [1.0], 0.0, 1.5, cfg)


def test_max_steps_exceeded():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, max_steps=5)
    with pytest.raises(MaxStepsExceeded):
        integrate(lambda t, x: np.array([math.sin(t) * x[0] + 1.0]), [1.0], 0.0, 50.0, cfg)


def test_nonfinite_field_raises():
    with pytest.raises(NonFiniteState):
        integrate(lambda t, x: np.array([float("nan")]), [1.0], 0.0, 1.0)


def test_nonfinite_initial_state_rejected():
    with pytest.raises(NonFiniteState):
        integrate(linear_field(1.0), [float("inf")], 0.0, 1.0)


def test_reversed_span_rejected():
    with pytest.raises(DomainError):
        integrate(linear_field(1.0), [1.0], 1.0, 0.0)


def test_field_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        integrate(lambda t, x: np.zeros(2), [1.0], 0.0, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 1.0},
        {"abs_tol": -1e-3},
        {"abs_tol": 2.0},
        {"initial_step": 0.0},
        {"max_steps": 0},
        {"min_step": 0.0},
        {"initial_step": 1e-6, "min_step": 1e-3},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)


def test_trajectory_requires_increasing_times():
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 1.0, 1.0]), states=np.zeros((3, 1)))


def test_iterate_identity_map():
    orbit = iterate_map(lambda s: s, [0.3], 5, 0)
    assert orbit.points.shape == (5, 1)
    assert np.all(orbit.points == 0.3)
    assert orbit.discarded == 0


def test_iterate_logistic_two_steps():
    mu = 3.8282
    orbit = iterate_map(lambda s: np.array([mu * s[0] * (1 - s[0])]), [0.2], 2, 0)
    assert orbit.points[0][0] == 0.2
    assert orbit.points[1][0] == mu * 0.2 * (1 - 0.2)
    assert abs(orbit.points[1][0] - 0.612512) < 1e-6


def test_iterate_henon_with_discard():
    a, b = 1.2, 0.4
    step = lambda s: np.array([1 + s[1] - a * s[0] * s[0], b * s[0]])
    orbit = iterate_map(step, [0.1, 0.0], 2, 1)
    assert orbit.points.shape == (1, 2)
    assert orbit.points[0][0] == 0.988
    assert orbit.points[0][1] == b * 0.1
    assert orbit.discarded == 1


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 40),
    discard=st.integers(0, 39),
    x0=st.floats(0.01, 0.99),
)
def test_discard_equals_dropping_prefix(n, discard, x0):
    if discard >= n:
        discard = n - 1
    step = lambda s: np.array([3.7 * s[0] * (1 - s[0])])
    full = iterate_map(step, [x0], n, 0)
    tail = iterate_map(step, [x0], n, discard)
    assert np.array_equal(full.points[discard:], tail.points)


def test_iterate_nonfinite_reports_index():
    step = lambda s: s * 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as err:
        iterate_map(step, [10.0], 5, 0)
    assert err.value.index == 2


def test_iterate_preconditions():
    with pytest.raises(DomainError):
        iterate_map(lambda s: s, [0.1], 3, 3)
    with pytest.raises(DomainError):
        iterate_map(lambda s: s, [0.1], 0, 0)
    with pytest.raises(DomainError):
        iterate_map(lambda s: s, [0.1], 5, -1)


def test_map_orbit_requires_points():
    with pytest.raises(DomainError):
        MapOrbit(points=np.empty((0, 1)))


def test_step_that_does_not_advance_t_underflows():
    # h = 1e-12 is above min_step, but 1e6 + 1e-12 == 1e6 in binary64
    cfg = IntegratorConfig(initial_step=1e-12, min_step=1e-13)
    with pytest.raises(StepUnderflow):
        integrate(linear_field(1.0), [1.0], 1e6, 1e6 + 1.0, cfg)
