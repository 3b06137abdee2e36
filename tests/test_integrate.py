import dataclasses
import importlib
import math
import random
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope.analysis import DivergenceReport, divergence_rate
from chaoscope.errors import (
    ChaoscopeError,
    DomainError,
    GridTooLarge,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
    check_real,
)
from chaoscope.formats import write_divergence_csv
from chaoscope.integrate import (
    FloatKernel,
    IntegratorConfig,
    MapOrbit,
    Trajectory,
    _slope,
    _step_budget,
    as_state,
    integrate,
    iterate_map,
)
from chaoscope.systems import PRESETS

from conftest import loop_integrate, loop_iterate_map, mp_slope

#: The start of the NonFiniteState message at the step floor, before its t.
NON_FINITE = r"^non-finite field value or state in the step from t="

def linear_field(a):
    return lambda t, x: a * x


def test_kept_steps_peak_at_most_150_bytes_each():
    # Lorenz 0:200 at rel_tol 1e-6 keeps about 9600 steps of 4 values: the
    # flat float list peaks near 128.5 bytes a step, so 150 refuses a
    # float64 copy made at the end (about 170) and one list of times and
    # one list per state (about 265)
    field = PRESETS["lorenz"].field(None)
    tracemalloc.start()
    try:
        traj = integrate(field, [15.0, 20.0, 30.0], 0.0, 200.0, IntegratorConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) > 9000
    assert peak <= 150 * len(traj.times)


def test_kept_iterates_peak_at_most_36_bytes_per_value():
    # 200k Henon iterates of 2 values: the flat float list peaks near 32
    # bytes a value (a float and its pointer), and no float64 copy is made
    step = PRESETS["henon"].map(None)
    tracemalloc.start()
    try:
        orbit = iterate_map(step, [0.1, 0.0], 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit.points) == 200_000
    assert peak <= 36 * 2 * 200_000


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


@pytest.mark.parametrize("dim, budget", [(3, 1_000_000), (8, 1_000_000), (9, 999_999),
                                         (12, 769_229)])
def test_the_default_budget_is_resolved_per_dimension(dim, budget):
    # the most attempts whose kept steps, one more, of dim + 1 values each,
    # fit the 10M-value cap, and never more than 1,000,000
    assert IntegratorConfig().max_steps is None
    assert _step_budget(dim) == budget


def _diagonal_field(rates):
    """x_i' = rates[i] x_i, one FloatKernel component per rate."""
    return FloatKernel(lambda t, s: [r * v for r, v in zip(rates, s)], len(rates))


def test_a_12_component_flow_runs_under_the_default_config():
    # its kept steps at the old fixed budget, 1000001 x 13 values, passed the
    # cap, so the run was refused before its first step
    field = _diagonal_field([0.5] * 12)
    traj = integrate(field, [1.0] * 12, 0.0, 8.0)
    assert traj.times[-1] == 8.0 and traj.states.shape[1] == 12
    assert traj.states[-1] == pytest.approx([math.exp(4.0)] * 12, rel=1e-5)
    for config in (None, IntegratorConfig()):
        report = divergence_rate(field, [1.0] * 12, 1e-6, 8.0, config)
        assert report.fitted_rate == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("dim", [6, 12])
def test_a_state_too_wide_for_one_kept_step_is_refused_before_the_field(dim, monkeypatch):
    # with a 12-value cap, 12 // 7 - 1 = 0 and 12 // 13 - 1 = -1 attempts
    # would pass the cap check and fail only after calling the field; the
    # budget of at least 1 keeps 2 steps of dim + 1 values, over the cap
    monkeypatch.setattr(importlib.import_module("chaoscope.integrate"), "MAX_ORBIT_VALUES", 12)

    def field(t, y):
        raise AssertionError("the field was called")

    with pytest.raises(GridTooLarge, match=rf"^2 steps x {dim + 1} values = {2 * (dim + 1)}, "):
        integrate(field, [1.0] * dim, 0.0, 1.0)
    with pytest.raises(GridTooLarge):
        divergence_rate(field, [1.0] * dim, 1e-6, 1.0)
    # 12 // 6 - 1 = 1: five components keep their one attempt
    with pytest.raises(MaxStepsExceeded, match=r"within 1 attempted steps$"):
        integrate(_diagonal_field([0.5] * 5), [1.0] * 5, 0.0, 1.0)


def test_nonfinite_field_raises():
    with pytest.raises(NonFiniteState):
        integrate(lambda t, x: np.array([float("nan")]), [1.0], 0.0, 1.0)


def test_nonfinite_initial_state_rejected():
    # an input state is refused by the real check, as every real input is;
    # NonFiniteState is left to values computed during the run
    with pytest.raises(DomainError, match=r"^x0 must lie in \(-inf, inf\), got inf$") as err:
        integrate(linear_field(1.0), [float("inf")], 0.0, 1.0)
    assert err.traceback[-1].name == "check_real"
    assert not isinstance(err.value, NonFiniteState)


def test_reversed_span_rejected():
    with pytest.raises(DomainError):
        integrate(linear_field(1.0), [1.0], 1.0, 0.0)


def test_field_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        integrate(lambda t, x: np.zeros(2), [1.0], 0.0, 1.0)


def test_a_scalar_field_result_counts_as_one_value():
    # fields and maps share one ndarray adapter, which takes a 0-d result
    # of a 1-D system as its one value
    scalar = integrate(lambda t, x: -0.5 * x[0], [1.0], 0.0, 2.0)
    vector = integrate(lambda t, x: -0.5 * x, [1.0], 0.0, 2.0)
    assert scalar.times.tobytes() == vector.times.tobytes()
    assert scalar.states.tobytes() == vector.states.tobytes()


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
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)


def _never_called(t, x):
    raise AssertionError("the field was called")


# integrate judges initial_step against min_step, given or 1e-12 * (t1 - t0),
# with the closed end of the step rule, which refuses only h < min_step
@pytest.mark.parametrize(
    "kwargs, floor",
    [
        ({"initial_step": 1e-6, "min_step": 1e-3}, "0.001"),
        ({"initial_step": 1e-13}, "1e-12"),
        ({"initial_step": 9.9e-13}, "1e-12"),
    ],
    ids=["below-given-min_step", "below-default-floor", "just-below-default-floor"],
)
def test_initial_step_below_min_step_is_refused_before_the_field_runs(kwargs, floor):
    cfg = IntegratorConfig(**kwargs)
    message = rf"^initial_step must lie in \[{floor}, inf\), got {kwargs['initial_step']}$"
    with pytest.raises(DomainError, match=message) as err:
        integrate(_never_called, [1.0], 0.0, 1.0, cfg)
    assert err.traceback[-1].name == "check_real"


@pytest.mark.parametrize(
    "kwargs", [{"initial_step": 1e-12}, {"initial_step": 1e-3, "min_step": 1e-3}],
    ids=["at-default-floor", "at-given-min_step"],
)
def test_initial_step_equal_to_min_step_runs(kwargs):
    cfg = IntegratorConfig(**kwargs)
    traj = integrate(linear_field(1.0), [1.0], 0.0, 1.0, cfg)
    assert traj.times[1] == kwargs["initial_step"]
    assert traj.times[-1] == 1.0
    _same_as_oracle(linear_field(1.0), [1.0], 1.0, cfg)


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


def test_iterate_cap_counts_every_value_and_refuses_before_iterating(monkeypatch):
    # the package attribute `integrate` is the function, so fetch the module
    module = importlib.import_module("chaoscope.integrate")
    monkeypatch.setattr(module, "MAX_ORBIT_VALUES", 12)
    assert iterate_map(lambda s: s, [0.1, 0.2], 6).points.shape == (6, 2)

    def step(s):
        raise AssertionError("the orbit started")

    with pytest.raises(GridTooLarge):
        iterate_map(step, [0.1, 0.2], 7, 6)  # discarded iterates count too
    monkeypatch.undo()
    with pytest.raises(GridTooLarge):
        iterate_map(step, [0.1, 0.2], 10**13)


def test_map_orbit_requires_points():
    with pytest.raises(DomainError):
        MapOrbit(points=np.empty((0, 1)))


def test_step_that_does_not_advance_t_underflows():
    # h = 1e-12 is above min_step, but 1e6 + 1e-12 == 1e6 in binary64
    cfg = IntegratorConfig(initial_step=1e-12, min_step=1e-13)
    with pytest.raises(StepUnderflow):
        integrate(linear_field(1.0), [1.0], 1e6, 1e6 + 1.0, cfg)


# The float loops against the ndarray loops they replaced (conftest's
# loop_integrate and loop_iterate_map): same times, states, orbits, error
# types, messages and iterate indices, bit for bit.


def _outcome(run, *args):
    """A run's result as bytes, or its error as (type, message, index)."""
    try:
        result = run(*args)
    except ChaoscopeError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    if isinstance(result, Trajectory):
        return result.times.tobytes(), result.states.tobytes(), result.states.shape
    return result.points.tobytes(), result.points.shape, result.discarded


def _same_as_oracle(field, x0, t1, cfg):
    want = _outcome(loop_integrate, field, x0, 0.0, t1, cfg)
    assert _outcome(integrate, field, x0, 0.0, t1, cfg) == want
    return want


FLOW_PARAMS = {
    "lorenz": st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 50.0), st.floats(0.1, 5.0)),
    "chua": st.tuples(
        st.floats(1.0, 20.0), st.floats(0.1, 2.0), st.floats(1.0, 30.0),
        st.floats(-2.0, -1.01), st.floats(-1.0, 0.5),
    ),
    "chua-paper-code": st.just(()),
    # |a| up to 1000 overflows to Inf within the span: NonFiniteState
    "linear1d": st.tuples(st.floats(-1000.0, 1000.0)),
}

tolerances = st.floats(4.0, 10.0).map(lambda e: 10.0 ** -e)
configs = st.builds(
    IntegratorConfig,
    rel_tol=tolerances,
    abs_tol=tolerances,
    max_steps=st.sampled_from([5, 300, 5000]),
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(FLOW_PARAMS)),
    data=st.data(),
    t1=st.floats(0.01, 1.0),
    cfg=configs,
)
def test_float_core_matches_ndarray_loop_on_presets(name, data, t1, cfg):
    p = PRESETS[name]
    params = data.draw(FLOW_PARAMS[name], label="params")
    x0 = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=p.dimension,
                            max_size=p.dimension), label="x0")
    field = p.field(params)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _same_as_oracle(field, x0, t1, cfg)
        # the same field as a plain ndarray callable runs through the adapter
        assert _outcome(integrate, lambda t, s: field(t, s), x0, 0.0, t1, cfg) == want


@settings(max_examples=25, deadline=None)
@given(
    k=st.floats(0.1, 4.0),
    damping=st.floats(0.0, 1.0),
    drive=st.floats(-2.0, 2.0),
    x0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    t1=st.floats(0.01, 3.0),
    cfg=configs,
)
def test_float_core_matches_ndarray_loop_on_ndarray_fields(k, damping, drive, x0, t1, cfg):
    def forced_oscillator(t, x):
        return np.array([x[1], -k * x[0] - damping * x[1] + drive * math.sin(t)])

    _same_as_oracle(forced_oscillator, list(x0), t1, cfg)


@pytest.mark.parametrize(
    "field,x0,t1,cfg",
    [
        # NaN from one stage on, as an ndarray field and as a float kernel
        (lambda t, x: x if t < 0.37 else x * np.nan, [1.0], 1.0, None),
        (FloatKernel(lambda t, s: (s[0] if t < 0.37 else math.nan,), 1), [1.0], 1.0, None),
        (FloatKernel(lambda t, s: (1.0, -math.inf if t > 0.5 else 0.0), 2), [0.0, 0.0], 1.0,
         None),
        # the state overflows to Inf within the span
        (lambda t, x: 2000.0 * x, [1.0], 1.0, None),
        # x' = x^2 from 1 blows up at t = 1
        (lambda t, x: x * x, [1.0], 1.5, IntegratorConfig(min_step=1e-6)),
        (lambda t, x: x * x, [1.0], 1.5, None),
        (lambda t, x: np.zeros(2), [1.0], 1.0, None),
        (FloatKernel(lambda t, s: (0.0, 0.0), 1), [1.0], 1.0, None),
        (linear_field(1.0), [1.0], 50.0, IntegratorConfig(1e-10, 1e-10, max_steps=5)),
        # the second state component overflows to -Inf, then a drive of the
        # other sign makes y_new NaN: numpy's NaN-propagating max rejects
        # every step from then on, until the step underflows
        (FloatKernel(lambda t, s: (-s[0], -1.7e308 if t < 1.5 else 1.7e308), 2), [1.0, 0.0],
         3.0, None),
        # finite values whose sum overflows are not NaN or Inf
        (FloatKernel(lambda t, s: (1e308, 1e308), 2), [0.0, 0.0], 1.0, None),
        # a field that reads the sign of a zero state: the second stage's
        # input is -0.0 + h * (0 + a21 * -0.0) = +0.0, thanks to the leading 0
        (lambda t, x: np.where(t == 0.0, -0.0, np.where(np.signbit(x), 1.0, 2.0)), [-0.0],
         1.0, None),
    ],
)
def test_float_core_raises_like_ndarray_loop(field, x0, t1, cfg):
    with np.errstate(over="ignore", invalid="ignore"):
        _same_as_oracle(field, x0, t1, cfg)


@settings(max_examples=60, deadline=None)
@given(
    bad_call=st.integers(1, 20),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    as_ndarray=st.booleans(),
)
def test_float_core_reports_the_first_nonfinite_stage(bad_call, value, as_ndarray):
    """One evaluation returns NaN or Inf: its trial step is rejected and
    shrunk in both loops, with the same evaluations, and the run goes on to
    the same trajectory, or to the same error after the same evaluations."""

    def run(integrator):
        calls = []

        def oscillator(t, s):
            calls.append(t)
            return (value if len(calls) == bad_call else -s[1], s[0])

        field = FloatKernel(oscillator, 2)
        if as_ndarray:
            field = lambda t, s, kernel=field: kernel(t, s)  # noqa: E731
        return _outcome(integrator, field, [1.0, 0.0], 0.0, 1.0, None), calls

    with np.errstate(over="ignore", invalid="ignore"):
        assert run(integrate) == run(loop_integrate)


@pytest.mark.parametrize("as_ndarray", [False, True], ids=["FloatKernel", "ndarray"])
def test_each_attempt_calls_the_field_six_times_and_ends_at_y_new(as_ndarray):
    # FSAL: stage 1 of an attempt is the previous attempt's stage 7, so an
    # attempt calls the field six times and never at its own start, and its
    # last call is at (t + h, y_new), the next kept row when it is accepted.
    # bench/tracing.py infers the rejected steps from this count.
    lorenz = PRESETS["lorenz"].field(None)
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8, initial_step=0.5)

    def run(integrator):
        calls = []

        def kernel(t, s):
            calls.append((t.hex(), [float(v).hex() for v in s]))
            return lorenz.kernel(t, s)

        field = FloatKernel(kernel, 3)
        if as_ndarray:
            field = lambda t, s, kernel=field: kernel(t, s)  # noqa: E731
        return integrator(field, [15.0, 20.0, 30.0], 0.0, 1.0, cfg), calls

    traj, calls = run(integrate)
    # the ndarray loop takes stage 7's state from the A row (b1, 0, b3, ..., b6)
    assert calls == run(loop_integrate)[1]
    rows = [(t.hex(), [v.hex() for v in s])
            for t, s in zip(traj.times.tolist(), traj.states.tolist())]
    assert calls[0] == rows[0]
    assert (len(calls) - 1) % 6 == 0
    attempts = [calls[i:i + 6] for i in range(1, len(calls), 6)]
    kept = 0
    for attempt in attempts:
        assert rows[kept][0] not in [t for t, _ in attempt]
        assert attempt[5][0] == attempt[4][0]  # stages 6 and 7 both at t + h
        if attempt[5] == rows[kept + 1]:
            kept += 1
    assert kept == len(rows) - 1
    assert len(attempts) > kept  # the large initial_step is rejected


def test_float_core_keeps_the_advance_check():
    cfg = IntegratorConfig(initial_step=1e-12, min_step=1e-13)
    args = (linear_field(1.0), [1.0], 1e6, 1e6 + 1.0, cfg)
    want = _outcome(loop_integrate, *args)
    assert want[0] is StepUnderflow
    assert _outcome(integrate, *args) == want


# The error estimate is the one judge of a trial step: a NaN or Inf stage
# makes it NaN or Inf, so the step is rejected and shrunk like any other, and
# NonFiniteState is raised only at the step floor after a non-finite trial.
# Each case runs through a FloatKernel and through an ndarray callable.

as_ndarray_or_not = pytest.mark.parametrize("as_ndarray", [False, True],
                                            ids=["FloatKernel", "ndarray"])


def _field(kernel, dim, as_ndarray):
    field = FloatKernel(kernel, dim)
    return (lambda t, s: field(t, s)) if as_ndarray else field


@as_ndarray_or_not
@pytest.mark.parametrize("initial_step", [1.0, 0.5])
def test_a_first_step_that_overflows_is_shrunk(initial_step, as_ndarray):
    # x' = -x^3 from 10: the first trial's later stages overflow to Inf
    field = _field(lambda t, s: (-s[0] * s[0] * s[0],), 1, as_ndarray)
    cfg = IntegratorConfig(initial_step=initial_step)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(loop_integrate, field, [10.0], 0.0, 1.0, cfg)
        traj = integrate(field, [10.0], 0.0, 1.0, cfg)
    assert (traj.times.tobytes(), traj.states.tobytes(), traj.states.shape) == want
    assert traj.times[-1] == 1.0
    assert traj.times[1] < initial_step
    assert abs(traj.states[-1][0] - 10.0 / math.sqrt(1.0 + 2.0 * 100.0)) <= 1e-6


@as_ndarray_or_not
def test_a_nan_only_at_stage_2_rejects_that_trial(as_ndarray):
    # the field is 1.0 at every other call, whatever the state, so only the
    # error estimate, where k2 enters with the weight 0.0, sees the NaN
    def run(integrator):
        calls = []

        def kernel(t, s):
            calls.append(t)
            return (math.nan if len(calls) == 2 else 1.0,)

        cfg = IntegratorConfig(initial_step=0.5)
        return integrator(_field(kernel, 1, as_ndarray), [0.0], 0.0, 1.0, cfg), calls

    with np.errstate(invalid="ignore"):
        traj, calls = run(integrate)
        want, want_calls = run(loop_integrate)
    assert calls == want_calls
    assert traj.times.tobytes() == want.times.tobytes()
    assert traj.states.tobytes() == want.states.tobytes()
    assert calls[1] == 0.5 / 5  # stage 2 of the first attempt
    assert traj.times[1] < 0.5  # that attempt was rejected
    assert traj.times[-1] == 1.0
    assert abs(traj.states[-1][0] - 1.0) <= 1e-12


@as_ndarray_or_not
def test_a_field_nan_from_t_0_1_raises_just_below_it(as_ndarray):
    field = _field(lambda t, s: (s[0] if t < 0.1 else math.nan,), 1, as_ndarray)
    cfg = IntegratorConfig(initial_step=1.0)
    with np.errstate(invalid="ignore"):
        want = _outcome(loop_integrate, field, [1.0], 0.0, 1.0, cfg)
        with pytest.raises(NonFiniteState, match=NON_FINITE + r"0\.0999999999991049$") as err:
            integrate(field, [1.0], 0.0, 1.0, cfg)
    assert (NonFiniteState, str(err.value), None) == want
    # the step under the floor (min_step = 1e-12) still crosses 0.1
    assert 0.1 - 1e-11 < float(str(err.value).rpartition("=")[2]) < 0.1


@as_ndarray_or_not
def test_a_field_nan_far_from_zero_raises_where_t_stops_advancing(as_ndarray):
    # ulp(1e10) is about 1.9e-6, so t + h == t once h is below about 9.5e-7,
    # long before h falls under min_step = 1e-12 * span: the floor is reached
    # through the advance check
    t0 = 1e10
    field = _field(lambda t, s: (s[0] if t < t0 + 0.1 else math.nan,), 1, as_ndarray)
    cfg = IntegratorConfig(initial_step=1.0)
    with np.errstate(invalid="ignore"):
        want = _outcome(loop_integrate, field, [1.0], t0, t0 + 1.0, cfg)
        with pytest.raises(NonFiniteState, match=NON_FINITE) as err:
            integrate(field, [1.0], t0, t0 + 1.0, cfg)
    assert (NonFiniteState, str(err.value), None) == want
    t = float(str(err.value).rpartition("=")[2])
    assert t0 + 0.1 - 16 * math.ulp(t0) < t < t0 + 0.1


@as_ndarray_or_not
def test_a_stiff_run_that_stays_finite_still_underflows(as_ndarray):
    # x' = -1e6 (x - cos t): explicit stability needs h of about 3e-6, under
    # min_step = 1e-3, and every trial stays finite on the way down
    values = []

    def kernel(t, s):
        values.append(-1e6 * (s[0] - math.cos(t)))
        return values[-1:]

    field = _field(kernel, 1, as_ndarray)
    cfg = IntegratorConfig(min_step=1e-3)
    want = _outcome(loop_integrate, field, [1.0], 0.0, 1.0, cfg)
    assert want[0] is StepUnderflow
    with pytest.raises(StepUnderflow, match=r"^required step .* underflows min_step 1\.000e-03 "):
        integrate(field, [1.0], 0.0, 1.0, cfg)
    assert all(map(math.isfinite, values))


@as_ndarray_or_not
def test_a_state_that_overflows_with_finite_stages_raises(as_ndarray):
    # x' = 1e308 from 1.7e308: every field value is finite, but a trial whose
    # y_new overflows to Inf is rejected, and once x nears the largest float
    # no step above min_step = 1e-12 stays finite
    field = _field(lambda t, s: (1e308,), 1, as_ndarray)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(loop_integrate, field, [1.7e308], 0.0, 1.0)
        with pytest.raises(NonFiniteState, match=NON_FINITE) as err:
            integrate(field, [1.7e308], 0.0, 1.0)
    assert (NonFiniteState, str(err.value), None) == want
    t = float(str(err.value).rpartition("=")[2])
    assert abs(t - (sys.float_info.max - 1.7e308) / 1e308) < 1e-11


MAP_PARAMS = {
    "henon": st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0)),
    "logistic": st.tuples(st.floats(0.0, 4.0)),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(MAP_PARAMS)),
    data=st.data(),
    n=st.integers(1, 2000),
    discard=st.integers(0, 50),
)
def test_float_map_loop_matches_ndarray_loop(name, data, n, discard):
    p = PRESETS[name]
    step = p.map(data.draw(MAP_PARAMS[name], label="params"))
    # starting points off the attractor make Henon orbits leave to Inf
    x0 = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=p.dimension,
                            max_size=p.dimension), label="x0")
    n += discard
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(loop_iterate_map, step, x0, n, discard)
        assert _outcome(iterate_map, step, x0, n, discard) == want
        # an ndarray MapFn that wraps the kernel has no domain to check
        wrapped = lambda s: step(s)  # noqa: E731
        assert (_outcome(iterate_map, wrapped, x0, n, discard)
                == _outcome(loop_iterate_map, wrapped, x0, n, discard))


@pytest.mark.parametrize(
    "map_fn,x0",
    [
        (lambda s: s * 1e200, [10.0]),
        (lambda s: np.array([s[0], np.nan]), [1.0, 2.0]),
        (FloatKernel(lambda s: (s[0] * 1e200,), 1), [10.0]),
        (lambda s: s[:1], [1.0, 2.0]),
        (FloatKernel(lambda s: (s[0], s[0]), 1), [1.0]),
        (lambda s: float(s[0]) / 2.0, [1.0]),
    ],
)
def test_float_map_loop_raises_like_ndarray_loop(map_fn, x0):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(loop_iterate_map, map_fn, x0, 5, 0)
        assert _outcome(iterate_map, map_fn, x0, 5, 0) == want


def test_a_float_kernel_of_another_dimension_is_refused_before_it_runs():
    calls = []
    field = FloatKernel(lambda t, s: calls.append(t) or (s[1], -s[0]), 2)
    step = FloatKernel(lambda s: calls.append(0) or (s[1], s[0]), 2)
    with pytest.raises(DomainError, match=r"^field has dimension 2, got a state of dimension 1$"):
        integrate(field, [1.0], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^field has dimension 2, got a state of dimension 3$"):
        integrate(field, [1.0, 0.0, 0.0], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^map has dimension 2, got a state of dimension 1$"):
        iterate_map(step, [1.0], 5)
    assert calls == []
    assert field.dimension == step.dimension == 2
    assert len(integrate(field, [1.0, 0.0], 0.0, 1.0).times) > 1
    assert iterate_map(step, [1.0, 2.0], 3).points.tolist() == [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]]


def test_ndarray_callable_messages_are_unchanged():
    with pytest.raises(DomainError, match=r"^field returned shape \(2,\), expected \(1,\)$"):
        integrate(lambda t, x: np.zeros(2), [1.0], 0.0, 1.0)
    with pytest.raises(NonFiniteState, match=NON_FINITE + r"0\.0$"):
        integrate(lambda t, x: x * np.nan, [1.0], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^map returned shape \(3,\), expected \(2,\)$"):
        iterate_map(lambda s: np.zeros(3), [1.0, 2.0], 4)
    with pytest.raises(NonFiniteState, match=r"^orbit left the finite range at iterate 1$"):
        iterate_map(lambda s: s * np.inf, [1.0, 2.0], 4)


def _counting(kernel):
    """kernel, and the list its wrapper appends each call's arguments to."""
    calls = []
    return (lambda *args: calls.append(args) or kernel(len(calls), *args)), calls


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("bad_call", [1, 2, 3, 4, 5, 6, 7, 8, 20])
def test_a_float_field_result_of_another_length_is_refused_at_any_call(bad_call, length):
    # call 1 is k1 before the loop, 2-7 the first trial's k2-k7, 8 on the second's
    kernel, calls = _counting(lambda k, t, s: (1.0,) * (length if k == bad_call else 2))
    message = rf"^field returned shape \({length},\), expected \(2,\)$"
    with pytest.raises(DomainError, match=message):
        integrate(FloatKernel(kernel, 2), [0.0, 0.0], 0.0, 100.0)
    assert len(calls) == bad_call  # refused before any later stage reads it


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("bad_call", [1, 2, 6])
def test_a_float_map_result_of_another_length_is_refused_at_any_call(bad_call, length):
    kernel, calls = _counting(lambda k, s: (1.0,) * (length if k == bad_call else 2))
    message = rf"^map returned shape \({length},\), expected \(2,\)$"
    with pytest.raises(DomainError, match=message):
        iterate_map(FloatKernel(kernel, 2), [0.0, 0.0], 10)
    assert len(calls) == bad_call


def test_a_float_kernel_that_changes_length_is_refused_like_the_loops():
    # the loops of conftest check every result; the engines once checked
    # only the first, and kept rows that were not iterates or steps
    step = FloatKernel(lambda s: (s[0] + 1.0, 1.0) if s[0] < 3 else (s[0] + 1.0,), 2)
    field = FloatKernel(lambda t, s: (1.0, 1.0) if t < 0.5 else (1.0,), 2)
    for engine, fn, args in ((iterate_map, step, (8,)), (integrate, field, (0.0, 1.0))):
        loop = loop_iterate_map if engine is iterate_map else loop_integrate
        want = _outcome(loop, fn, [0.0, 0.0], *args)
        assert want[0] is DomainError
        assert _outcome(engine, fn, [0.0, 0.0], *args) == want


def _record_outcome(make):
    """make()'s record as its fields, each array as (dtype, shape, bytes), and
    its repr; or the type and message of what it raised."""
    try:
        record = make()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    fields = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tobytes())
        fields[f.name] = value
    return fields, repr(record)


def _assert_behaves_as_built(record, built):
    """record, as integrate, iterate_map or divergence_rate made it, against
    the same values given to the public constructor: fields, arrays, repr,
    replace and immutability."""
    assert _record_outcome(lambda: record) == _record_outcome(lambda: built)
    assert [(f.name, f.type) for f in dataclasses.fields(record)] == [
        (f.name, f.type) for f in dataclasses.fields(built)]
    assert getattr(record, "dimension", None) == getattr(built, "dimension", None)
    name = dataclasses.fields(record)[0].name
    assert getattr(record, name) is getattr(record, name)  # built once
    copy = dataclasses.replace(record)
    assert type(copy) is type(record)
    assert _record_outcome(lambda: copy) == _record_outcome(lambda: built)
    for target in (record, copy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, getattr(built, name))
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        record.nosuch  # noqa: B018


@settings(max_examples=30, deadline=None)
@given(
    x0=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
    t1=st.floats(0.01, 2.0),
    n=st.integers(1, 300),
    discard=st.integers(0, 5),
)
def test_engine_records_match_records_built_from_their_values(x0, t1, n, discard):
    traj = integrate(PRESETS["lorenz"].field(None), x0, 0.0, t1)
    with pytest.raises(dataclasses.FrozenInstanceError):  # before its arrays exist
        traj.times = None
    values = traj._flat()
    built = Trajectory(times=values[0::4], states=[values[k + 1:k + 4]
                                                   for k in range(0, len(values), 4)])
    _assert_behaves_as_built(traj, built)
    assert traj.times.dtype == traj.states.dtype == np.float64

    orbit = iterate_map(PRESETS["henon"].map(None), [0.1, x0[0] / 100.0], n + discard, discard)
    values = orbit._flat()
    built = MapOrbit(points=[values[k:k + 2] for k in range(0, len(values), 2)],
                     discarded=discard)
    _assert_behaves_as_built(orbit, built)
    assert orbit.points.dtype == np.float64

    report = divergence_rate(PRESETS["lorenz"].field(None), x0, 1e-8, t1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.times = None
    with tempfile.TemporaryDirectory() as tmp:
        engine_csv, built_csv = Path(tmp) / "engine.csv", Path(tmp) / "built.csv"
        write_divergence_csv(report, engine_csv)  # from the flat list, in place
        values = report._flat()
        built = DivergenceReport(times=np.array(values[0::2]),
                                 log_separation=np.array(values[1::2]),
                                 fitted_rate=report.fitted_rate, fit_window=report.fit_window)
        write_divergence_csv(built, built_csv)  # from the arrays
        assert built_csv.read_bytes() == engine_csv.read_bytes()
    _assert_behaves_as_built(report, built)
    assert report.times.dtype == report.log_separation.dtype == np.float64


def _numpy_state(x, name):
    """as_state's numpy path, for any input: the oracle of its float path."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    for value in arr.tolist():
        check_real(value, name, "(-inf, inf)")
    return arr.tolist()


def _state_outcome(fn, x):
    try:
        values = fn(x, "x0")
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    assert type(values) is list and all(type(v) is float for v in values)
    return [struct.pack("<d", v) for v in values]


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_STATES = st.one_of(
    st.lists(_ANY_FLOAT, max_size=4),
    st.lists(_ANY_FLOAT, max_size=4).map(tuple),
    st.lists(st.one_of(_ANY_FLOAT, st.integers(-2**60, 2**60), st.booleans()), max_size=4),
    st.integers(-2**60, 2**60),
    st.booleans(),
    _ANY_FLOAT,
    st.lists(st.lists(_ANY_FLOAT, min_size=1, max_size=2), min_size=1, max_size=2),
    st.lists(_ANY_FLOAT, max_size=4).map(np.array),
    st.lists(_ANY_FLOAT, max_size=4).map(lambda v: [np.float64(x) for x in v]),
)


@settings(max_examples=300, deadline=None)
@given(_STATES)
def test_as_state_without_numpy_matches_the_numpy_path(x):
    with np.errstate(all="ignore"):
        assert _state_outcome(as_state, x) == _state_outcome(_numpy_state, x)


def test_as_state_of_floats_is_a_new_list():
    values = [1.0, -0.0, 2.5]
    state = as_state(values, "x0")
    assert state == values and state is not values
    assert as_state((1.0,), "x0") == [1.0]


@pytest.mark.parametrize("seed", range(40))
def test_slope_agrees_with_mpmath_on_random_uniform_grids(seed):
    rng = random.Random(seed)
    n, step, rate = rng.randint(2, 300), rng.uniform(1e-3, 10.0), rng.uniform(-5.0, 5.0)
    offset = rng.uniform(-100.0, 100.0)
    ys = [offset + rate * k * step + rng.gauss(0.0, 1.0) for k in range(n)]
    want = mp_slope([k * step for k in range(n)], ys)
    assert abs(_slope(ys, step) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 2000])
@pytest.mark.parametrize("value", [0.0, -3.5, 1e300, -math.pi])
def test_slope_of_constant_data_is_zero_on_any_step(n, value):
    for step in (1.0, math.log(2.0), 5e-324, 1e300):
        assert _slope([value] * n, step) == 0.0


@pytest.mark.parametrize("offset", [0, 2 ** 52])
@pytest.mark.parametrize("seed", range(20))
def test_slope_of_integers_on_a_unit_step_is_the_correctly_rounded_fit(seed, offset):
    # each ys[k] - ys[0] and each product by k - m is exact here, and fsum adds
    # them exactly, so the one rounding is the division by n (n**2 - 1) / 12
    rng = random.Random(seed)
    n = rng.randint(2, 300)
    ys = [float(offset + rng.randint(-1000, 1000)) for _ in range(n)]
    assert _slope(ys, 1.0) == mp_slope(range(n), ys)
