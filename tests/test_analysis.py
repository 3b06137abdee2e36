import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoscope as c
from chaoscope import analysis
from chaoscope.analysis import (
    MAX_SCAN_ITERATES,
    MAX_SCAN_ROWS,
    BifurcationDiagram,
    Stability,
    bifurcation_scan,
    classify_linear,
    cobweb_trace,
    divergence_rate,
    lorenz_equilibria,
    verify_equilibrium,
)
from chaoscope.errors import DomainError, GridTooLarge, NonFiniteState, SeparationUnderflow
from chaoscope.integrate import FloatKernel, IntegratorConfig, integrate
from chaoscope.systems import Linear1DParams, LogisticParams, LorenzParams, linear_solution

from conftest import loop_bifurcation_scan, loop_cobweb_trace


def test_classify_linear_trichotomy():
    assert classify_linear(-0.5) is Stability.STABLE
    assert classify_linear(0.0) is Stability.BIFURCATION
    assert classify_linear(1e-300) is Stability.UNSTABLE
    with pytest.raises(DomainError):
        classify_linear(float("nan"))


@pytest.mark.parametrize("a", np.linspace(-2.0, 2.0, 17))
def test_classifier_consistent_with_closed_form(a):
    if a == 0.0:
        return
    decayed = abs(linear_solution(Linear1DParams(a), 1.0, 10.0)) < 1.0
    assert (classify_linear(a) is Stability.STABLE) == decayed


LORENZ = LorenzParams(10.0, 28.0, 8.0 / 3.0)

_lorenz = c.preset("lorenz").field((LORENZ.sigma, LORENZ.r, LORENZ.b))


def test_verify_equilibrium_cases():
    assert verify_equilibrium(_lorenz, [0.0, 0.0, 0.0], 1e-12)
    assert verify_equilibrium(_lorenz, [8.485281, 8.485281, 27.0], 1e-5)
    assert not verify_equilibrium(_lorenz, [1.0, 1.0, 1.0], 1e-6)
    with pytest.raises(DomainError):
        verify_equilibrium(_lorenz, [0.0, 0.0, 0.0], 0.0)


def test_verify_equilibrium_evaluates_a_field_at_t_zero():
    assert verify_equilibrium(c.preset("lorenz").field(None), [0, 0, 0], 1e-9)
    assert verify_equilibrium(lambda t, s: s * t, [1.0, 2.0], 1e-9)
    assert not verify_equilibrium(lambda t, s: s + t, [1.0, 2.0], 1e-9)
    # a scalar result counts as one value, as in integrate
    assert verify_equilibrium(lambda t, s: 0.0, [5.0], 1e-9)
    assert not verify_equilibrium(lambda t, s: [0.0, math.nan], [0.0, 0.0], 1e-9)


@pytest.mark.parametrize("field, want", [
    (lambda t, s: s[:1], r"^field returned shape \(1,\), expected \(3,\)$"),
    (lambda t, s: [], r"^field returned shape \(0,\), expected \(3,\)$"),
    # a FloatKernel of the right dimension whose formula returns too little
    (FloatKernel(lambda t, s: (0.0,), 3), r"^field returned shape \(1,\), expected \(3,\)$"),
])
def test_verify_equilibrium_refuses_a_result_of_another_length(field, want):
    with pytest.raises(DomainError, match=want):
        verify_equilibrium(field, [0.0, 0.0, 0.0], 1e-9)


def test_analysis_evaluates_its_field_only_through_the_float_kernel():
    # verify_equilibrium and, through the integrator's stream, divergence_rate
    # evaluate a field as the integrator does: no call of a field in analysis
    tree = ast.parse(Path(analysis.__file__).read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "field" not in called and "_float_kernel" in called


def test_lorenz_equilibria_below_onset():
    assert [list(p) for p in lorenz_equilibria(LorenzParams(10.0, 0.5, 8.0 / 3.0))] == [
        [0.0, 0.0, 0.0]
    ]
    assert [list(p) for p in lorenz_equilibria(LorenzParams(10.0, 1.0, 8.0 / 3.0))] == [
        [0.0, 0.0, 0.0]
    ]


def test_lorenz_equilibria_above_onset():
    points = lorenz_equilibria(LORENZ)
    assert len(points) == 3
    w = math.sqrt(LORENZ.b * (LORENZ.r - 1.0))
    assert abs(w - 8.485281) < 1e-6
    assert np.allclose(points[1], [w, w, 27.0])
    assert np.allclose(points[2], [-w, -w, 27.0])


def test_lorenz_equilibria_that_overflow_raise():
    with pytest.raises(NonFiniteState, match=r"^C\+- are not finite: b \* \(r - 1\) overflows "
                                             r"for b=10000000000.0, r=1e\+308$"):
        lorenz_equilibria(LorenzParams(10.0, 1e308, 1e10))
    # the largest finite C+- are kept as they are
    points = lorenz_equilibria(LorenzParams(10.0, 1e308, 1.0))
    assert [list(p) for p in points[1:]] == [[1e154, 1e154, 1e308], [-1e154, -1e154, 1e308]]


@settings(max_examples=100)
@given(
    sigma=st.floats(0.1, 100.0),
    r=st.floats(0.01, 500.0),
    b=st.floats(0.1, 50.0),
)
def test_lorenz_equilibria_verify(sigma, r, b):
    params = LorenzParams(sigma, r, b)
    for point in lorenz_equilibria(params):
        assert verify_equilibrium(c.preset("lorenz").field((sigma, r, b)), point, 1e-9)


def test_cobweb_first_vertices():
    trace = cobweb_trace(LogisticParams(3.8282), 0.2, 5)
    x1 = 3.8282 * 0.2 * 0.8
    x2 = 3.8282 * x1 * (1.0 - x1)
    assert tuple(trace.vertices[0]) == (0.2, 0.0)
    assert tuple(trace.vertices[1]) == (0.2, x1)
    assert tuple(trace.vertices[2]) == (x1, x1)
    assert tuple(trace.vertices[3]) == (x1, x2)
    assert abs(x1 - 0.612512) < 1e-6


def test_cobweb_fixed_point_collapses():
    trace = cobweb_trace(LogisticParams(2.0), 0.5, 4)
    assert np.all(trace.vertices[1:] == 0.5)
    origin = cobweb_trace(LogisticParams(4.0), 0.0, 4)
    assert np.all(origin.vertices == 0.0)


def test_cobweb_shape_and_curve():
    trace = cobweb_trace(LogisticParams(3.5), 0.3, 7)
    assert trace.vertices.shape == (15, 2)
    assert len(trace.curve_samples) >= 256
    assert trace.curve_samples[0][0] == 0.0
    assert trace.curve_samples[-1][0] == 1.0
    xs = np.linspace(0.0, 1.0, 512)
    assert np.array_equal(trace.curve_samples, np.column_stack([xs, 3.5 * xs * (1.0 - xs)]))


@settings(max_examples=50)
@given(
    mu=st.floats(0.0, 4.0),
    x0=st.floats(0.0, 1.0),
    n=st.integers(1, 30),
)
def test_cobweb_staircase_continuity(mu, x0, n):
    trace = cobweb_trace(LogisticParams(mu), x0, n)
    verts = trace.vertices
    # vertical move first: x constant from the start vertex
    assert verts[0][0] == verts[1][0]
    for k in range(1, len(verts) - 1):
        if k % 2 == 1:  # curve vertex -> horizontal move onto the diagonal
            assert verts[k][1] == verts[k + 1][1]
        else:  # diagonal vertex -> vertical move
            assert verts[k][0] == verts[k + 1][0]
    # every vertex after the start sits on the map curve or the diagonal
    p = LogisticParams(mu)
    for x, y in verts[1:]:
        on_curve = abs(y - c.logistic_step(p, x)) <= 1e-12
        on_diagonal = abs(y - x) <= 1e-12
        assert on_curve or on_diagonal


@settings(max_examples=100, deadline=None)
@given(
    mu=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 3.5699456, 4.0]), st.floats(0.0, 4.0)),
    x0=st.one_of(st.sampled_from([0.0, 0.5, 0.75, 1.0, 5e-324]), st.floats(0.0, 1.0)),
    n=st.integers(1, 300),
)
def test_cobweb_matches_the_row_loop(mu, x0, n):
    got = cobweb_trace(LogisticParams(mu), x0, n)
    want = loop_cobweb_trace(LogisticParams(mu), x0, n)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.curve_samples.tobytes() == want.curve_samples.tobytes()


def test_cobweb_cap_counts_trace_values_and_refuses_before_tracing(monkeypatch):
    monkeypatch.setattr(c.analysis, "MAX_ORBIT_VALUES", 2 * (2 * 5 + 1))
    assert cobweb_trace(LogisticParams(3.9), 0.2, 5).vertices.shape == (11, 2)
    with pytest.raises(GridTooLarge):
        cobweb_trace(LogisticParams(3.9), 0.2, 6)
    monkeypatch.undo()
    with pytest.raises(GridTooLarge):
        cobweb_trace(LogisticParams(3.9), 0.2, 10**9)


def test_cobweb_domain_checks():
    with pytest.raises(DomainError):
        cobweb_trace(LogisticParams(3.9), 1.5, 3)
    with pytest.raises(DomainError):
        cobweb_trace(LogisticParams(3.9), 0.2, 0)


def logistic_family(mu, x):
    return mu * x * (1.0 - x)


def _clusters(values, radius=1e-4):
    groups = []
    for v in sorted(values):
        if not groups or v - groups[-1][-1] > radius:
            groups.append([v])
        else:
            groups[-1].append(v)
    return groups


def test_bifurcation_scan_attracting_zero():
    diagram = bifurcation_scan(0.4, 0.5, 3, 0.3, 500, 10)
    assert np.all(np.abs(diagram.samples) < 1e-6)


def test_bifurcation_scan_interior_fixed_point():
    diagram = bifurcation_scan(1.99, 2.0, 2, 0.3, 500, 10)
    assert diagram.params[1] == 2.0
    samples = diagram.samples[1]
    assert np.all(np.abs(samples - 0.5) < 1e-9)


def test_bifurcation_scan_period_two_cycle():
    diagram = bifurcation_scan(3.19999, 3.2, 2, 0.3, 500, 20)
    assert diagram.params[1] == 3.2
    samples = diagram.samples[1]
    groups = _clusters(samples)
    assert len(groups) == 2
    lo, hi = (np.mean(g) for g in groups)
    assert abs(lo - 0.513045) < 1e-5
    assert abs(hi - 0.799455) < 1e-5


def test_bifurcation_period_doubling_onset():
    above = bifurcation_scan(3.02, 3.08, 4, 0.3, 500, 12)
    for samples in above.samples:
        assert len(_clusters(samples)) == 2
    below = bifurcation_scan(2.90, 2.98, 4, 0.3, 500, 12)
    for samples in below.samples:
        assert len(_clusters(samples)) == 1


def test_bifurcation_scan_preconditions():
    with pytest.raises(DomainError):
        bifurcation_scan(3.0, 2.0, 5, 0.3, 500, 10)
    with pytest.raises(DomainError):
        bifurcation_scan(2.0, 3.0, 5, 0.3, 99, 10)
    with pytest.raises(DomainError):
        bifurcation_scan(2.0, 3.0, 5, 0.3, 500, 0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared by type, message and index
        return None, exc


# The lane sweep against the per-parameter loop it replaced (conftest's
# loop_bifurcation_scan, run with the scalar logistic family): the same bits,
# and every sample in [0, 1], the range lemma of systems.logistic_step.  An
# end of the sweep outside [0, 4], or an x0 outside [0, 1], is refused first,
# with the text of LogisticParams or check_logistic_x0.
@settings(max_examples=80, deadline=None)
@given(
    lo=st.one_of(st.floats(0.0, 4.0), st.floats(-0.5, 4.6)),
    width=st.floats(1e-9, 1.5),
    p_steps=st.integers(1, 40),
    x0=st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5)),
    discard=st.integers(100, 260),
    keep=st.integers(1, 30),
)
def test_bifurcation_scan_matches_the_parameter_loop(lo, width, p_steps, x0, discard, keep):
    args = (lo, lo + width, p_steps, x0, discard, keep)
    refusals = [f"mu must lie in [0, 4], got {mu}" for mu in args[:2] if not 0.0 <= mu <= 4.0]
    if not 0.0 <= x0 <= 1.0:
        refusals.append(f"x0 must lie in [0, 1], got {x0}")
    if refusals:
        with pytest.raises(DomainError) as err:
            bifurcation_scan(*args)
        assert str(err.value) == refusals[0]
        return
    want = loop_bifurcation_scan(logistic_family, *args)
    got = bifurcation_scan(*args)
    assert got.params.shape == want.params.shape == (p_steps,)
    assert got.samples.shape == want.samples.shape == (p_steps, keep)
    assert np.array_equal(_bits(got.params), _bits(want.params))
    assert np.array_equal(_bits(got.samples), _bits(want.samples))
    assert ((got.samples >= 0.0) & (got.samples <= 1.0)).all()


def test_bifurcation_scan_refuses_mu_above_four():
    # the sweep whose lanes above mu = 4 once ran off to -inf
    with pytest.raises(DomainError, match=r"^mu must lie in \[0, 4\], got 6.0$"):
        bifurcation_scan(3.9, 6.0, 50, 0.3, 100, 5)


def test_bifurcation_scan_refuses_x0_above_one():
    # the sweep of `bifurcate --mu-range 2.8:4.0 --x0 1.5`, whose every lane
    # once ran off to -inf
    with pytest.raises(DomainError, match=r"^x0 must lie in \[0, 1\], got 1.5$"):
        bifurcation_scan(2.8, 4.0, 600, 1.5, 500, 100)


def test_bifurcation_scan_checks_in_the_command_line_order():
    # both ends, then x0, then the counts, the order of the ends and the caps
    cases = [
        ((-1.0, 5.0, 0, 2.0, 0, 0), DomainError, "mu must lie in [0, 4], got -1.0"),
        ((3.0, 5.0, 0, 2.0, 0, 0), DomainError, "mu must lie in [0, 4], got 5.0"),
        ((4.0, 3.0, 0, 2.0, 0, 0), DomainError, "x0 must lie in [0, 1], got 2.0"),
        ((4.0, 3.0, 0, 0.3, 0, 0), DomainError, "p_steps must be at least 1, got 0"),
        ((4.0, 3.0, 2, 0.3, 100, 1), DomainError, "need p_lo < p_hi"),
        ((3.0, 4.0, MAX_SCAN_ROWS + 1, 0.3, 100, 1), GridTooLarge, None),
    ]
    for args, kind, text in cases:
        with pytest.raises(kind) as err:
            bifurcation_scan(*args)
        assert text is None or str(err.value) == text


def _ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("k", [1, 999])
def test_bifurcation_scan_refuses_mu_values_that_repeat(k):
    # k + 1 values of mu over a span of k ulps are each a float apart; one
    # more and np.linspace repeats a value, so the diagram would hold fewer
    # distinct mu than rows
    lo = 3.9
    hi = _ulps_above(lo, k)
    diagram = bifurcation_scan(lo, hi, k + 1, 0.3, 100, 1)
    assert diagram.params[0] == lo and diagram.params[-1] == hi
    assert (np.diff(diagram.params) > 0).all()
    with pytest.raises(DomainError) as err:
        bifurcation_scan(lo, hi, k + 2, 0.3, 100, 1)
    assert str(err.value) == (f"{k + 2} values of mu from {lo!r} to {hi!r} are not strictly "
                              f"increasing in float64")


def test_bifurcation_scan_keeps_one_float_per_kept_row():
    # the diagram's samples are the lane buffer itself, transposed: 8 bytes
    # per kept row, where (parameter, x) rows built from it took 16 more
    tracemalloc.start()
    try:
        diagram = bifurcation_scan(2.8, 4.0, 2000, 0.3, 100, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagram.samples.shape == (2000, 1000)
    assert peak <= 10 * 2000 * 1000


def test_bifurcation_diagram_is_its_grid():
    diagram = BifurcationDiagram(params=[2, 3], samples=[[1], [0]])
    assert diagram.params.dtype == diagram.samples.dtype == np.float64
    assert diagram.params.tolist() == [2.0, 3.0]
    assert diagram.samples.tolist() == [[1.0], [0.0]]


@pytest.mark.parametrize(
    "params, samples",
    [
        (2.0, np.zeros((1, 4))),  # a scalar sweep
        ([[2.0, 3.0]], np.zeros((2, 4))),  # a 2-D sweep
        ([2.0, 3.0], np.zeros(2)),  # one sample per parameter, not a row
        ([2.0, 3.0], np.zeros((2, 4, 1))),
        ([2.0, 3.0], np.zeros((3, 4))),  # a row too many
        ([2.0, 3.0], np.zeros((1, 4))),  # a row too few
    ],
)
def test_bifurcation_diagram_refuses_other_shapes(params, samples):
    with pytest.raises(DomainError, match=r"^diagram needs 1-D params and 2-D samples"):
        BifurcationDiagram(params=params, samples=samples)


@pytest.mark.parametrize("x0", [-0.1, 1.5, math.nan, math.inf])
def test_cobweb_refuses_x0_outside_the_unit_interval(x0):
    with pytest.raises(DomainError, match=r"x0 must lie in \[0, 1\], got "):
        cobweb_trace(LogisticParams(3.9), x0, 5)


@pytest.mark.parametrize(
    "p_steps, discard, keep",
    [
        (MAX_SCAN_ROWS // 100 + 1, 100, 100),  # too many kept rows
        (1000, MAX_SCAN_ITERATES // 1000, 100),  # too many iterates
        (1, MAX_SCAN_ITERATES // 512, 1),  # a single lane is charged as 512
    ],
)
def test_bifurcation_scan_caps_refuse_before_allocating(p_steps, discard, keep, monkeypatch):
    def linspace(*args):  # the sweep's first allocation
        raise AssertionError("the sweep started")

    monkeypatch.setattr(np, "linspace", linspace)
    with pytest.raises(GridTooLarge):
        bifurcation_scan(2.8, 4.0, p_steps, 0.3, discard, keep)


def test_divergence_rate_linear_field():
    report = divergence_rate(lambda t, x: 0.7 * x, [1.0], 1e-8, 10.0)
    assert abs(report.fitted_rate - 0.7) / 0.7 < 0.05
    assert report.times[0] == 0.0
    assert report.fit_window[0] == 0.0


def test_divergence_rate_zero_field():
    report = divergence_rate(lambda t, x: np.zeros_like(x), [1.0, 2.0], 1e-8, 5.0)
    assert abs(report.fitted_rate) < 1e-6


def test_divergence_rate_delta0_invariance():
    full = divergence_rate(lambda t, x: 0.7 * x, [1.0], 1e-8, 10.0)
    half = divergence_rate(lambda t, x: 0.7 * x, [1.0], 0.5e-8, 10.0)
    assert abs(full.fitted_rate - half.fitted_rate) <= 0.1 * abs(full.fitted_rate)


def test_divergence_rate_lorenz_positive():
    cfg = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    field = c.preset("lorenz").field(None)
    report = divergence_rate(field, [15.0, 20.0, 30.0], 1e-8, 40.0, cfg)
    assert report.fitted_rate > 0.5
    # the fit stops before the separation saturates on the attractor
    assert report.fit_window[1] < 40.0


@pytest.mark.parametrize("t1", [1e-320, 1e-300, 2.0 ** -511, 1e-150, 1e-10, 3e-9])
def test_divergence_rate_of_a_constant_log_separation_is_zero(t1):
    # the twins' log separation is bit-constant over so short a window; the
    # least-squares slope of constant data is exactly 0 (np.polyfit gave
    # -2.6e136 at 1e-150 and failed below 2**-511)
    report = divergence_rate(c.preset("lorenz").field(None), [15.0, 20.0, 30.0], 1e-8, t1)
    assert len(set(report.log_separation.tolist())) == 1
    assert report.fitted_rate == 0.0 and report.fit_window == (0.0, t1)


@pytest.mark.parametrize("t1", [5e-324, 4e-321])
def test_divergence_rate_refuses_a_grid_step_that_underflows(t1):
    with pytest.raises(DomainError, match=r"^t1 / 1999 must lie in \(0, inf\), got 0.0$"):
        divergence_rate(c.preset("lorenz").field(None), [15.0, 20.0, 30.0], 1e-8, t1)


def test_divergence_rate_separation_underflow():
    with pytest.raises(SeparationUnderflow):
        divergence_rate(lambda t, x: np.zeros_like(x), [1.0], 1e-20, 1.0)


def _searchsorted_nearest(times, states, grid):
    """The nearest-step rule as numpy formulated it: searchsorted (side
    left), clipped to [1, n - 1], and the earlier step on a tie."""
    times, states, grid = np.array(times), np.array(states), np.array(grid)
    idx = np.clip(np.searchsorted(times, grid), 1, len(times) - 1)
    pick = np.where(grid - times[idx - 1] <= times[idx] - grid, idx - 1, idx)
    return states[pick].reshape(len(grid), -1)


#: Step times and grid times: small integers and their halves, so that a
#: grid time can lie exactly midway between two steps, and any floats.
_SAMPLE_TIMES = st.one_of(st.integers(-80, 80).map(lambda k: k / 2), st.floats(-50.0, 50.0))


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(_SAMPLE_TIMES, min_size=2, max_size=12, unique=True).map(sorted),
    grid=st.lists(_SAMPLE_TIMES, min_size=0, max_size=40),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_nearest_states_walk_matches_searchsorted(times, grid, dim, data):
    # grid times midway between two steps, before the first step, and runs
    # of two steps: the forward walk over the stream picks the step numpy
    # did.  The grid ends at the last step's time, as divergence_rate's
    # ends at t1, so the walk never reads past the stream's end
    grid = sorted(g for g in grid if g < times[-1]) + [times[-1]]
    states = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
                                min_size=len(times), max_size=len(times)))
    walked, lo, hi = analysis._nearest_states(iter(list(zip(times, states))), grid)
    assert walked == _searchsorted_nearest(times, states, grid).tolist()
    # the min and max of every column, zero signs included, as min() and
    # max() over the whole column find them
    columns = list(zip(*states))
    assert list(map(repr, lo)) == [repr(min(col)) for col in columns]
    assert list(map(repr, hi)) == [repr(max(col)) for col in columns]


def _coupled_field(rates):
    """x_i' = rates[i] x_i + x_(i+1 mod d): a perturbation of x_0 reaches
    every component, so each term of a separation is non-zero."""
    d = len(rates)
    return FloatKernel(lambda t, s: [r * s[i] + s[(i + 1) % d] for i, r in enumerate(rates)], d)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
    x0=st.floats(0.5, 5.0),
    t1=st.one_of(st.floats(1e-300, 1e-6), st.floats(1e-6, 8.0)),
)
def test_divergence_samples_match_linspace_searchsorted_and_norm(rates, x0, t1):
    # the probe on Python floats against its numpy formulation over the
    # public integrate's runs: the grid has np.linspace's bits, and each
    # separation np.linalg.norm(axis=1)'s, so its math.log is the logged
    # separation (np.log rounds otherwise); the fit window ends where the
    # separation first passes SATURATION_FRACTION of the reference run's
    # largest column range
    field, start = _coupled_field(rates), [x0] + [1.0] * (len(rates) - 1)
    report = divergence_rate(field, start, 1e-6, t1)
    ref, twin = (integrate(field, s, 0.0, t1) for s in (start, [x0 + 1e-6, *start[1:]]))
    grid = np.linspace(0.0, t1, analysis.DIVERGENCE_GRID_POINTS)
    assert report.times.tolist() == grid.tolist()
    near = [_searchsorted_nearest(run.times, run.states, grid) for run in (ref, twin)]
    sep = np.linalg.norm(near[0] - near[1], axis=1)
    assert report.log_separation.tolist() == [math.log(s) if s else -math.inf for s in sep]
    diameter = (ref.states.max(axis=0) - ref.states.min(axis=0)).max()
    over = np.flatnonzero(~(sep <= analysis.SATURATION_FRACTION * diameter))
    cut = over[0] if len(over) and over[0] >= 2 else len(grid)
    assert report.fit_window == (0.0, grid[cut - 1])


def test_divergence_holds_no_run(monkeypatch):
    # Lorenz 0:400 at rel_tol 1e-6 takes about 19,200 steps a run, 0:40
    # about 1,950; the probe holds each twin's 2000 samples and two steps
    # of the stream, so its peak does not grow with the run (a collected
    # run would add about 130 bytes a step).  The streams are recorded
    # untraced, then replayed under tracemalloc as fresh floats in fresh
    # lists, as the integrator yields them, in a small part of the time
    field, x0 = c.preset("lorenz").field(None), [15.0, 20.0, 30.0]
    runs = {(t1, s[0]): list(analysis._stream(field, s, 0.0, t1, None))
            for t1 in (40.0, 400.0) for s in (x0, [x0[0] + 1e-8, *x0[1:]])}
    real = divergence_rate(field, x0, 1e-8, 40.0)

    def replaying(field, x0, t0, t1, config):
        for t, state in runs[t1, x0[0]]:
            yield t * 1.0, [v * 1.0 for v in state]

    monkeypatch.setattr(analysis, "_stream", replaying)
    peaks = {}
    for t1 in (40.0, 400.0):
        tracemalloc.start()
        try:
            report = divergence_rate(field, x0, 1e-8, t1)
            peaks[t1] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if t1 == 40.0:
            assert report._flat() == real._flat()
    assert min(len(run) for key, run in runs.items() if key[0] == 400.0) > 18_000
    assert peaks[400.0] <= 1.2 * peaks[40.0]


def test_divergence_logs_an_exact_zero_separation_after_the_fit_window():
    # x' = x until t = 10, then x' = -5x: the twins decay until their
    # sampled states coincide bit-exactly at some grid times (the first at
    # index 501, t ~ 200.5), long after the fit window ends (t ~ 6.8), so
    # each zero separation is logged as -inf and not refused
    field = FloatKernel(lambda t, s: (s[0] if t < 10.0 else -5.0 * s[0],), 1)
    report = divergence_rate(field, [1e-3], 1e-4, 800.0)
    log_sep = report.log_separation.tolist()
    assert -math.inf in log_sep and math.isfinite(report.fitted_rate)
    assert report.fit_window[1] < report.times[log_sep.index(-math.inf)]


def test_divergence_rate_preconditions():
    with pytest.raises(DomainError):
        divergence_rate(lambda t, x: x, [1.0], -1e-8, 1.0)
    with pytest.raises(DomainError):
        divergence_rate(lambda t, x: x, [1.0], 1e-8, 0.0)
