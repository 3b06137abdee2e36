"""The mutation gate's records.

Each record is one exact edit of a file under ``src/chaoscope`` and the
narrow selection of tests that must fail on the edited copy.  A record
states why the edit is wrong, and why its tests see it.  A later change
that states an exactness or margin argument adds its mutants here; an
equivalent mutant, one that no test can kill because the program still
behaves the same, is documented as such in the reason and is not listed.
A mutant that only some numpy builds or CPUs tell apart names them in its
``platform`` test: where that returns False the mutant is equivalent, and
its survival there does not fail the gate.

    python mutation/gate.py          # run every mutant
    python mutation/gate.py NAME...  # run the named ones
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple


def _anywhere() -> bool:
    return True


def _numpy_2_4_6_fma_complex_square() -> bool:
    """numpy 2.4.6 running its complex128 square at X86_V3 (AVX2 and FMA),
    where a one-element aliased square takes a non-FMA loop."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_targets_info__ as info
    except ImportError:
        return False
    return np.__version__ == "2.4.6" and info["square"]["DD"]["current"] == "X86_V3"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/chaoscope
    old: str  # exact text, found exactly once in the file
    new: str
    tests: Tuple[str, ...]  # pytest selectors, relative to the repo root
    reason: str
    platform: Callable[[], bool] = _anywhere  # where the tests must kill it


_FORMATS = "tests/test_formats.py::"
_ANALYSIS = "tests/test_analysis.py::"
_PACKAGE = "tests/test_package.py::"
_INTEGRATE = "tests/test_integrate.py::"
_BUDGET = "return max(1, min(1_000_000, MAX_ORBIT_VALUES // (dim + 1) - 1))"

MUTANTS = [
    Mutant(
        "csv-default-16-digits", "formats.py",
        'fmt = fmt or ",".join(["%.17g"] * width)',
        'fmt = fmt or ",".join(["%.16g"] * width)',
        (_FORMATS + "test_csv_values_print_with_17_significant_digits_by_default",),
        "16 significant digits do not round-trip every double: 2**62 prints as "
        "4.611686018427388e+18",
    ),
    Mutant(
        "csv-width-only-caps-long-rows", "formats.py",
        "if any(n != width for n in map(len, block)):",
        "if any(n > width for n in map(len, block)):",
        (_FORMATS + "test_block_csv_refuses_a_row_of_another_length",),
        "a short row then reaches the % operation, which refuses it with its own "
        "message, or formats it with the next row's fields when a long row makes "
        "the count add up",
    ),
    Mutant(
        "csv-bifurcation-fmt-dropped", "formats.py",
        '            fmt = "%s,%.17g\\n"\n',
        "",
        (_FORMATS + "test_series_csv_matches_the_row_writer",),
        "the diagram's parameter column holds text, which %.17g refuses",
    ),
    Mutant(
        "pgm-comment-ends-only-at-lf", "formats.py",
        r'rb"(?:\s+|#[^\r\n]*)*([^\s#]*)"',
        r'rb"(?:\s+|#[^\n]*)*([^\s#]*)"',
        (_FORMATS + "test_pgm_reader_follows_netpbms_comment_rule",),
        "a Netpbm comment also ends at a CR, so `# c\\r2 1\\n` holds the size",
    ),
    Mutant(
        "pgm-comment-needs-whitespace-before", "formats.py",
        r'rb"(?:\s+|#[^\r\n]*)*([^\s#]*)"',
        r'rb"(?:\s+|#[^\r\n]*)*(\S*)"',
        (_FORMATS + "test_pgm_reader_follows_netpbms_comment_rule",),
        "a Netpbm comment may start right after a number, so `2#c\\n1` is 2 "
        "then 1, not the token `2#c`",
    ),
    Mutant(
        "pgm-maxval-comment-kept", "formats.py",
        '    pos = re.compile(rb"(?:#[^\\r\\n]*)?").match(data, pos).end()',
        "    pass",
        (_FORMATS + "test_pgm_reader_follows_netpbms_comment_rule",),
        "the token pattern stops at a # right after maxval, so without the skip "
        "`255#c\\n` reads the comment as pixels",
    ),
    Mutant(
        "escape-square-in-place", "fractals.py",
        "w = np.square(w)",
        "np.square(w, out=w)",
        ("tests/test_fractals.py::"
         "test_escape_grid_matches_full_grid_on_windows_straddling_a_region_edge",),
        "numpy's complex square of a one-element array into itself runs a "
        "non-FMA loop, so a pixel left alone in its tile gets other bits than "
        "the full grid.  The property's @example kills it with numpy 2.4.6 on "
        "an AVX-512 Xeon, whose complex square runs at X86_V3; elsewhere both "
        "loops may give the same bits, and the mutant is equivalent there",
        _numpy_2_4_6_fma_complex_square,
    ),
    Mutant(
        "scan-mu-repeats-allowed", "analysis.py",
        "if not (params[1:] > params[:-1]).all():",
        "if not (params[1:] >= params[:-1]).all():",
        (_ANALYSIS + "test_bifurcation_scan_refuses_mu_values_that_repeat",),
        "np.linspace repeats a value of mu on a span of too few floats, and the "
        "diagram would hold fewer distinct mu than rows",
    ),
    Mutant(
        "scan-checks-only-the-low-end", "analysis.py",
        "for mu in (p_lo, p_hi):",
        "for mu in (p_lo,):",
        (_ANALYSIS + "test_bifurcation_scan_checks_in_the_command_line_order",),
        "a high end above 4 then passes, and lanes above mu = 4 leave [0, 1]",
    ),
    Mutant(
        "pgm-magic-after-whitespace", "formats.py",
        '    if data[:2] != b"P5":\n'
        '        raise FormatError("only binary PGM (P5) is supported")\n'
        '    pos = 2\n',
        '    pos = re.compile(rb"(?:\\s+|#[^\\r\\n]*)*").match(data).end()\n'
        '    if data[pos : pos + 2] != b"P5":\n'
        '        raise FormatError("only binary PGM (P5) is supported")\n'
        '    pos += 2\n',
        (_FORMATS + "test_pgm_reader_reads_the_magic_as_the_first_two_bytes",),
        "libnetpbm reads the magic number as the file's first two bytes, so a "
        "file with whitespace or a comment before P5 is not a PGM there",
    ),
    Mutant(
        "analysis-numpy-at-import", "analysis.py",
        "if TYPE_CHECKING:\n    import numpy as np\n",
        "import numpy as np\n",
        (_PACKAGE + "test_each_command_loads_only_its_modules[divergence]",),
        "the divergence probe computes on Python floats, and numpy's import is "
        "about a third of its child's time",
    ),
    Mutant(
        "fractals-integrator-at-import", "fractals.py",
        "from .formats import _Raster\n",
        "from .formats import _Raster\nfrom .integrate import _slope  # noqa: F401\n",
        (_PACKAGE + "test_each_command_loads_only_its_modules[mandelbrot]",),
        "only box counting fits a slope, so mandelbrot and ifs need not load "
        "the integrator",
    ),
    Mutant(
        "integrate-setter-keeps-the-submodule", "__init__.py",
        '        if value is not sys.modules.get(f"{__name__}.integrate"):  # the import system\'s '
        'binding\n'
        '            vars(self)["integrate"] = value\n',
        '        vars(self)["integrate"] = value\n',
        (_PACKAGE + "test_integrate_stays_the_function",),
        "the import system binds the submodule on the package when it loads "
        "it, and chaoscope.integrate then reads as the module, not the function",
    ),
    Mutant(
        "cli-one-subparser-own-usage", "cli.py",
        '    metavar = command and "{" + ",".join(COMMANDS) + "}"',
        "    metavar = None",
        ("tests/test_cli.py::test_one_subparser_parses_as_the_full_parser",),
        "an error that the top-level parser reports prints its usage line, "
        "which then lists the one command instead of all of them",
    ),
    Mutant(
        "budget-above-one-million", "integrate.py",
        _BUDGET, _BUDGET.replace("min(1_000_000,", "max(1_000_000,"),
        (_INTEGRATE + "test_the_default_budget_is_resolved_per_dimension",),
        "a 3-component flow would get 2,499,999 attempts, and a 12-component "
        "one 1,000,000, whose kept steps pass the cap",
    ),
    Mutant(
        "budget-without-the-time-column", "integrate.py",
        _BUDGET, _BUDGET.replace("// (dim + 1)", "// dim"),
        (_INTEGRATE + "test_the_default_budget_is_resolved_per_dimension",),
        "each kept step holds its time too, dim + 1 values, so a 9-component "
        "flow would keep 1,000,001 steps of 10 values, over the cap",
    ),
    Mutant(
        "budget-counts-the-start-as-an-attempt", "integrate.py",
        _BUDGET, _BUDGET.replace(" - 1))", "))"),
        (_INTEGRATE + "test_the_default_budget_is_resolved_per_dimension",),
        "integrate keeps the start and one step per attempt, max_steps + 1 "
        "steps, so 1,000,000 attempts at 9 components pass the cap by one step",
    ),
    Mutant(
        "budget-not-clamped-to-one", "integrate.py",
        _BUDGET, "return min(1_000_000, MAX_ORBIT_VALUES // (dim + 1) - 1)",
        (_INTEGRATE + "test_a_state_too_wide_for_one_kept_step_is_refused_before_the_field",),
        "a budget of 0 or -1 keeps at most one step, which passes the cap "
        "check, so the field runs and the run fails with MaxStepsExceeded",
    ),
    Mutant(
        "iterate-map-ignores-the-domain", "integrate.py",
        'cur = as_state(x0, "x0", getattr(map_fn, "domain", "(-inf, inf)"))',
        'cur = as_state(x0, "x0")',
        ("tests/test_reals.py::"
         "test_a_logistic_start_outside_the_presets_domain_is_a_domain_error",),
        "a logistic start of 1.5 then runs until it overflows at iterate 10, "
        "a NonFiniteState (exit 1) where the command line exits 2",
    ),
    Mutant(
        "logistic-preset-without-domain", "systems.py",
        '(0.2,), (3.8282,), "[0, 1]"),', "(0.2,), (3.8282,)),",
        ("tests/test_reals.py::"
         "test_a_logistic_start_outside_the_presets_domain_is_a_domain_error",),
        "the map keeps [0, 1] only; a start outside it leaves to -inf",
    ),
    # The Dormand-Prince step.  Equivalent, so not listed: y_new's sum as
    # 0 + (_B1*a + ... + _B6*g), the leading 0 moved outside the sum.  The
    # two differ only when every partial sum is a zero, and then 0 + makes
    # both +0.0.
    Mutant(
        "stage-7-at-y", "integrate.py",
        "k7 = f(t + h, y_new)", "k7 = f(t + h, y)",
        (_INTEGRATE + "test_each_attempt_calls_the_field_six_times_and_ends_at_y_new",),
        "stage 7 is the field at the new state, and the next step's stage 1",
    ),
    Mutant(
        "stage-7-at-node-c5", "integrate.py",
        "k7 = f(t + h, y_new)", "k7 = f(t + _C5 * h, y_new)",
        (_INTEGRATE + "test_each_attempt_calls_the_field_six_times_and_ends_at_y_new",),
        "stage 7's node is 1, so a non-autonomous field is read at t + h",
    ),
    Mutant(
        "y-new-regrouped", "integrate.py",
        "_B4 * d + _B5 * e + _B6 * g)", "_B4 * d + (_B5 * e + _B6 * g))",
        (_INTEGRATE + "test_float_core_raises_like_ndarray_loop",),
        "the ndarray formulation sums the weights left to right, and another "
        "grouping rounds otherwise",
    ),
    Mutant(
        "initial-step-floor-open", "integrate.py",
        'f"[{min_step!r}, inf)"', 'f"({min_step!r}, inf)"',
        (_INTEGRATE + "test_initial_step_equal_to_min_step_runs",),
        "an initial step equal to min_step is one the run may take",
    ),
    Mutant(
        "error-sum-without-stage-2", "integrate.py",
        "_E1 * a + 0.0 * b + _E3", "_E1 * a + _E3",
        (_INTEGRATE + "test_a_nan_only_at_stage_2_rejects_that_trial",),
        "stage 2 enters no later sum, so without its 0.0 weight a NaN there "
        "would not reject the trial",
    ),
    Mutant(
        "floor-always-underflows", "integrate.py",
        "if not _isfinite(err_norm):", "if False:",
        (_INTEGRATE + "test_a_field_nan_from_t_0_1_raises_just_below_it",),
        "a floor reached after a non-finite trial is a NonFiniteState, not a "
        "StepUnderflow",
    ),
    Mutant(
        "nan-error-accepted", "integrate.py",
        "if err_norm <= 1.0:", "if not err_norm > 1.0:",
        (_INTEGRATE + "test_a_first_step_that_overflows_is_shrunk",),
        "a NaN error norm compares false, so the trial would be kept",
    ),
    Mutant(
        "max-skips-a-nan-ratio", "integrate.py",
        "err_norm = max(ratios) if total == total else total",
        "err_norm = max(ratios)",
        (_INTEGRATE + "test_float_core_raises_like_ndarray_loop",),
        "max() skips a NaN after the first ratio, where np.max propagates it",
    ),
    Mutant(
        "ratio-ignores-an-overflowed-state", "integrate.py",
        " + 0.0 * v\n", "\n",
        (_INTEGRATE + "test_a_state_that_overflows_with_finite_stages_raises",),
        "a finite error over atol + rtol * inf is 0, so a new state that "
        "overflowed with finite stages would be kept",
    ),
    Mutant(
        "rk-weight-b3-perturbed", "integrate.py",
        "500 / 1113", "500 / 1112",
        (_INTEGRATE + "test_exponential_growth_endpoint",),
        "the fifth-order weights then sum to 1 + 4e-4, so x' = x from 1 "
        "misses e**t by far more than the tolerance",
    ),
]
