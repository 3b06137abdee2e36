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
_COMPRESSION = "tests/test_compression.py::"
_RECORDS = "tests/test_records.py::"
_TWIN = (_RECORDS + "test_each_record_behaves_as_its_dataclass_twin",)
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
        "if set(map(len, block)) != {width}:",
        "if max(map(len, block)) > width:",
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
        r' * 3 + rb"(?:#[^\r\n]*)?").match', " * 3).match",
        (_FORMATS + "test_pgm_reader_follows_netpbms_comment_rule",),
        "the header's last group stops at a # right after maxval, so without the "
        "glued-comment group `255#c\\n` reads the comment as pixels",
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
        '        if data[:2] != b"P5":\n',
        '        data = data.lstrip()\n        if data[:2] != b"P5":\n',
        (_FORMATS + "test_pgm_reader_reads_the_magic_as_the_first_two_bytes",),
        "libnetpbm reads the magic number as the file's first two bytes, so a "
        "file with whitespace before P5 is not a PGM there",
    ),
    Mutant(
        "pgm-digit-check-dropped", "formats.py",
        "if not text.isdigit():", "if not text:",
        (_FORMATS + "test_pgm_reader_refuses_header_numbers_that_are_not_decimal_digits",),
        "int() also reads a sign, underscores and non-ASCII digits, so `+2 1_0 "
        "255` would read as a 2x10 image where Netpbm allows only ASCII digits",
    ),
    Mutant(
        "pgm-groups-out-of-order", "formats.py",
        "width, height, maxval = numbers", "height, width, maxval = numbers",
        (_FORMATS + "test_pgm_roundtrip",),
        "the header gives the width first, so a 9x5 image would read as 5x9 "
        "with its rows wrapped",
    ),
    Mutant(
        "pgm-raster-at-the-match-end", "formats.py",
        "start = width * height, match.end() + 1", "start = width * height, match.end()",
        (_FORMATS + "test_pgm_roundtrip",),
        "one whitespace byte ends the header, so the raster would start with "
        "it and lose its last pixel",
    ),
    Mutant(
        "pgm-raster-read-one-byte-long", "formats.py",
        "fh.read(min(size - len(payload), 1 << 24))",
        "fh.read(min(size + 1 - len(payload), 1 << 24))",
        (_FORMATS + "test_pgm_reader_reads_no_byte_past_the_raster_beyond_its_header_blocks",),
        "a raster that the first read does not hold would take one byte after "
        "it, which is read and then refused as a raster of the wrong length",
    ),
    Mutant(
        "pgm-raster-read-in-one-call", "formats.py",
        "fh.read(min(size - len(payload), 1 << 24))", "fh.read(size - len(payload))",
        (_FORMATS + "test_pgm_reader_refuses_a_size_the_file_does_not_hold_without_allocating_it",),
        "a read allocates the size it asks for, so a header that claims 10**18 "
        "pixels raises MemoryError where the file is refused as too short",
    ),
    Mutant(
        "pgm-reads-ahead-after-a-complete-header", "formats.py",
        "(match := header(data)).end() == len(data)", "(match := header(data)).end() <= len(data)",
        (_FORMATS + "test_pgm_reader_reads_no_byte_past_the_raster_beyond_its_header_blocks",),
        "a match that ends before the data does is complete, so reading on "
        "would read the whole file, bytes after the raster included",
    ),
    Mutant(
        "pgm-never-reads-ahead", "formats.py",
        "(match := header(data)).end() == len(data)", "(match := header(data)).end() > len(data)",
        (_FORMATS + "test_pgm_reader_reads_a_header_longer_than_the_first_read",),
        "a header that runs past the first 64 KiB would end at the end of the "
        "read, an unexpected end or a number cut short",
    ),
    Mutant(
        "state-strings-parsed", "integrate.py",
        "            if isinstance(value, (str, bytes)):  # which numpy would parse\n"
        "                check_real(value, name, interval)\n",
        "            pass\n",
        ("tests/test_reals.py::test_a_string_state_component_is_a_type_error",),
        "numpy's float64 conversion parses \"0.5\", where a real parameter given "
        "the same string raises check_real's TypeError",
    ),
    Mutant(
        "state-strings-in-object-arrays-parsed", "integrate.py",
        'given.dtype.kind in "OSU"', 'given.dtype.kind in "SU"',
        ("tests/test_reals.py::test_a_state_given_as_text_is_refused_in_any_container",),
        "numpy keeps a string beside an int too wide for int64 in an object "
        "array, and its float64 conversion parses that string too",
    ),
    # Refusals that each have one test, which must see the refusal deleted.
    Mutant(
        "pifs-code-hash-dropped", "compression.py",
        "    def __hash__(self):\n        return hash(self.to_bytes())\n", "",
        ("tests/test_compression.py::test_codes_hash_by_their_bytes_and_do_not_equal_other_types",),
        "a class that defines __eq__ and no __hash__ is unhashable, so a code "
        "could not be a set member or a dict key",
    ),
    Mutant(
        "pifs-code-equals-any-type", "compression.py",
        "        if not isinstance(other, PifsCode):\n            return NotImplemented\n", "",
        ("tests/test_compression.py::test_codes_hash_by_their_bytes_and_do_not_equal_other_types",),
        "a code compared with bytes or None would call to_bytes on it and raise "
        "AttributeError, where == should be False",
    ),
    Mutant(
        "affine-map-shape-unchecked", "fractals.py",
        '            raise DomainError("need a 2x2 linear part and a 2-vector offset")', "            pass",
        ("tests/test_fractals.py::test_affine_map_refuses_a_part_of_another_shape",),
        "a map of another shape fails later, inside numpy, with no DomainError",
    ),
    Mutant(
        "trajectory-ndim-unchecked", "integrate.py",
        '            raise DomainError("trajectory needs 1-D times and 2-D states")', "            pass",
        (_INTEGRATE + "test_trajectory_refuses_arrays_of_the_wrong_shape",),
        "1-D states or 2-D times would pass the length check, or fail it with "
        "the wrong reason",
    ),
    Mutant(
        "trajectory-length-unchecked", "integrate.py",
        '            raise DomainError("times and states must have equal length")', "            pass",
        (_INTEGRATE + "test_trajectory_refuses_arrays_of_the_wrong_shape",),
        "a time without a state, or a state without a time, would be kept",
    ),
    Mutant(
        "divergence-zero-in-the-window-fitted", "analysis.py",
        '        raise SeparationUnderflow("twin trajectories coincide bit-exactly")', "        pass",
        (_ANALYSIS + "test_divergence_rate_refuses_twins_that_coincide_inside_the_fit_window",),
        "an exact zero separation logs as -inf, and the fit over it is not a rate",
    ),
    Mutant(
        "series-csv-of-any-type", "formats.py",
        '            raise TypeError(f"cannot serialize {type(series).__name__} as series CSV")',
        "            return",
        (_FORMATS + "test_writers_refuse_a_record_they_cannot_serialize_and_leave_no_file",),
        "a record of another type would be skipped silently, with no file written",
    ),
    Mutant(
        "pgm-of-any-type", "formats.py",
        '            raise TypeError(f"cannot serialize {type(raster).__name__} as PGM")',
        "            payload = raster",
        (_FORMATS + "test_writers_refuse_a_record_they_cannot_serialize_and_leave_no_file",),
        "any 2-D array would be written as a PGM, a MapOrbit failing later",
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
    # The Record base, whose methods every record shares in place of a
    # generated dataclass's.
    Mutant(
        "record-eq-takes-a-subclass", "records.py",
        "if other.__class__ is not self.__class__:", "if not isinstance(other, type(self)):",
        _TWIN,
        "a dataclass's __eq__ compares only instances of its own class, so a "
        "record would equal an instance of a subclass with the same fields",
    ),
    Mutant(
        "record-hash-skips-the-last-field", "records.py",
        "return hash(self._astuple())", "return hash(self._astuple()[:-1])",
        _TWIN,
        "a dataclass hashes the tuple of every field; records that differ only "
        "in their last field would collide, and the hash of a one-field record "
        "would be hash(())",
    ),
    Mutant(
        "record-setattr-assigns", "records.py",
        '        raise FrozenInstanceError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        _TWIN,
        "a checked record could then be changed after __post_init__ accepted it",
    ),
    Mutant(
        "record-positional-bound-off-by-one", "records.py",
        "if len(args) > len(names):", "if len(args) > len(names) + 1:",
        _TWIN,
        "one positional argument more than the fields would be dropped, not "
        "refused with the TypeError of a dataclass's __init__.  Binding each "
        "argument to the next field is not listed: module-level presets then "
        "fail to build, and pytest exits 4 while loading conftest",
    ),
    Mutant(
        "record-default-unapplied", "records.py",
        "given[name] if name in given else defaults[name]", "given.get(name)",
        _TWIN,
        "a field left out would hold None, not its default: ChaosKey(3.9, 0.3) "
        "then has no warmup",
    ),
    # The exact PIFS search: the tile's matrix product, the float64 margin,
    # the tie rule and each block's first minimum.  Equivalent, so not
    # listed: a tile slice one block too long, which encodes the next
    # tile's first block twice, the same both times.
    Mutant(
        "pifs-margin-2-60", "compression.py",
        "margin = 2.0**-40 * (var_r * scale + upper)",
        "margin = 2.0**-60 * (var_r * scale + upper)",
        (_COMPRESSION + "test_a_tie_that_float64_rounds_above_u_survives_the_margin",),
        "L of a candidate that ties the optimum can round above U by a few "
        "2^-53 * Z, more than 2^-60 * (Z + U), and that candidate is pruned",
    ),
    Mutant(
        "pifs-margin-dropped", "compression.py",
        "bound <= (upper + margin)[:, None]", "bound <= upper[:, None]",
        (_COMPRESSION + "test_a_tie_that_float64_rounds_above_u_survives_the_margin",),
        "with U = 0 a tie whose L rounds up to 9e-7 is pruned, and a later "
        "candidate wins",
    ),
    Mutant(
        "pifs-tie-cut-strict", "compression.py",
        "(c <= c0[b])", "(c < c0[b])",
        (_COMPRESSION + "test_flat_range_blocks_scan_at_most_two_candidates",),
        "where U = 0 the seed itself is an optimum; without it a flat block "
        "keeps only earlier candidates, or none",
    ),
    Mutant(
        "pifs-gemm-float32", "compression.py",
        "cross = (ranges[blocks] @ cand.T).astype(np.int64)",
        "cross = (ranges[blocks].astype(np.float32) @ cand.T.astype(np.float32))"
        ".astype(np.int64)",
        (_COMPRESSION + "test_cross_products_are_exact_where_float32_is_not",),
        "float32 holds integers only up to 2^24, and a range_size 16 cross "
        "product reaches 256 * 1020 * 255",
    ),
    Mutant(
        "pifs-last-minimum", "compression.py",
        "win = hit[np.searchsorted(b[hit], ids)]",
        'win = hit[np.searchsorted(b[hit], ids, side="right") - 1]',
        (_COMPRESSION + "test_encoder_matches_brute_force",),
        "the tie-break is the lowest (domain, isometry, s_q), the first of a "
        "block's minima",
    ),
    Mutant(
        "pifs-tile-one-block-short", "compression.py",
        "blocks = slice(t0, t0 + tile)", "blocks = slice(t0, t0 + tile - 1)",
        (_COMPRESSION + "test_tiles_and_scan_chunks_do_not_change_the_code",),
        "the last block of every tile is never searched, and its row keeps "
        "whatever np.empty held",
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
