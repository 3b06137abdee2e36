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

    python mutation/run.py          # run every mutant
    python mutation/run.py NAME...  # run the named ones
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
]
