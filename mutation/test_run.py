"""Tests of the mutation gate, ``gate.py``, and the gate itself.

    python -m pytest mutation -q
    python -m pytest mutation bench/tests -q  # one process collects both
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from mutants import MUTANTS, Mutant  # noqa: E402

_SELECTOR = ("tests/test_formats.py::test_csv_17_digit_roundtrip_format",)


def test_no_module_here_shadows_a_benchmark_module():
    # pytest puts both directories on sys.path in one process, so a module
    # name that both use (run.py, once) loads only the first one imported
    bench = {path.stem for path in (HERE.parent / "bench").glob("*.py")}
    assert not bench & {path.stem for path in HERE.glob("*.py")}


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_selected_test_passes_on_the_unedited_program():
    gate.check_baseline(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_mutant_is_killed(mutant):
    verdict = gate.judge(mutant)
    if verdict == gate.EQUIVALENT:
        pytest.skip(f"{mutant.name} is equivalent on this platform")
    assert verdict == gate.KILLED


def test_a_no_op_mutant_survives():
    same = "def write_rows_csv("
    noop = Mutant("no-op", "formats.py", same, same, _SELECTOR, "changes nothing")
    assert gate.judge(noop) == gate.SURVIVED


def test_a_survivor_is_equivalent_where_its_platform_test_says_so():
    same = "def write_rows_csv("
    noop = Mutant("no-op", "formats.py", same, same, _SELECTOR, "changes nothing",
                  platform=lambda: False)
    assert gate.judge(noop) == gate.EQUIVALENT


def test_a_stale_record_fails_the_run():
    stale = Mutant("stale", "formats.py", "text that is not in the file", "", _SELECTOR, "")
    with pytest.raises(gate.GateError, match="old text found 0 times"):
        gate.judge(stale)


def test_a_selector_that_selects_nothing_fails_the_run():
    lost = Mutant("lost", "formats.py", "def write_rows_csv(", "def write_rows_csv(",
                  ("tests/test_formats.py::no_such_test",), "")
    with pytest.raises(gate.GateError, match="pytest exited 4"):
        gate.judge(lost)
