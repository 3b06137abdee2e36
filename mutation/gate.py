"""Run the mutation gate: every mutant in mutants.py must be killed.

    python mutation/gate.py          # every mutant
    python mutation/gate.py NAME...  # the named ones

Each mutant is applied to a fresh copy of ``src/`` in a temporary
directory, and its tests run against that copy in a pytest child with
``--hypothesis-seed=0 -p no:cacheprovider``, from the temporary directory,
so that no Hypothesis database carries a failing example from one run into
the next.  Before any mutant, every selected test must pass on an unedited
copy.  A mutant is killed when its child fails a test or cannot import the
mutated program (pytest exits 1 or 2); it survives when the child passes,
unless its record's ``platform`` test says this platform cannot tell it
apart, and then it is equivalent here.  A record whose old text is not
found exactly once, or whose tests pytest cannot select, fails the run,
and so does a surviving mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[1]

KILLED, SURVIVED, EQUIVALENT = "killed", "survived", "equivalent here"


class GateError(Exception):
    """A record the gate cannot judge: stale old text or a bad selector."""


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "chaoscope" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise GateError(f"{mutant.name}: old text found {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_tests(tests: Sequence[str], mutant: Optional[Mutant] = None) -> int:
    """pytest's exit code for tests on a copy of src/ with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="chaoscope-mutant.") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=0",
                   "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                   *(f"{ROOT}/{test}" for test in tests)]
        return subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def judge(mutant: Mutant) -> str:
    code = run_tests(mutant.tests, mutant)
    if code in (1, 2):  # a test failed, or collection failed on the mutated copy
        return KILLED
    if code == 0:
        return SURVIVED if mutant.platform() else EQUIVALENT
    raise GateError(f"{mutant.name}: pytest exited {code} on {' '.join(mutant.tests)}")


def check_baseline(mutants: Iterable[Mutant]) -> None:
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    code = run_tests(tests)
    if code != 0:
        raise GateError(f"the selected tests exit {code} on the unedited program")


def main(argv: Sequence[str]) -> int:
    names = set(argv)
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = names - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        check_baseline(chosen)
        verdicts = []
        for mutant in chosen:
            verdicts.append(judge(mutant))
            print(f"{verdicts[-1]:15} {mutant.name}", flush=True)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{verdicts.count(KILLED)} killed, {verdicts.count(EQUIVALENT)} equivalent "
          f"here, {verdicts.count(SURVIVED)} survived, of {len(chosen)}, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if SURVIVED in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
