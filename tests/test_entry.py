"""The process entry point: ``cli.run`` ends a ``python -m chaoscope`` process.

``run`` calls ``main``, flushes stdout and stderr once and ends the process
with ``os._exit``, unless a profiler or tracer is set.  These tests run real
processes, with PYTHONUNBUFFERED removed so that stdout is block-buffered
as it is for most users.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaoscope
from chaoscope import cli
from chaoscope.cli import main

PACKAGE = Path(chaoscope.__file__).parent
ROOT = PACKAGE.parents[1]
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(PACKAGE.parent)
SIMDIM = ["simdim", "--copies", "3", "--ratio", "0.5"]


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=120, **kwargs)


def _run_script(argv, traced=False):
    """Python source that calls cli.run on argv, under a no-op tracer if traced."""
    return (
        "import sys\n"
        f"if {traced}:\n"
        "    sys.settrace(lambda *args: None)\n"
        f"sys.argv = ['chaoscope', *{argv!r}]\n"
        "from chaoscope.cli import run\n"
        "run()\n"
    )


def _exits(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_exit"]


def _function(tree, name):
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _calls_run(body) -> bool:
    return [ast.dump(stmt) for stmt in body] == [ast.dump(ast.parse("run()").body[0])]


def test_os_exit_is_called_only_by_run():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert {name: len(_exits(tree)) for name, tree in trees.items() if _exits(tree)} == {
        "cli.py": 1}
    assert len(_exits(_function(trees["cli.py"], "run"))) == 1
    ends = [n for n in ast.walk(_function(trees["cli.py"], "main"))
            if isinstance(n, ast.Attribute) and n.attr in ("exit", "_exit")]
    assert ends == []


def test_every_entry_point_calls_run():
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    assert _calls_run(tree.body[-1:])
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    guard = cli.body[-1]
    assert isinstance(guard, ast.If) and "__main__" in ast.unparse(guard.test)
    assert _calls_run(guard.body)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"chaoscope": "chaoscope.cli:run"}


def test_main_returns_the_code_and_never_ends_the_process(capsys):
    assert main(["--help"]) == 0
    assert main(["simdim", "--bogus"]) == 2
    assert "usage: chaoscope" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (SIMDIM + ["--bogus"], 2),
    (["boxdim", "--in", "no-such-file.pgm"], 2),
])
def test_exit_codes_of_a_process(argv, code, tmp_path):
    child = _python("-m", "chaoscope", *argv, cwd=tmp_path)
    assert child.returncode == code, child.stderr
    assert ("usage: chaoscope" in child.stdout) == (argv == ["--help"])


def test_a_malformed_pgm_exits_1_with_one_line(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # 3 of 16 pixels
    child = _python("-m", "chaoscope", "boxdim", "--in", str(bad))
    assert child.returncode == 1
    assert child.stderr.startswith("chaoscope boxdim: FormatError: ")
    assert child.stderr.count("\n") == 1
    assert child.stdout == ""


@pytest.mark.parametrize("args, prefix", [
    (["-m", "chaoscope", *SIMDIM], "chaoscope simdim"),
    (["-m", "chaoscope", "--help"], "chaoscope"),
    (["-c", _run_script(SIMDIM, traced=True)], "chaoscope simdim"),
])
def test_a_closed_stdout_exits_1_with_one_line(args, prefix):
    read, write = os.pipe()
    os.close(read)  # no reader: the child's first write to stdout fails
    try:
        child = subprocess.Popen([sys.executable, *args], env=ENV,
                                 stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 1
    assert err == f"{prefix}: BrokenPipeError: [Errno 32] Broken pipe\n"


def _without_stdout(argv, **kwargs):
    """Run cli.run on argv in a process started with fd 1 closed."""
    inner = _run_script(argv)
    return _python("-c", "import os, sys; os.close(1); "
                         f"os.execv(sys.executable, [sys.executable, '-c', {inner!r}])",
                   **kwargs)


def test_a_process_started_without_stdout_still_writes_its_file(tmp_path):
    # with fd 1 closed at start, sys.stdout is None and there is nothing to flush
    out = tmp_path / "cobweb.csv"
    child = _without_stdout(["cobweb", "--out", str(out)])
    assert (child.returncode, child.stderr) == (0, "")
    assert out.read_text().startswith("x,y\n")


@pytest.mark.parametrize("argv", [
    SIMDIM,
    ["divergence", "--system", "linear1d", "--params", "0.7", "--x0", "1", "--t1", "5",
     "--out", "d.csv"],
])
def test_a_printing_command_without_stdout_exits_1_before_it_runs(argv, tmp_path):
    # its result would be lost, so it refuses, and writes no file either
    child = _without_stdout(argv, cwd=tmp_path)
    assert child.returncode == 1
    assert child.stderr == f"chaoscope {argv[0]}: OSError: no stdout to print the result on\n"
    assert list(tmp_path.iterdir()) == []


def test_the_printing_commands_are_the_commands_that_call_print():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def prints(name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"
                   for n in ast.walk(_function(tree, "_" + name)))

    assert {name for name in commands if prints(name)} == cli._PRINTING_COMMANDS


def test_a_profiler_still_writes_its_report():
    child = _python("-m", "cProfile", "-m", "chaoscope", *SIMDIM)
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("dimension 1.58496250072115")
    assert "function calls" in child.stdout


@pytest.mark.parametrize("traced", [False, True])
def test_atexit_handlers_run_only_under_a_tracer(traced):
    script = "import atexit\natexit.register(print, 'atexit ran')\n" + _run_script(SIMDIM, traced)
    child = _python("-c", script)
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("dimension ")
    assert ("atexit ran" in child.stdout) == traced
