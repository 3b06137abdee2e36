"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen_inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chaoscope import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """The tour-small commands, run once in-process, outputs on disk."""
    root = tmp_path_factory.mktemp("tour")
    inputs = gen_inputs.generate(11, root / "in")
    (root / "out").mkdir()
    cmds = {c.name: c for c in workloads.tour_small(inputs, root / "out", 11)}
    stdout = {}
    for name, cmd in cmds.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(cmd.argv)) == 0, name
        stdout[name] = buf.getvalue()
    return cmds, stdout


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    a = gen_inputs.generate(5, tmp_path / "a")
    b = gen_inputs.generate(5, tmp_path / "b")
    c = gen_inputs.generate(6, tmp_path / "c")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes(), name
        assert a[name].read_bytes() != c[name].read_bytes(), name


def test_generated_code_is_a_valid_fic1_container(tmp_path):
    from chaoscope.compression import PifsCode

    paths = gen_inputs.generate(5, tmp_path)
    code = PifsCode.from_bytes(paths["code512.fic"].read_bytes())
    assert (code.width, code.height, code.range_size) == (512, 512, 8)


def test_every_tour_output_passes_its_check(tour):
    cmds, stdout = tour
    for name, cmd in cmds.items():
        assert cmd.check(cmd.out, stdout[name]) is None, name


def flip(path: Path, offset: int, mask: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", ["iterate", "bifurcate", "cobweb", "simulate"])
def test_flipped_csv_digit_is_counted_as_failed(tour, name):
    cmds, stdout = tour
    cmd = cmds[name]
    original = cmd.out.read_bytes()
    try:
        lines = original.split(b"\n")
        # the first digit of the last field on the third data row
        offset = sum(len(line) + 1 for line in lines[:3]) + lines[3].rindex(b",") + 1
        while not original[offset:offset + 1].isdigit():
            offset += 1
        flip(cmd.out, offset, 0x01)
        ledger = run.Ledger()
        assert not ledger.record(cmd, 0, stdout[name], "")
        assert (ledger.attempted, ledger.failed) == (1, 1)
    finally:
        cmd.out.write_bytes(original)


@pytest.mark.parametrize("name", ["decompress", "ifs"])
def test_flipped_pgm_byte_is_counted_as_failed(tour, name):
    cmds, stdout = tour
    cmd = cmds[name]
    original = cmd.out.read_bytes()
    try:
        flip(cmd.out, len(original) - 100, 0x80)
        ledger = run.Ledger()
        assert not ledger.record(cmd, 0, stdout[name], "")
        assert (ledger.attempted, ledger.failed) == (1, 1)
    finally:
        cmd.out.write_bytes(original)


def test_failed_exit_is_counted_as_failed(tour):
    cmds, _ = tour
    ledger = run.Ledger()
    assert not ledger.record(cmds["simdim"], 2, "", "chaoscope simdim: bad\n")
    assert ledger.failures == ["simdim: exit 2: chaoscope simdim: bad"]


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dynamics", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
