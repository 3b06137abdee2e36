import argparse
import ast
import dataclasses
import hashlib
import inspect
import struct
from pathlib import Path

import numpy as np
import pytest

import chaoscope as c
from chaoscope import cli, compression
from chaoscope.cipher import MAX_WARMUP, ChaosKey
from chaoscope.cli import KEY_ENV_VAR
from chaoscope.formats import read_pgm, write_pgm
from chaoscope.fractals import mandelbrot_grid
from chaoscope.integrate import IntegratorConfig, _step_budget, iterate_map
from conftest import make_blob64
from test_acceptance import _determinism_cases


def test_simulate_lorenz_writes_csv(tmp_path, run_cli):
    out = tmp_path / "t.csv"
    code, _ = run_cli(
        [
            "simulate",
            "--system",
            "lorenz",
            "--span",
            "0:100",
            "--x0",
            "15,20,30",
            "--rel-tol",
            "1e-4",
            "--abs-tol",
            "1e-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2"
    assert lines[1].startswith("0,15,20,30")
    assert len(lines) > 100


def test_mandelbrot_classic_window_dimensions(tmp_path, run_cli):
    out = tmp_path / "m.pgm"
    code, _ = run_cli(
        [
            "mandelbrot",
            "--window",
            "-2.4:1.2:-1.5:1.5",
            "--scale",
            "0.005",
            "--nmax",
            "50",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    img = read_pgm(out)
    assert (img.width, img.height) == (721, 601)


def test_unknown_preset_exits_2(tmp_path, run_cli, capsys):
    out = tmp_path / "x.csv"
    code, _ = run_cli(
        ["simulate", "--system", "nosuch", "--span", "0:1", "--out", str(out)]
    )
    assert code == 2
    assert "nosuch" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--system", "lorenz", "--span", "5:1", "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--span", "0:1", "--x0", "1,2", "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--span", "0:1", "--rel-tol", "2.0", "--out", "o.csv"],
        ["simulate", "--system", "logistic", "--span", "0:1", "--out", "o.csv"],
        ["iterate", "--system", "henon", "--steps", "5", "--discard", "9", "--out", "o.csv"],
        ["bifurcate", "--mu-range", "3.0:2.0", "--out", "o.csv"],
        ["bifurcate", "--mu-range", "2.0:3.0", "--discard", "10", "--out", "o.csv"],
        ["mandelbrot", "--threshold", "1.0", "--out", "o.pgm"],
        ["mandelbrot", "--threshold", "nan", "--out", "o.pgm"],
        ["cobweb", "--x0", "1.4", "--out", "o.csv"],
        ["simdim", "--copies", "3", "--ratio", "1.5"],
        ["equilibria", "--system", "chua", "--out", "o.csv"],
        ["ifs", "--preset", "unknown-ifs", "--out", "o.pgm"],
        ["equilibria", "--system", "lorenz", "--params", "1,2", "--out", "o.csv"],
        ["mandelbrot", "--window=-inf:1:-1:1", "--out", "o.pgm"],
        ["mandelbrot", "--window=-1e308:1e308:-1:1", "--out", "o.pgm"],
        ["mandelbrot", "--scale", "1e-5", "--out", "o.pgm"],
        ["encrypt", "--in", __file__, "--key", "3.9,0.3", "--warmup", "100000000000",
         "--out", "o.chx"],
        ["avalanche", "--key", "3.9,0.3", "--warmup", "100000000000"],
        ["ifs", "--size", "1000000", "--out", "o.pgm"],
        ["bifurcate", "--mu-steps", "100000000", "--out", "o.csv"],
        ["bifurcate", "--discard", str(10**12), "--out", "o.csv"],
        ["iterate", "--system", "henon", "--steps", str(10**13), "--out", "o.csv"],
        ["ifs", "--steps", "100000", "--out", "o.pgm"],
        ["mandelbrot", "--nmax", str(10**9), "--out", "o.pgm"],
        ["mandelbrot", "--nmax", str(2**31), "--out", "o.pgm"],
        ["bifurcate", "--mu-range", "2.8:4.0", "--x0", "1.5", "--out", "o.csv"],
        ["bifurcate", "--mu-range", "2.8:4.0", "--x0", "nan", "--out", "o.csv"],
        ["cobweb", "--steps", "1000000000", "--out", "o.csv"],
        ["cobweb", "--steps", "30000000", "--out", "o.csv"],
        ["avalanche", "--key", "3.9,0.3", "--bytes", "100000000000"],
        ["avalanche", "--key", "3.9,0.3", "--trials", "1000000000"],
        ["simulate", "--system", "lorenz", "--span", "0:1000000", "--max-steps", "1000000000",
         "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--span", "0:1", "--min-step", "nan", "--out", "o.csv"],
        ["equilibria", "--system", "lorenz", "--params", "10,inf,2", "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--span", "0:1", "--initial-step", "nan",
         "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--span", "0:inf", "--out", "o.csv"],
        ["divergence", "--system", "lorenz", "--t1", "inf", "--out", "o.csv"],
        ["divergence", "--system", "lorenz", "--t1", "1", "--delta0", "inf", "--out", "o.csv"],
        ["simulate", "--system", "chua", "--span", "0:1", "--params", "nan,1,1,1,2",
         "--out", "o.csv"],
        ["iterate", "--system", "logistic", "--x0", "1.5", "--steps", "2000", "--out", "o.csv"],
        ["iterate", "--system", "logistic", "--x0", "nan", "--steps", "5", "--out", "o.csv"],
        ["iterate", "--system", "henon", "--x0", "nan,0", "--steps", "5", "--out", "o.csv"],
        ["simulate", "--system", "lorenz", "--x0", "1,inf,2", "--span", "0:1", "--out", "o.csv"],
    ],
)
def test_validation_failures_exit_2_without_output(argv, tmp_path, run_cli, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(argv)
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_simulate_over_the_kept_step_cap_exits_2_with_one_line(tmp_path, run_cli, capsys):
    code, _ = run_cli(["simulate", "--system", "lorenz", "--span", "0:1000000",
                       "--max-steps", "1000000000", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "chaoscope simulate: 1000000001 steps x 4 values = 4000000004, "
        "over the 10000000-value cap\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_unknown_ifs_preset_exits_2_with_one_line(tmp_path, run_cli, capsys):
    code, _ = run_cli(["ifs", "--preset", "nope", "--out", str(tmp_path / "o.pgm")])
    assert code == 2
    assert capsys.readouterr().err == (
        "chaoscope ifs: unknown IFS preset 'nope' (known: sierpinski)\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_is_validation_error(tmp_path, run_cli):
    out = tmp_path / "no" / "such" / "dir" / "o.csv"
    code, _ = run_cli(["simdim", "--copies", "3", "--ratio", "0.5"])
    assert code == 0
    code, _ = run_cli(
        ["cobweb", "--mu", "3.9", "--x0", "0.2", "--out", str(out)]
    )
    assert code == 2


def test_iterate_henon(tmp_path, run_cli):
    out = tmp_path / "h.csv"
    code, _ = run_cli(
        ["iterate", "--system", "henon", "--steps", "100", "--discard", "10", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,x0,x1"
    assert len(lines) == 91
    assert lines[1].startswith("10,")


def test_cobweb_and_bifurcate(tmp_path, run_cli):
    cob = tmp_path / "c.csv"
    code, _ = run_cli(["cobweb", "--mu", "3.8282", "--x0", "0.2", "--steps", "10", "--out", str(cob)])
    assert code == 0
    assert len(cob.read_text().splitlines()) == 22  # header + 2n+1 vertices

    bif = tmp_path / "b.csv"
    code, _ = run_cli(
        ["bifurcate", "--mu-range", "3.1:3.3", "--mu-steps", "5", "--x0", "0.3",
         "--discard", "200", "--keep", "4", "--out", str(bif)]
    )
    assert code == 0
    assert len(bif.read_text().splitlines()) == 21  # header + 5*4 points


def test_divergence_prints_rate(tmp_path, run_cli):
    out = tmp_path / "d.csv"
    code, stdout = run_cli(
        ["divergence", "--system", "linear1d", "--params", "0.7", "--x0", "1",
         "--delta0", "1e-8", "--t1", "10", "--out", str(out)]
    )
    assert code == 0
    line = next(l for l in stdout.splitlines() if l.startswith("fitted_rate "))
    assert abs(float(line.split()[1]) - 0.7) / 0.7 < 0.05
    assert out.exists()


def test_equilibria_lorenz(tmp_path, run_cli):
    out = tmp_path / "eq.csv"
    code, _ = run_cli(["equilibria", "--system", "lorenz", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 4
    assert lines[1] == "0,0,0"


def test_ifs_boxdim_pipeline(tmp_path, run_cli):
    pgm = tmp_path / "s.pgm"
    code, _ = run_cli(["ifs", "--preset", "sierpinski", "--size", "256", "--steps", "5", "--out", str(pgm)])
    assert code == 0
    fit = tmp_path / "fit.csv"
    code, stdout = run_cli(
        ["boxdim", "--in", str(pgm), "--min-exp", "2", "--max-exp", "6", "--out", str(fit)]
    )
    assert code == 0
    estimate = float(stdout.split()[1])
    assert abs(estimate - 1.585) < 0.1
    assert fit.read_text().splitlines()[0] == "x,y"


def test_simdim_prints_dimension(run_cli):
    code, stdout = run_cli(["simdim", "--copies", "3", "--ratio", "0.5"])
    assert code == 0
    assert abs(float(stdout.split()[1]) - 1.584963) < 1e-6


def test_compress_decompress_pipeline(tmp_path, run_cli):
    col = np.round(255 * np.arange(64) / 63).astype(np.uint8)
    ramp = c.GrayImage(pixels=np.tile(col, (64, 1)))
    src = tmp_path / "ramp.pgm"
    from chaoscope.formats import write_pgm

    write_pgm(ramp, src)
    fic = tmp_path / "ramp.fic"
    code, _ = run_cli(["compress", "--in", str(src), "--out", str(fic)])
    assert code == 0
    assert fic.read_bytes()[:4] == b"FIC1"
    back = tmp_path / "back.pgm"
    code, _ = run_cli(["decompress", "--in", str(fic), "--iterations", "10", "--out", str(back)])
    assert code == 0
    assert c.psnr(ramp, read_pgm(back)) >= 30.0


def test_encrypt_decrypt_with_flag_key(tmp_path, run_cli):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(bytes(range(256)))
    enc = tmp_path / "secret.chx"
    code, _ = run_cli(["encrypt", "--in", str(secret), "--key", "3.9,0.3", "--out", str(enc)])
    assert code == 0
    assert enc.read_bytes()[:4] == b"CHX1"
    dec = tmp_path / "plain.bin"
    code, _ = run_cli(["decrypt", "--in", str(enc), "--key", "3.9,0.3", "--out", str(dec)])
    assert code == 0
    assert dec.read_bytes() == secret.read_bytes()


def test_encrypt_uses_env_key(tmp_path, run_cli, monkeypatch):
    monkeypatch.setenv(KEY_ENV_VAR, "3.9,0.3")
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"hello")
    enc = tmp_path / "s.chx"
    assert run_cli(["encrypt", "--in", str(secret), "--out", str(enc)])[0] == 0
    dec = tmp_path / "p.bin"
    assert run_cli(["decrypt", "--in", str(enc), "--out", str(dec)])[0] == 0
    assert dec.read_bytes() == b"hello"


def test_missing_key_is_validation_error(tmp_path, run_cli, monkeypatch):
    monkeypatch.delenv(KEY_ENV_VAR, raising=False)
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"hello")
    code, _ = run_cli(["encrypt", "--in", str(secret), "--out", str(tmp_path / "o")])
    assert code == 2


def test_avalanche_prints_fraction(run_cli):
    code, stdout = run_cli(
        ["avalanche", "--key", "3.9,0.3", "--bytes", "2048", "--trials", "8"]
    )
    assert code == 0
    assert abs(float(stdout.split()[1]) - 0.5) <= 0.05


def test_runtime_failure_exits_1_without_output(tmp_path, run_cli, capsys):
    out = tmp_path / "t.csv"
    code, _ = run_cli(
        ["simulate", "--system", "lorenz", "--span", "0:100", "--max-steps", "10",
         "--out", str(out)]
    )
    assert code == 1
    assert "MaxStepsExceeded" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", ["1.5", "-0.1", "nan"])
def test_bifurcate_refuses_x0_outside_unit_interval_like_cobweb(x0, tmp_path, run_cli, capsys,
                                                                monkeypatch):
    # one message for the logistic start in every command that takes one
    monkeypatch.chdir(tmp_path)
    for argv in (["cobweb"], ["bifurcate", "--mu-range", "2.8:4.0"],
                 ["iterate", "--system", "logistic", "--steps", "12"]):
        code, _ = run_cli(argv + ["--x0", x0, "--out", "o.csv"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"chaoscope {argv[0]}: x0 must lie in [0, 1], got {float(x0)}\n"
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    (["bifurcate", "--mu-range", "3.9:3.9000000000000004", "--mu-steps", "1000",
      "--out", "o.csv"],
     "chaoscope bifurcate: 1000 values of mu from 3.9 to 3.9000000000000004 are not "
     "strictly increasing in float64\n"),
    (["mandelbrot", "--window=-0.75:-0.7499999999999:0.1:0.1000000000001", "--scale", "1e-16",
      "--out", "o.pgm"],
     "chaoscope mandelbrot: the window's x values are not strictly increasing: "
     "scale 1e-16 is below float64's resolution there\n"),
])
def test_an_axis_float64_cannot_resolve_exits_2_with_one_line(argv, err, tmp_path, run_cli,
                                                              capsys, monkeypatch):
    # a sweep or window whose samples repeat would write rows or columns
    # that were never the grid the flags ask for
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(argv)
    assert code == 2
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_warmup_help_names_the_cipher_cap():
    assert cli._WARMUP_HELP == f"keystream warmup iterates, 256 to {MAX_WARMUP}"


def test_decrypt_bad_container_is_runtime_error(tmp_path, run_cli):
    bad = tmp_path / "bad.chx"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    code, _ = run_cli(["decrypt", "--in", str(bad), "--key", "3.9,0.3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o").exists()


def test_stalled_step_exits_1_without_output(tmp_path, run_cli, capsys):
    # at t = 1e6 a 1e-12 step rounds away (t + h == t) although h > min_step
    out = tmp_path / "t.csv"
    code, _ = run_cli(
        ["simulate", "--system", "lorenz", "--span", "1e6:1000001",
         "--initial-step", "1e-12", "--min-step", "1e-13", "--out", str(out)]
    )
    assert code == 1
    assert "StepUnderflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_flow_that_overflows_exits_1_with_nonfinite_state(tmp_path, run_cli, capsys):
    # x' = 1000 x overflows near t = 0.7: every trial step from there is
    # non-finite, down to the step floor
    out = tmp_path / "t.csv"
    code, _ = run_cli(
        ["simulate", "--system", "linear1d", "--params", "1000", "--span", "0:10",
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("chaoscope simulate: NonFiniteState: "
                          "non-finite field value or state in the step from t=0.7")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["simulate", "--span", "0:1"], ["divergence", "--t1", "1"]],
                         ids=["simulate", "divergence"])
@pytest.mark.parametrize(
    "flags, floor",
    [
        (["--initial-step", "1e-13"], "1e-12"),
        (["--initial-step", "9.9e-13"], "1e-12"),
        (["--initial-step", "1e-6", "--min-step", "1e-3"], "0.001"),
        (["--initial-step", "1e-12"], None),
    ],
    ids=["below-default-floor", "just-below-default-floor", "below-min-step", "at-default-floor"],
)
def test_initial_step_below_the_step_floor_exits_2_before_the_field_runs(
        command, flags, floor, tmp_path, run_cli, capsys, monkeypatch):
    # min_step defaults to 1e-12 * span; an initial step equal to it runs
    lorenz = c.PRESETS["lorenz"]
    calls = []
    counted = lambda p, s: calls.append(s) or lorenz.formula(p, s)  # noqa: E731
    monkeypatch.setitem(c.PRESETS, "lorenz", dataclasses.replace(lorenz, formula=counted))
    out = tmp_path / "o.csv"
    code, _ = run_cli(command[:1] + ["--system", "lorenz"] + command[1:] + flags
                      + ["--out", str(out)])
    if floor is None:
        assert code == 0 and calls and out.exists()
        return
    assert code == 2
    assert capsys.readouterr().err == (
        f"chaoscope {command[0]}: initial_step must lie in [{floor}, inf), got {float(flags[1])}\n"
    )
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_exits_1_and_leaves_no_temp(tmp_path, run_cli):
    target = tmp_path / "adir"
    target.mkdir()
    code, _ = run_cli(["cobweb", "--out", str(target)])
    assert code == 1
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("out", ["adir", ".", ""])
def test_out_naming_a_directory_exits_1_before_the_command_runs(out, tmp_path, run_cli, capsys,
                                                                monkeypatch):
    def never(args):
        raise AssertionError("cobweb ran with a directory as its output")

    monkeypatch.setattr(cli, "_cobweb", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    code, stdout = run_cli(["cobweb", "--out", out])
    assert (code, stdout) == (1, "")
    assert capsys.readouterr().err == (
        f"chaoscope cobweb: IsADirectoryError: output is a directory: {out or '.'}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_boxdim_with_an_empty_out_writes_no_csv(tmp_path, run_cli, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["ifs", "--size", "64", "--steps", "3", "--out", "s.pgm"])[0] == 0
    code, stdout = run_cli(["boxdim", "--in", "s.pgm", "--min-exp", "1", "--max-exp", "4",
                            "--out", ""])
    assert code == 0 and stdout.startswith("dimension ")
    assert [p.name for p in tmp_path.iterdir()] == ["s.pgm"]


@pytest.mark.parametrize("t1", ["0", "-1", "nan", "inf", "-inf"])
def test_divergence_t1_outside_0_inf_exits_2_with_one_line(t1, tmp_path, run_cli, capsys):
    out = tmp_path / "d.csv"
    code, stdout = run_cli(["divergence", "--system", "lorenz", f"--t1={t1}", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert capsys.readouterr().err == (
        f"chaoscope divergence: t1 must lie in (0, inf), got {float(t1)}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_divergence_with_a_tiny_t1_fits_rate_0(tmp_path, run_cli, capsys):
    # the twins' log separation is constant over so short a window
    out = tmp_path / "d.csv"
    code, stdout = run_cli(["divergence", "--system", "lorenz", "--t1", "1e-300",
                            "--out", str(out)])
    assert (code, stdout) == (0, "fitted_rate 0\nfit_window 0 1e-300\n")
    assert out.exists()
    # a t1 whose grid step t1 / 1999 underflows to 0 is refused with one line
    code, stdout = run_cli(["divergence", "--system", "lorenz", "--t1", "4e-321",
                            "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert capsys.readouterr().err == (
        "chaoscope divergence: t1 / 1999 must lie in (0, inf), got 0.0\n"
    )


def test_equilibria_that_overflow_exit_1_with_one_line(tmp_path, run_cli, capsys):
    out = tmp_path / "eq.csv"
    code, stdout = run_cli(["equilibria", "--system", "lorenz", "--params", "10,1e308,1e10",
                            "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert capsys.readouterr().err == (
        "chaoscope equilibria: NonFiniteState: C+- are not finite: b * (r - 1) overflows "
        "for b=10000000000.0, r=1e+308\n"
    )
    assert list(tmp_path.iterdir()) == []


_BAD_INPUTS = {
    "fic-range-size-0": struct.pack("<4sHHBB", b"FIC1", 16, 16, 0, 0),
    "fic-20x16-range-8": struct.pack("<4sHHBB", b"FIC1", 20, 16, 8, 0)
    + struct.pack("<HHBbh", 0, 0, 0, 0, 10) * 4,
    "fic-4x4-range-8": struct.pack("<4sHHBB", b"FIC1", 4, 4, 8, 0),
    "chx-warmup-2**32-1": struct.pack("<4sBIQ", b"CHX1", 1, 2**32 - 1, 4) + b"abcd",
    "pgm-size-minus-1": b"P5\n-1 -1\n255\n\x00",
}


def test_oversized_code_exits_1_before_decoding(tmp_path, run_cli, capsys, monkeypatch):
    def no_decode(*args):
        raise AssertionError("the oversized code reached the decoder")

    monkeypatch.setattr(compression, "pifs_decode", no_decode)
    src = tmp_path / "big.fic"  # 0.5 MB declaring a 65280x65280 image
    src.write_bytes(struct.pack("<4sHHBB", b"FIC1", 65280, 65280, 255, 0)
                    + struct.pack("<HHBbh", 0, 0, 0, 0, 10) * (256 * 256))
    out = tmp_path / "big.pgm"
    code, _ = run_cli(["decompress", "--in", str(src), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("chaoscope decompress: FormatError: ") and "pixel cap" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_decompress_over_the_pixel_pass_cap_exits_2_without_output(tmp_path, run_cli, capsys):
    src = tmp_path / "small.fic"
    src.write_bytes(c.PifsCode(16, 16, 8, [(0, 0, 0, 32, 10)] * 4).to_bytes())
    out = tmp_path / "small.pgm"
    code, _ = run_cli(["decompress", "--in", str(src), "--iterations", str(10**9),
                       "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("chaoscope decompress: ") and "pixel-pass cap" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fic-range-size-0", ["decompress"]),
        ("fic-20x16-range-8", ["decompress"]),
        ("fic-4x4-range-8", ["decompress"]),
        ("chx-warmup-2**32-1", ["decrypt", "--key", "3.9,0.3"]),
        ("pgm-size-minus-1", ["compress"]),
        ("pgm-size-minus-1", ["boxdim"]),
    ],
)
def test_malformed_input_file_exits_1_without_output(name, argv, tmp_path, run_cli, capsys):
    src = tmp_path / "in" / "bad"
    src.parent.mkdir()
    src.write_bytes(_BAD_INPUTS[name])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _ = run_cli(argv + ["--in", str(src), "--out", str(out_dir / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"chaoscope {argv[0]}: FormatError: ")
    assert err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        # 60x64 is not divisible by the 8-pixel range blocks
        ["compress", "--range-size", "8"],
        # 2**7 boxes per side need at least a 128-pixel image
        ["boxdim", "--min-exp", "2", "--max-exp", "7"],
    ],
)
def test_input_mismatch_exits_2_without_output(argv, tmp_path, run_cli):
    src = tmp_path / "in.pgm"
    write_pgm(c.GrayImage.constant(60, 64, 200), src)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _ = run_cli(argv + ["--in", str(src), "--out", str(out_dir / "o")])
    assert code == 2
    assert list(out_dir.iterdir()) == []


def test_decrypt_out_of_range_key_exits_2(tmp_path, run_cli):
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"hello")
    enc = tmp_path / "s.chx"
    assert run_cli(["encrypt", "--in", str(secret), "--key", "3.9,0.3", "--out", str(enc)])[0] == 0
    code, _ = run_cli(["decrypt", "--in", str(enc), "--key", "5,0.3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_decompress_refuses_iterations_before_parsing_the_code(tmp_path, run_cli, capsys,
                                                                monkeypatch):
    def no_parse(self):
        raise AssertionError("the records were parsed before --iterations was checked")

    src = tmp_path / "small.fic"
    src.write_bytes(c.PifsCode(16, 16, 8, [(0, 0, 0, 32, 10)] * 4).to_bytes())
    monkeypatch.setattr(compression.PifsCode, "__post_init__", no_parse)
    out = tmp_path / "small.pgm"
    for iterations, message in (("0", "iterations must be at least 1, got 0"),
                                (str(10**9), "pixel-pass cap")):
        code, _ = run_cli(["decompress", "--in", str(src), "--iterations", iterations,
                           "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chaoscope decompress: ") and message in err
    assert not out.exists()


#: The flags each command with an --in or --out path needs besides them.
_PATH_COMMANDS = {
    "simulate": ["--system", "lorenz", "--span", "0:1"],
    "iterate": ["--system", "henon", "--steps", "5"],
    "cobweb": [],
    "bifurcate": ["--mu-range", "3:4"],
    "divergence": ["--system", "lorenz", "--t1", "1"],
    "equilibria": ["--system", "lorenz"],
    "mandelbrot": [],
    "ifs": [],
    "boxdim": [],
    "compress": [],
    "decompress": [],
    "encrypt": ["--key", "3.9,0.3"],
    "decrypt": ["--key", "3.9,0.3"],
}


def _subparsers():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings}


_INPUT_COMMANDS = {"boxdim", "compress", "decompress", "encrypt", "decrypt"}

#: SHA-256 of the top-level --help text ("") and of each command's --help
#: text at 80 columns; argparse wraps its help to the terminal width.
_HELP_DIGESTS = {
    "": "ee433eb444552cd590270e89b12b7fd721cc8b823f24f7501743a8079f07472a",
    "simulate": "9fbae98dbac090bf54a6e374a90b18063465bf26a67532fbc672485d38dab0a4",
    "iterate": "c29a7c64a11aeb696de6b7f0a286fa51284e2d1980fab5e52acd42de5087ffdb",
    "cobweb": "df4ada9e6857f0743f957ab375a5cd6fe743a05300fe8425056102d4245305eb",
    "bifurcate": "c1aca4cf2157ef767d3cb4e5ceee53b6978727babff2325a909d07f1f32ae032",
    "divergence": "df3e0c2e5853bb457f269fadb735106fc89f930add3e20b4fc64f32379b8276b",
    "equilibria": "589b3b7158666dc7840ead18408bc02eaed251a872cd942949199ed19010d5ff",
    "mandelbrot": "cd7371898d3dc13459ba0aa331589ed3be098fc6010e9f3f2ef9041b962692d4",
    "ifs": "f91b7211ce7e5ab0cdb738061a96c21e909cba37cadeebbeee8ea9fee29a73ea",
    "boxdim": "c00eb8b43c002ae66bfba0e59e993735405db105698325e926bb151352efa4b0",
    "simdim": "b5f6e8fefc4f9619a91b1c91821cc85b83671429fea31029673a407b27b95f72",
    "compress": "c12453360e245475f3fec245fa7d10b2424afd93ab7ca033fbf9175a45b0691c",
    "decompress": "31b560b17612dea57cd6d356ac54ef29efe7c2f674985eeb643fbe4ecbffd6fb",
    "encrypt": "2cf4df29da8d8d0e4e32d840f95c775ff9876bdf43d40091f3197e5ed7677b7b",
    "decrypt": "8720087c001ff66c56e0802b23202b4606d8ceaf8ea8b648d1289d23353f664d",
    "avalanche": "42f234cbd83d44f06366ae984c25571b50ab8a005853f0d8fbbe082829933cb2",
}


@pytest.mark.parametrize("command", list(_HELP_DIGESTS), ids=lambda c: c or "chaoscope")
def test_help_texts_are_unchanged(command, run_cli, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout = run_cli([command, "--help"] if command else ["--help"])
    assert code == 0
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == _HELP_DIGESTS[command]


def _parse(parser, argv, capsys):
    """parse_args on argv: its Namespace or exit code, stdout and stderr."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


def test_one_subparser_parses_as_the_full_parser(tmp_path, capsys, monkeypatch):
    # main builds only the named command's subparser; its Namespace, and its
    # exit code and stderr on a bad flag, an extra positional (reported with
    # the top-level usage) or missing required flags, are the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    for name, argv, outs in _determinism_cases(tmp_path)[0]:
        tour = cli._normalize_argv(argv + (["--out", outs[0]] if outs else []))
        for argv in (tour, tour + ["--nosuch", "1"], tour + ["extra"], [name]):
            full = _parse(cli.build_parser(), argv, capsys)
            assert _parse(cli.build_parser(name), argv, capsys) == full, argv
            if not isinstance(full[0], argparse.Namespace):
                assert (cli.main(argv), *capsys.readouterr()) == full, argv


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["nosuch"], 2)],
                         ids=["no-arguments", "help", "unknown-command"])
def test_the_full_parser_lists_every_command(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert "{" + ",".join(cli.COMMANDS) + "}" in (out if code == 0 else err)


def test_help_digests_cover_every_command():
    assert set(_HELP_DIGESTS) == {""} | set(_subparsers())


def test_path_commands_cover_every_command_with_a_path():
    parsers = _subparsers()
    assert {name for name, p in parsers.items() if "--out" in _options(p)} == set(_PATH_COMMANDS)
    assert {name for name, p in parsers.items() if "--in" in _options(p)} == _INPUT_COMMANDS


@pytest.mark.parametrize(
    "command, missing",
    [(cmd, "out") for cmd in sorted(_PATH_COMMANDS)]
    + [(cmd, "input") for cmd in sorted(_INPUT_COMMANDS)],
)
def test_paths_are_checked_before_the_command_runs(command, missing, tmp_path, run_cli,
                                                   capsys, monkeypatch):
    def never(args):
        raise AssertionError(f"{command} ran before its paths were checked")

    summary, _, flags = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (summary, never, flags))
    src = tmp_path / "in.bin"
    src.write_bytes(b"P5\n1 1\n255\n\x00")
    argv = [command] + _PATH_COMMANDS[command]
    if command in _INPUT_COMMANDS:
        argv += ["--in", str(tmp_path / "none" if missing == "input" else src)]
    argv += ["--out", str(tmp_path / ("none/o" if missing == "out" else "o"))]
    code, stdout = run_cli(argv)
    assert (code, stdout) == (2, "")
    what = "input file" if missing == "input" else "output directory"
    assert capsys.readouterr().err == (
        f"chaoscope {command}: {what} does not exist: {tmp_path / 'none'}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


#: The flags that mirror a library default, the command that takes each,
#: and the library callable whose parameter of the same name holds it.
_LIBRARY_DEFAULTS = [
    ("iterate", "discard", iterate_map),
    ("mandelbrot", "threshold", mandelbrot_grid),
    ("compress", "range_size", compression.pifs_encode),
    ("compress", "domain_step", compression.pifs_encode),
    ("compress", "s_max", compression.pifs_encode),
    ("encrypt", "warmup", ChaosKey),
    ("avalanche", "warmup", ChaosKey),
] + [
    (command, name, IntegratorConfig)
    for command in ("simulate", "divergence") for name in cli._INTEGRATOR_FLAGS
]


@pytest.mark.parametrize("command, name, owner", _LIBRARY_DEFAULTS)
def test_flags_with_a_library_default_parse_to_none(command, name, owner):
    parser = _subparsers()[command]
    assert parser.get_default(name) is None
    assert "--" + name.replace("_", "-") in _options(parser)
    assert name in inspect.signature(owner).parameters


_DEFAULT_RUNS = {
    "iterate": ["iterate", "--system", "henon", "--steps", "200"],
    "mandelbrot": ["mandelbrot", "--scale", "0.05"],
    "compress": ["compress"],
    "encrypt": ["encrypt", "--key", "3.9,0.3"],
    "avalanche": ["avalanche", "--key", "3.9,0.3", "--bytes", "1024", "--trials", "8"],
    "simulate": ["simulate", "--system", "lorenz", "--span", "0:1"],
    "divergence": ["divergence", "--system", "lorenz", "--t1", "1"],
}

#: Library defaults of None that the runs above resolve to one value: the
#: attempt budget of their 3-component flows.
_RESOLVED = {"max_steps": _step_budget(3)}


def _library_default(name, owner):
    return _RESOLVED.get(name, inspect.signature(owner).parameters[name].default)


@pytest.mark.parametrize(
    "command, name, owner",
    [(cmd, name, owner) for cmd, name, owner in _LIBRARY_DEFAULTS
     if _library_default(name, owner) is not None],
)
def test_a_left_out_flag_gives_the_library_default(command, name, owner, tmp_path, run_cli):
    default = _library_default(name, owner)
    src = tmp_path / "in.pgm"
    write_pgm(make_blob64(), src)
    outputs = []
    for extra in ([], ["--" + name.replace("_", "-"), str(default)]):
        argv = _DEFAULT_RUNS[command] + extra
        if command in _INPUT_COMMANDS:
            argv += ["--in", str(src)]
        out = tmp_path / f"o{len(outputs)}"
        if command in _PATH_COMMANDS:
            argv += ["--out", str(out)]
        code, stdout = run_cli(argv)
        assert code == 0
        outputs.append((stdout, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


def _cli_tree():
    return ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))


def test_cli_imports_no_numpy():
    modules = set()
    for node in ast.walk(_cli_tree()):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    assert "argparse" in modules and "numpy" not in modules


def test_system_args_leaves_the_state_components_to_the_library():
    # as_state is the only code that checks the components of an input state
    function = next(n for n in _cli_tree().body
                    if isinstance(n, ast.FunctionDef) and n.name == "_system_args")
    assert not [n for n in ast.walk(function) if isinstance(n, (ast.For, ast.comprehension))]
    assert "check_real" not in ast.unparse(function)
    # nor the logistic domain, which the preset carries to iterate_map
    assert "logistic" not in ast.unparse(function)


def test_system_args_leaves_the_dimension_to_the_library():
    # a preset's FloatKernel is the only check that a state fits the system
    function = next(n for n in _cli_tree().body
                    if isinstance(n, ast.FunctionDef) and n.name == "_system_args")
    assert not [n for n in ast.walk(function)
                if isinstance(n, ast.Attribute) and n.attr == "dimension"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--system", "lorenz", "--span", "0:1", "--x0", "1,2"],
     "field has dimension 3, got a state of dimension 2"),
    (["divergence", "--system", "chua", "--t1", "1", "--x0", "1,2,3,4"],
     "field has dimension 3, got a state of dimension 4"),
    (["iterate", "--system", "henon", "--steps", "5", "--x0", "1,2,3"],
     "map has dimension 2, got a state of dimension 3"),
    (["iterate", "--system", "logistic", "--steps", "5", "--x0", "0.2,0.3"],
     "map has dimension 1, got a state of dimension 2"),
])
def test_an_x0_of_another_dimension_exits_2_with_one_line(argv, message, tmp_path, run_cli,
                                                          capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(argv + ["--out", "o.csv"])
    assert code == 2
    assert capsys.readouterr().err == f"chaoscope {argv[0]}: {message}\n"
    assert list(tmp_path.iterdir()) == []
