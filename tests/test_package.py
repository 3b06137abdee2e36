"""The package's public surface, and the modules each CLI command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaoscope
from chaoscope.cli import main

from test_acceptance import _determinism_cases

SRC = str(Path(chaoscope.__file__).parents[1])

#: Every exported name by the module whose attribute it is.
EXPORTS = {
    "analysis": ["BifurcationDiagram", "CobwebTrace", "DivergenceReport", "Stability",
                 "bifurcation_scan", "classify_linear", "cobweb_trace", "divergence_rate",
                 "lorenz_equilibria", "verify_equilibrium"],
    "cipher": ["ChaosKey", "avalanche_test", "decrypt", "encrypt", "keystream"],
    "compression": ["GrayImage", "PifsCode", "pifs_decode", "pifs_encode", "psnr"],
    "formats": ["GrayImage"],
    "fractals": ["AffineMap2", "BinaryImage", "ComplexWindow", "EscapeGrid", "IfsSystem",
                 "box_count_dimension", "ifs_iterate", "mandelbrot_grid", "sierpinski_ifs",
                 "similarity_dimension"],
    "integrate": ["IntegratorConfig", "MapOrbit", "Trajectory", "integrate", "iterate_map"],
    "similarity": ["similarity_dimension"],
    "systems": ["ChuaParams", "HenonParams", "Linear1DParams", "LogisticParams",
                "LorenzParams", "PRESETS", "chua_g", "henon_step", "linear_solution",
                "logistic_step", "preset"],
}

ALL = [
    "AffineMap2", "BifurcationDiagram", "BinaryImage", "ChaosKey", "ChuaParams",
    "CobwebTrace", "ComplexWindow", "DivergenceReport", "EscapeGrid", "GrayImage",
    "HenonParams", "IfsSystem", "IntegratorConfig", "Linear1DParams", "LogisticParams",
    "LorenzParams", "MapOrbit", "PRESETS", "PifsCode", "Stability", "Trajectory",
    "avalanche_test", "bifurcation_scan", "box_count_dimension", "chua_g", "classify_linear",
    "cobweb_trace", "decrypt", "divergence_rate", "encrypt", "henon_step", "ifs_iterate",
    "integrate", "iterate_map", "keystream", "linear_solution", "logistic_step",
    "lorenz_equilibria", "mandelbrot_grid", "pifs_decode", "pifs_encode", "preset", "psnr", "sierpinski_ifs",
    "similarity_dimension", "verify_equilibrium",
]

#: Modules every command loads.
BASE = {"chaoscope", "chaoscope.cli", "chaoscope.errors"}

#: The further chaoscope modules each command loads, and no others.
LOADS = {
    "simulate": {"formats", "integrate", "records", "systems"},
    "iterate": {"formats", "integrate", "records", "systems"},
    "cobweb": {"analysis", "formats", "integrate", "records", "systems"},
    "bifurcate": {"analysis", "formats", "integrate", "records", "systems"},
    "divergence": {"analysis", "formats", "integrate", "records", "systems"},
    "equilibria": {"analysis", "formats", "integrate", "records", "systems"},
    "mandelbrot": {"formats", "fractals", "records"},
    "ifs": {"formats", "fractals", "records"},
    "boxdim": {"formats", "fractals", "integrate", "records"},
    "simdim": {"similarity"},
    "compress": {"compression", "formats", "records"},
    "decompress": {"compression", "formats", "records"},
    "encrypt": {"cipher", "formats", "records"},
    "decrypt": {"cipher", "formats", "records"},
    "avalanche": {"cipher", "records"},
}

#: The commands that run without numpy; every other command loads it.
NUMPY_FREE = {"simulate", "iterate", "divergence", "simdim"}

_LOADED = (
    "import contextlib, io, sys\n"
    "from chaoscope.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "assert code == 0, code\n"
    "names = sorted(m for m in sys.modules if m.split('.')[0] == 'chaoscope')\n"
    "names += [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules]\n"
    "print(' '.join(names))\n"
)


def _child(*args):
    """Run python with chaoscope importable; return its stdout."""
    child = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_every_exported_name_resolves_once():
    names = chaoscope.__all__
    assert sorted(set(names)) == sorted(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(chaoscope, n)] == []


def test_all_is_unchanged():
    assert chaoscope.__all__ == ALL
    assert sorted({n for names in EXPORTS.values() for n in names}) == ALL


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_modules_attribute(module):
    home = importlib.import_module(f"chaoscope.{module}")
    for name in EXPORTS[module]:
        assert getattr(chaoscope, name) is getattr(home, name), name


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from chaoscope import *", namespace)
    assert {n: namespace[n] for n in ALL} == {n: getattr(chaoscope, n) for n in ALL}
    assert set(ALL) <= set(dir(chaoscope))
    assert "__version__" in dir(chaoscope)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        chaoscope.nosuch  # noqa: B018


def test_integrate_stays_the_function(monkeypatch):
    # in fresh interpreters: read after the package import, after a command
    # that runs the integrator and after an explicit import of the submodule;
    # and read first after the submodule import, which binds it on the package
    out = _child("-c", (
        "import sys, tempfile, os\n"
        "import chaoscope\n"
        "assert 'chaoscope.integrate' not in sys.modules\n"
        "f = chaoscope.integrate\n"
        "assert callable(f) and f.__module__ == 'chaoscope.integrate', f\n"
        "assert {'chaoscope.analysis', 'chaoscope.fractals'}.isdisjoint(sys.modules)\n"
        "from chaoscope.cli import main\n"
        "out = os.path.join(tempfile.mkdtemp(), 'o.csv')\n"
        "assert main(['simulate', '--system', 'linear1d', '--span', '0:1', '--out', out]) == 0\n"
        "assert chaoscope.integrate is f\n"
        "import chaoscope.integrate\n"
        "assert chaoscope.integrate is f\n"
        "assert sys.modules['chaoscope.integrate'].integrate is f\n"
        "print('ok')\n"
    ))
    assert out == "ok\n"
    out = _child("-c", (
        "import sys\n"
        "import chaoscope.integrate\n"
        "f = sys.modules['chaoscope.integrate'].integrate\n"
        "assert chaoscope.integrate is f, chaoscope.integrate\n"
        "from chaoscope import integrate\n"
        "assert integrate is f\n"
        "print('ok')\n"
    ))
    assert out == "ok\n"
    # any other value is kept, and undoing the patch restores the function
    f = chaoscope.integrate
    fake = object()
    monkeypatch.setattr(chaoscope, "integrate", fake)
    assert chaoscope.integrate is fake
    monkeypatch.undo()
    assert chaoscope.integrate is f is importlib.import_module("chaoscope.integrate").integrate


def test_submodules_resolve_as_attributes():
    out = _child("-c", (
        "import chaoscope\n"
        "print(chaoscope.analysis.__name__, chaoscope.cipher.__name__, "
        "chaoscope.compression.__name__, chaoscope.fractals.__name__, "
        "chaoscope.systems.__name__)\n"
    ))
    assert out.split() == [f"chaoscope.{m}" for m in
                           ("analysis", "cipher", "compression", "fractals", "systems")]


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """The CLI tour's commands by name, with the inputs they read written."""
    root = tmp_path_factory.mktemp("tour")
    cases, ifs_pgm, fic, chx, secret = _determinism_cases(root)
    for argv in (["ifs", "--size", "128", "--steps", "4", "--out", str(ifs_pgm)],
                 ["compress", "--in", str(root / "in_ramp.pgm"), "--out", str(fic)],
                 ["encrypt", "--in", str(secret), "--key", "3.9,0.3", "--out", str(chx)]):
        assert main(argv) == 0
    return {name: list(argv) + (["--out", outs[0]] if outs else [])
            for name, argv, outs in cases}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_its_modules(command, tour):
    # no command loads dataclasses, and a command without numpy (which
    # imports inspect) loads no inspect either
    loaded = set(_child("-c", _LOADED, *tour[command]).split())
    numpy = set() if command in NUMPY_FREE else {"inspect", "numpy"}
    assert loaded == BASE | {f"chaoscope.{m}" for m in LOADS[command]} | numpy


def test_importing_the_package_loads_no_numpy():
    out = _child("-c", "import sys, chaoscope; print(' '.join(sorted(sys.modules)))")
    loaded = set(out.split())
    assert not any(m == "numpy" or m.startswith("numpy.") for m in loaded)
    assert "chaoscope.integrate" not in loaded
    assert {m for m in loaded if m.startswith("chaoscope")} == {"chaoscope"}
