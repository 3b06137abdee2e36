"""Nonlinear dynamics and fractal toolkit.

Chaotic flows and maps with an adaptive Runge-Kutta integrator, escape-time
and IFS fractals, fractal dimension estimation, a PIFS image codec, and a
logistic-map stream cipher.  See the ``cli`` module (or the ``chaoscope``
console script) for the file-emitting command-line interface.

The exported names below load their submodule on first use (PEP 562), so
``import chaoscope`` and each CLI command load only the code they run.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: Exported names by the submodule that defines them.
_EXPORTS = {
    "analysis": (
        "BifurcationDiagram",
        "CobwebTrace",
        "DivergenceReport",
        "Stability",
        "bifurcation_scan",
        "classify_linear",
        "cobweb_trace",
        "divergence_rate",
        "lorenz_equilibria",
        "verify_equilibrium",
    ),
    "cipher": ("ChaosKey", "avalanche_test", "decrypt", "encrypt", "keystream"),
    "compression": ("PifsCode", "pifs_decode", "pifs_encode", "psnr"),
    "formats": ("GrayImage",),
    "fractals": (
        "AffineMap2",
        "BinaryImage",
        "ComplexWindow",
        "EscapeGrid",
        "IfsSystem",
        "box_count_dimension",
        "ifs_iterate",
        "mandelbrot_grid",
        "sierpinski_ifs",
    ),
    "integrate": ("IntegratorConfig", "MapOrbit", "Trajectory", "integrate", "iterate_map"),
    # fractals.similarity_dimension too, without fractals' numpy
    "similarity": ("similarity_dimension",),
    "systems": (
        "ChuaParams",
        "HenonParams",
        "Linear1DParams",
        "LogisticParams",
        "LorenzParams",
        "PRESETS",
        "chua_g",
        "henon_step",
        "linear_solution",
        "logistic_step",
        "preset",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

#: Submodules that ``import chaoscope`` has always made attributes.
_SUBMODULES = ("analysis", "cipher", "compression", "fractals", "systems")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package, whose ``integrate`` is the function, loaded on first read."""

    @property
    def integrate(self):
        if "integrate" not in vars(self):
            vars(self)["integrate"] = importlib.import_module(f"{__name__}.integrate").integrate
        return vars(self)["integrate"]

    @integrate.setter
    def integrate(self, value):
        if value is not sys.modules.get(f"{__name__}.integrate"):  # the import system's binding
            vars(self)["integrate"] = value


sys.modules[__name__].__class__ = _Package
