"""Nonlinear dynamics and fractal toolkit.

Chaotic flows and maps with an adaptive Runge-Kutta integrator, escape-time
and IFS fractals, fractal dimension estimation, a PIFS image codec, and a
logistic-map stream cipher.  See the ``cli`` module (or the ``chaoscope``
console script) for the file-emitting command-line interface.
"""

from .analysis import (
    BifurcationDiagram,
    CobwebTrace,
    DivergenceReport,
    Stability,
    bifurcation_scan,
    classify_linear,
    cobweb_trace,
    divergence_rate,
    lorenz_equilibria,
    verify_equilibrium,
)
from .cipher import ChaosKey, avalanche_test, decrypt, encrypt, keystream
from .compression import (
    GrayImage,
    PifsCode,
    pifs_decode,
    pifs_encode,
    psnr,
)
from .fractals import (
    AffineMap2,
    BinaryImage,
    ComplexWindow,
    EscapeGrid,
    IfsSystem,
    box_count_dimension,
    ifs_iterate,
    mandelbrot_grid,
    sierpinski_ifs,
    similarity_dimension,
)
from .integrate import (
    IntegratorConfig,
    MapOrbit,
    Trajectory,
    integrate,
    iterate_map,
)
from .systems import (
    ChuaParams,
    HenonParams,
    Linear1DParams,
    LogisticParams,
    LorenzParams,
    PRESETS,
    chua_field,
    chua_g,
    chua_paper_code_field,
    henon_step,
    linear_solution,
    logistic_step,
    lorenz_field,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap2",
    "BifurcationDiagram",
    "BinaryImage",
    "ChaosKey",
    "ChuaParams",
    "CobwebTrace",
    "ComplexWindow",
    "DivergenceReport",
    "EscapeGrid",
    "GrayImage",
    "HenonParams",
    "IfsSystem",
    "IntegratorConfig",
    "Linear1DParams",
    "LogisticParams",
    "LorenzParams",
    "MapOrbit",
    "PRESETS",
    "PifsCode",
    "Stability",
    "Trajectory",
    "avalanche_test",
    "bifurcation_scan",
    "box_count_dimension",
    "chua_field",
    "chua_g",
    "chua_paper_code_field",
    "classify_linear",
    "cobweb_trace",
    "decrypt",
    "divergence_rate",
    "encrypt",
    "henon_step",
    "ifs_iterate",
    "integrate",
    "iterate_map",
    "keystream",
    "linear_solution",
    "logistic_step",
    "lorenz_equilibria",
    "lorenz_field",
    "mandelbrot_grid",
    "pifs_decode",
    "pifs_encode",
    "preset",
    "psnr",
    "sierpinski_ifs",
    "similarity_dimension",
    "verify_equilibrium",
]
