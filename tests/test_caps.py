"""The size caps: the README's cap table against the module constants, and
numpy integer counts, which must meet the caps as Python ints do."""

import importlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import chaoscope as c
from chaoscope.errors import GridTooLarge

README = Path(__file__).parents[1] / "README.md"

#: The constant of each row with a "counts as at least N" floor, and the
#: constant that holds N.
FLOORS = {
    "fractals.MAX_ESCAPE_ITERATES": "fractals._MIN_ESCAPE_PIXELS",
    "fractals.MAX_IFS_PIXEL_STEPS": "fractals._MIN_IFS_PIXELS",
    "analysis.MAX_SCAN_ITERATES": "analysis._MIN_LANES",
    "compression.MAX_DECODE_PIXEL_PASSES": "compression._MIN_DECODE_PIXELS",
}


def _constant(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"chaoscope.{module}"), name)


def _cap_rows():
    """The cells of each body row of the README's cap table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command and flags |"))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _number(text: str) -> int:
    return int(text.replace(",", ""))


def test_readme_cap_table_matches_the_constants():
    rows = _cap_rows()
    named = []
    for flags, limit, _, measured in rows:
        constant = re.search(r"\(`(\w+\.\w+)`\)", limit).group(1)
        named.append(constant)
        assert _number(re.match(r"[\d,]+", limit).group()) == _constant(constant), flags
        floor = re.search(r"counts as at least ([\d,]+)", measured)
        if constant in FLOORS:
            assert _number(floor.group(1)) == _constant(FLOORS[constant]), flags
        else:
            assert floor is None, flags
    assert set(named) == {
        "analysis.MAX_SCAN_ITERATES", "analysis.MAX_SCAN_ROWS",
        "cipher.MAX_AVALANCHE_BYTES", "cipher.MAX_AVALANCHE_TRIALS", "cipher.MAX_WARMUP",
        "cli.IFS_MAX_SIZE", "compression.MAX_DECODE_PIXEL_PASSES", "compression.MAX_PIXELS",
        "fractals.DEFAULT_MAX_PIXELS",
        "fractals.MAX_ESCAPE_ITERATES", "fractals.MAX_IFS_PIXEL_STEPS",
        "integrate.MAX_ORBIT_VALUES",
    }


BIG = np.int64(2**62)
TINY = c.ComplexWindow(-0.1, 0.1, -0.1, 0.1, 0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: c.mandelbrot_grid(TINY, BIG),
        lambda: c.ifs_iterate(c.sierpinski_ifs(), c.BinaryImage.full(4, 4), BIG),
        lambda: c.bifurcation_scan(3.0, 4.0, BIG, 0.3, 100, 1),
        lambda: c.bifurcation_scan(3.0, 4.0, 2, 0.3, BIG, 1),
        lambda: c.bifurcation_scan(3.0, 4.0, 2, 0.3, 100, BIG),
        lambda: c.iterate_map(c.preset("henon").map(None), [0.1, 0.0], BIG),
        lambda: c.cobweb_trace(c.LogisticParams(3.9), 0.2, BIG),
        lambda: c.avalanche_test(c.ChaosKey(3.9, 0.3), BIG, 8),
        lambda: c.avalanche_test(c.ChaosKey(3.9, 0.3), 1024, BIG),
        lambda: c.PifsCode(BIG, BIG, 8, np.empty((0, 5), dtype=np.int64)),
        lambda: c.pifs_decode(c.PifsCode(16, 16, 8, [(0, 0, 0, 32, 10)] * 4), BIG),
        lambda: c.integrate(c.preset("lorenz").field(None), [1.0, 1.0, 1.0], 0.0, 1.0,
                            c.IntegratorConfig(max_steps=BIG)),
    ],
    ids=["mandelbrot-nmax", "ifs-n", "bifurcation-p_steps", "bifurcation-discard",
         "bifurcation-keep", "iterate-n", "cobweb-n", "avalanche-bytes",
         "avalanche-trials", "pifs-width-height", "decode-iterations", "integrate-max_steps"],
)
def test_numpy_integer_counts_meet_the_caps(call):
    # a numpy product would overflow, warn and pass the check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridTooLarge):
            call()


def _never_called(t, y):
    raise AssertionError("the cap is checked before the field is called")


def test_integrate_caps_the_kept_steps_before_calling_the_field():
    cap = _constant("integrate.MAX_ORBIT_VALUES")
    # max_steps + 1 kept steps of dimension + 1 values each
    at_cap = c.IntegratorConfig(max_steps=cap // 4 - 1)
    assert len(c.integrate(c.preset("lorenz").field(None), [1.0, 1.0, 1.0], 0.0, 1.0, at_cap).times)
    with pytest.raises(GridTooLarge, match="2500001 steps x 4 values"):
        c.integrate(_never_called, [1.0, 1.0, 1.0], 0.0, 1.0, c.IntegratorConfig(max_steps=cap // 4))
    # the default budget, resolved per dimension, keeps 1,000,000 attempts
    # for every flow preset, and its kept steps fit the cap at every width
    # that fits one kept step, up to 2 x 5,000,000 values
    budget = _constant("integrate._step_budget")
    flows = [p for p in _constant("systems.PRESETS").values() if p.kind == "flow"]
    assert flows and all(budget(p.dimension) == 1_000_000 for p in flows)
    for dim in [*range(1, 200), 10**3, 10**4, 10**5, 10**6, cap // 2 - 1]:
        assert (budget(dim) + 1) * (dim + 1) <= cap, dim
