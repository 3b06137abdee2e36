"""Count arguments: one check (errors.check_count) for every entry point, and
one cap check (errors.check_cap) for every size cap."""

import argparse
import ast
from pathlib import Path

import numpy as np
import pytest

import chaoscope as c
from chaoscope import cli, compression
from chaoscope.errors import DomainError, GridTooLarge, check_cap, check_count

SRC = Path(c.__file__).parent
KEY = c.ChaosKey(3.9, 0.3)
IMAGE = c.GrayImage.constant(16, 16, 100)
CODE = c.PifsCode(16, 16, 8, [(0, 0, 0, 32, 10)] * 4)


def _ifs_size(size, tmp_path):
    args = argparse.Namespace(preset="sierpinski", size=size, steps=1, out=str(tmp_path / "o.pgm"))
    cli._ifs(args)


#: (id, call with the count v, the least valid count)
COUNTS = [
    ("iterate_map-n", lambda v, _: c.iterate_map(c.preset("henon").map(None), [0.1, 0.0], v), 1),
    ("iterate_map-discard",
     lambda v, _: c.iterate_map(c.preset("henon").map(None), [0.1, 0.0], 5, v), 0),
    ("IntegratorConfig-max_steps", lambda v, _: c.IntegratorConfig(max_steps=v), 1),
    ("MapOrbit-discarded", lambda v, _: c.MapOrbit(points=[[0.0]], discarded=v), 0),
    ("cobweb_trace-n", lambda v, _: c.cobweb_trace(c.LogisticParams(3.9), 0.2, v), 1),
    ("bifurcation_scan-p_steps",
     lambda v, _: c.bifurcation_scan(3.0, 4.0, v, 0.3, 100, 1), 1),
    ("bifurcation_scan-discard",
     lambda v, _: c.bifurcation_scan(3.0, 4.0, 2, 0.3, v, 1), 100),
    ("bifurcation_scan-keep",
     lambda v, _: c.bifurcation_scan(3.0, 4.0, 2, 0.3, 100, v), 1),
    ("mandelbrot_grid-nmax",
     lambda v, _: c.mandelbrot_grid(c.ComplexWindow(-0.1, 0.1, -0.1, 0.1, 0.1), v), 1),
    ("ifs_iterate-n",
     lambda v, _: c.ifs_iterate(c.sierpinski_ifs(), c.BinaryImage.full(4, 4), v), 0),
    ("similarity_dimension-n_copies", lambda v, _: c.similarity_dimension(v, 0.5), 1),
    ("box_count_dimension-min_exponent",
     lambda v, _: c.box_count_dimension(c.BinaryImage.full(16, 16), v, 4), 1),
    ("box_count_dimension-max_exponent",
     lambda v, _: c.box_count_dimension(c.BinaryImage.full(16, 16), 2, v), 3),
    ("check_blocks-width", lambda v, _: compression._check_blocks(v, 16, 8), 0),
    ("check_blocks-height", lambda v, _: compression._check_blocks(16, v, 8), 0),
    ("check_blocks-range_size", lambda v, _: compression._check_blocks(16, 16, v), 1),
    ("pifs_encode-domain_step", lambda v, _: c.pifs_encode(IMAGE, 8, v), 1),
    ("pifs_decode-iterations", lambda v, _: c.pifs_decode(CODE, v), 1),
    ("ChaosKey-warmup", lambda v, _: c.ChaosKey(3.9, 0.3, v), 256),
    ("keystream-n", lambda v, _: c.keystream(KEY, v), 0),
    ("avalanche_test-n_bytes", lambda v, _: c.avalanche_test(KEY, v, 8), 1024),
    ("avalanche_test-trials", lambda v, _: c.avalanche_test(KEY, 1024, v), 8),
    ("cli-ifs-size", _ifs_size, 2),
]


@pytest.mark.parametrize("call, least", [case[1:] for case in COUNTS],
                         ids=[case[0] for case in COUNTS])
def test_a_non_integer_count_is_a_type_error(call, least, tmp_path):
    with pytest.raises(TypeError) as err:
        call(2.5, tmp_path)
    # raised by the count check on entry, not by numpy or range() later on
    assert err.traceback[-1].name == "check_count"


@pytest.mark.parametrize("call, least", [case[1:] for case in COUNTS],
                         ids=[case[0] for case in COUNTS])
def test_a_count_below_its_least_value_is_a_domain_error(call, least, tmp_path):
    with pytest.raises(DomainError, match=rf"must be at least {least}, got {least - 1}$"):
        call(least - 1, tmp_path)


def test_check_count_returns_a_python_int():
    value = check_count(np.int64(7), "n", 1)
    assert value == 7 and type(value) is int
    assert type(check_count(True, "n", 0)) is int
    with pytest.raises(TypeError):
        check_count("7", "n", 1)
    with pytest.raises(DomainError, match="^n must be at least 1, got 0$"):
        check_count(0, "n", 1)


def test_check_cap_names_the_amount_and_the_unit():
    check_cap(10, 10, "a 10-pixel grid", "pixel")
    with pytest.raises(GridTooLarge, match="^4x4 image = 16, over the 15-pixel cap$"):
        check_cap(16, 15, "4x4 image", "pixel")


def _violations(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "index"
                and isinstance(node.value, ast.Name) and node.value.id == "operator"):
            yield node.lineno, "operator.index"
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            yield node.lineno, "from operator import"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name == "GridTooLarge":
                yield node.lineno, "raise GridTooLarge"


def test_counts_and_caps_are_checked_only_in_errors_py():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{line}: {what}" for line, what in _violations(tree)]
    assert found == []
    # and the check itself sees both forms
    assert len(list(_violations(ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))))) == 2
