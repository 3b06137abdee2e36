import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoscope as c
from chaoscope import formats
from chaoscope.analysis import BifurcationDiagram
from chaoscope.errors import DomainError, FormatError
from chaoscope.formats import (
    CSV_BLOCK_ROWS,
    read_pgm,
    write_bytes_atomic,
    write_pgm,
    write_rows_csv,
    write_trajectory_csv,
)
from chaoscope.integrate import IntegratorConfig, MapOrbit, Trajectory

from conftest import row_csv_text, token_read_pgm


def test_empty_diagram_writes_header_only(tmp_path):
    empty = BifurcationDiagram(params=np.empty(0), samples=np.empty((0, 1)))
    out = tmp_path / "empty.csv"
    write_trajectory_csv(empty, out)
    assert out.read_bytes() == b"x,y\n"


def test_trajectory_csv_row_count(tmp_path):
    cfg = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)
    traj = c.integrate(c.preset("lorenz").field(None), [15, 20, 30], 0.0, 2.0, cfg)
    out = tmp_path / "lorenz.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2"
    assert len(lines) == len(traj.times) + 1  # header + every accepted step incl. t0


def test_trajectory_csv_roundtrips_doubles(tmp_path):
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0, 10, 40))
    times[0], times[-1] = 0.0, 10.0
    states = rng.standard_normal((40, 3)) * rng.uniform(1e-12, 1e12)
    traj = Trajectory(times=times, states=states)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    parsed_t = np.array([float(r[0]) for r in rows])
    parsed_x = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.array_equal(parsed_t, traj.times)
    assert np.array_equal(parsed_x, traj.states)


def test_map_orbit_csv_uses_absolute_index(tmp_path):
    orbit = MapOrbit(points=np.array([[0.5], [0.25]]), discarded=3)
    out = tmp_path / "orbit.csv"
    write_trajectory_csv(orbit, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,x0"
    assert lines[1].startswith("3,")
    assert lines[2].startswith("4,")


def test_cobweb_and_diagram_headers(tmp_path):
    trace = c.cobweb_trace(c.LogisticParams(3.5), 0.4, 3)
    out = tmp_path / "trace.csv"
    write_trajectory_csv(trace, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == len(trace.vertices) + 1


def test_gray_pgm_exact_bytes(tmp_path):
    img = c.GrayImage(pixels=np.array([[0, 255], [255, 0]], dtype=np.uint8))
    out = tmp_path / "tiny.pgm"
    write_pgm(img, out)
    data = out.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
    assert len(data) == 15


def test_escape_grid_pgm_all_interior(tmp_path):
    win = c.ComplexWindow(-0.5, 0.5, -0.5, 0.5, 0.25)
    grid = c.EscapeGrid(
        counts=np.full((win.ny, win.nx), 50, dtype=np.int32),
        nmax=50,
        threshold=4.0,
        window=win,
    )
    out = tmp_path / "interior.pgm"
    write_pgm(grid, out)
    payload = out.read_bytes().split(b"\n255\n", 1)[1]
    assert payload == b"\xff" * (win.nx * win.ny)


def test_escape_grid_pgm_orientation_and_scaling(tmp_path):
    win = c.ComplexWindow(0.0, 1.0, 0.0, 1.0, 0.5)  # 3x3 samples
    counts = np.array([[1, 1, 1], [5, 5, 5], [9, 9, 9]], dtype=np.int32)
    grid = c.EscapeGrid(counts=counts, nmax=9, threshold=4.0, window=win)
    out = tmp_path / "grad.pgm"
    write_pgm(grid, out)
    payload = out.read_bytes().split(b"\n255\n", 1)[1]
    rows = np.frombuffer(payload, np.uint8).reshape(3, 3)
    # top row of the file is the top of the window (largest imaginary part)
    assert list(rows[:, 0]) == [255, 128, 0]


@pytest.mark.parametrize(
    "nmax", [1, 2, 3, 30, 99, 100, 255, 256, 300, 1000, 65535, 10**6]
)
def test_escape_grid_pgm_matches_float64_scaling(tmp_path, nmax):
    # the per-count table must give the bytes of the float64 per-pixel
    # formula for every count 1..nmax
    win = c.ComplexWindow(0.0, 1.0, 0.0, 1.0, 0.5)
    width = 1000
    counts = np.resize(np.arange(1, nmax + 1, dtype=np.int32), (-(-nmax // width), width))
    grid = c.EscapeGrid(counts=counts, nmax=nmax, threshold=4.0, window=win)
    out = tmp_path / "scaled.pgm"
    write_pgm(grid, out)
    f = counts.astype(np.float64)
    if nmax == 1:
        expected = np.full_like(f, 255.0)
    else:
        expected = np.rint(255.0 * (f - 1.0) / (nmax - 1.0))
    payload = out.read_bytes().split(b"\n255\n", 1)[1]
    assert payload == expected.astype(np.uint8)[::-1].tobytes()


def test_binary_image_pgm(tmp_path):
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 0] = True  # y-ascending row 0 -> bottom of the image
    out = tmp_path / "bits.pgm"
    write_pgm(c.BinaryImage(bits=bits), out)
    payload = out.read_bytes().split(b"\n255\n", 1)[1]
    assert payload == bytes([0, 0, 0, 255, 0, 0])


_PIXEL_VALUES = r"^pixels must be whole numbers in \[0, 255\]$"
_PIXEL_SHAPE = r"^pixels must be a non-empty 2-D uint8 array$"


@pytest.mark.parametrize("make, message", [
    (lambda: c.GrayImage(pixels=np.array([[256, -1]])), _PIXEL_VALUES),
    (lambda: c.GrayImage(pixels=np.array([[0.5, 1.0, 254.9]])), _PIXEL_VALUES),
    (lambda: c.GrayImage(pixels=np.array([[np.nan, np.inf]])), _PIXEL_VALUES),
    (lambda: c.GrayImage(pixels=[[256]]), _PIXEL_VALUES),
    (lambda: c.GrayImage.constant(2, 2, 300), _PIXEL_VALUES),
    (lambda: c.GrayImage.constant(2, 2, 2.5), _PIXEL_VALUES),
    (lambda: c.GrayImage(pixels=np.empty((0, 3), dtype=np.uint8)), _PIXEL_SHAPE),
    (lambda: c.GrayImage.constant(0, 2, 7), _PIXEL_SHAPE),
    (lambda: c.GrayImage(pixels=[1, 2]), _PIXEL_SHAPE),
    (lambda: c.GrayImage(pixels=[[[300]]]), _PIXEL_SHAPE),  # the shape is tested first
], ids=["wrapping-ints", "fractions", "nan-inf", "list", "constant-300", "constant-2.5",
        "no-rows", "no-columns", "1-d", "3-d"])
def test_gray_image_refuses_values_its_cast_would_change(make, message):
    with pytest.raises(DomainError, match=message):
        make()


def test_gray_image_keeps_uint8_pixels_and_casts_exact_values():
    pixels = np.array([[0, 255]], dtype=np.uint8)
    assert c.GrayImage(pixels=pixels).pixels is pixels  # no pass over uint8 input
    cast = c.GrayImage(pixels=[[0.0, 255.0]]).pixels
    assert cast.dtype == np.uint8 and cast.tolist() == [[0, 255]]
    assert c.GrayImage.constant(3, 2, 44).pixels.tolist() == [[44] * 3] * 2


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    img = c.GrayImage(pixels=rng.integers(0, 256, size=(5, 9), dtype=np.uint8))
    out = tmp_path / "rt.pgm"
    write_pgm(img, out)
    back = read_pgm(out)
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_reader_handles_comments(tmp_path):
    f = tmp_path / "c.pgm"
    f.write_bytes(b"P5 # binary gray\n# a comment line\n2 1\n255\n\x07\x09")
    img = read_pgm(f)
    assert img.pixels.tolist() == [[7, 9]]


def test_pgm_reader_rejects_bad_input(tmp_path):
    f = tmp_path / "bad.pgm"
    f.write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(FormatError):
        read_pgm(f)
    f.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_pgm(f)
    f.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(f)


@pytest.mark.parametrize("header", [
    b"+2 1_0 255",  # int() read this as a 2x10 image
    b"2 10 2_55",
    b"2 10 +255",
    b"+0002 10 255",
    b"2 -10 255",
    b"2 \xd9\xa3 255",  # a non-ASCII digit
])
def test_pgm_reader_refuses_header_numbers_that_are_not_decimal_digits(tmp_path, header):
    f = tmp_path / "bad.pgm"
    f.write_bytes(b"P5\n" + header + b"\n" + bytes(20))
    with pytest.raises(FormatError,
                       match=r"^malformed PGM header: b'.*' is not a decimal number$"):
        read_pgm(f)


@pytest.mark.parametrize("header", [
    b"P5\n# c\r2 1\n255\n",  # a comment ends at a CR too
    b"P5\n2#c\n1 255\n",  # a comment may start right after a number
    b"P5\n2 1\n255#c\n",  # ... after maxval too, where its LF ends the header
])
def test_pgm_reader_follows_netpbms_comment_rule(tmp_path, header):
    # libnetpbm's pm_getc: a # anywhere in the header starts a comment, and
    # the CR or LF that ends it stands in its place
    f = tmp_path / "netpbm.pgm"
    f.write_bytes(header + b"\x07\x09")
    assert read_pgm(f).pixels.tolist() == [[7, 9]]


def test_pgm_reader_reads_decimal_header_numbers_with_leading_zeros(tmp_path):
    f = tmp_path / "zeros.pgm"
    f.write_bytes(b"P5\n002 #c\n01\n0255\n\x07\x09")
    assert read_pgm(f).pixels.tolist() == [[7, 9]]


@pytest.mark.parametrize("header", [
    b"1" * 5000 + b" 1 255",
    b"2 " + b"0" * 4400 + b"1 255",  # a zero-padded size past int()'s digit limit
    b"2 1 " + b"9" * 4301,
], ids=["width", "zero-padded-height", "maxval"])
def test_pgm_reader_refuses_header_numbers_of_too_many_digits(tmp_path, header):
    # int() raises a plain ValueError past sys.get_int_max_str_digits() digits
    f = tmp_path / "long.pgm"
    f.write_bytes(b"P5\n" + header + b"\n" + bytes(2))
    with pytest.raises(FormatError,
                       match=r"^malformed PGM header: Exceeds the limit \(4300 digits\)"):
        read_pgm(f)


_PGM_SPACE = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
                      min_size=1, max_size=3).map(b"".join)
# a comment runs to a CR or an LF, and may follow a token with no whitespace
_PGM_COMMENT = st.tuples(st.binary(max_size=8), st.sampled_from([b"\n", b"\r"])).map(
    lambda parts: b"#" + parts[0].replace(b"\n", b"").replace(b"\r", b"") + parts[1])
_PGM_SEPARATOR = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), min_size=1, max_size=3).map(
    b"".join)


@settings(max_examples=200, deadline=None)
@given(
    seps=st.tuples(_PGM_SEPARATOR, _PGM_SEPARATOR, _PGM_SEPARATOR),
    last=st.one_of(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]), _PGM_COMMENT),
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    zeros=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_pgm_reader_skips_any_whitespace_and_comments_between_fields(
    tmp_path_factory, seps, last, width, height, zeros, seed
):
    # exactly one whitespace byte ends the header, or the CR or LF of a
    # comment on maxval; the payload follows it
    pixels = np.random.default_rng(seed).integers(0, 256, size=(height, width), dtype=np.uint8)
    fields = [b"P5", b"%d" % width, b"%d" % height, b"0" * zeros + b"255"]
    header = b"".join(f + sep for f, sep in zip(fields, seps)) + fields[-1] + last
    f = tmp_path_factory.mktemp("pgm") / "spaced.pgm"
    f.write_bytes(header + pixels.tobytes())
    img = read_pgm(f)
    assert (img.width, img.height) == (width, height)
    assert np.array_equal(img.pixels, pixels)


@pytest.mark.parametrize("data, message", [
    (b"P5\n2 1\n# a comment to the end", r"^unexpected end of PGM header$"),
    (b" # nothing but a comment", r"^only binary PGM \(P5\) is supported$"),
], ids=["in-the-numbers", "before-the-magic"])
def test_pgm_reader_refuses_a_comment_that_runs_to_the_end(tmp_path, data, message):
    f = tmp_path / "bad.pgm"
    f.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_pgm(f)


@pytest.mark.parametrize("lead", [b" ", b"\n", b"# c\n", b" # c\n"],
                         ids=["space", "newline", "comment", "space-comment"])
def test_pgm_reader_reads_the_magic_as_the_first_two_bytes(tmp_path, lead):
    # as libnetpbm's pm_readmagicnumber does: nothing may come before P5
    f = tmp_path / "lead.pgm"
    f.write_bytes(lead + b"P5 2 1 255\n\x07\x09")
    with pytest.raises(FormatError, match=r"^only binary PGM \(P5\) is supported$"):
        read_pgm(f)
    f.write_bytes(b"P5 2 1 255\n\x07\x09")
    assert read_pgm(f).pixels.tolist() == [[7, 9]]


#: Runs of whitespace or comment bytes that end at, or straddle, the end of
#: read_pgm's first 64 KiB read and of its first doubling.
_PGM_LONG_RUNS = st.tuples(st.sampled_from([b" ", b"\n", b"#", b"c"]),
                           st.sampled_from([1 << 16, 1 << 17]), st.integers(-12, 12)).map(
    lambda run: run[0] * (run[1] + run[2]))
_PGM_PIECES = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"#c\n", b"# c\r", b"1",
                     b"2", b"3", b"255", b"0", b"+", b"-", b"_", b"\xd9\xa3", b"x"]),
    st.binary(max_size=3),
    st.sampled_from([b"9" * 4301, b"1" * 5000, b"0" * 4400 + b"1"]),
    _PGM_LONG_RUNS,
)
_PGM_SEP = st.lists(st.sampled_from([b" ", b"\n", b"\r", b"\t", b"#c\n", b"#\r", b"# x", b""]),
                    max_size=3).map(b"".join) | _PGM_LONG_RUNS.map(lambda run: b"#" + run + b"\n")
_PGM_NUMBER = st.integers(0, 4).map(b"%d".__mod__) | st.sampled_from(
    [b"", b"x", b"+2", b"2_0", b"02", b"1" * 5000])
#: Headers built from fragments, and near-valid ones: the field order kept,
#: with numbers, separators and the byte after maxval drawn from valid and
#: invalid choices.
_PGM_HEADERS = st.one_of(
    st.lists(_PGM_PIECES, max_size=10).map(lambda pieces: b"P5" + b"".join(pieces)),
    st.tuples(st.sampled_from([b"P5", b"P5", b"P2", b" P5", b"P"]), _PGM_SEP, _PGM_NUMBER,
              _PGM_SEP, _PGM_NUMBER, _PGM_SEP,
              st.sampled_from([b"255", b"0255", b"256", b"25", b"9" * 4301]),
              st.sampled_from([b" ", b"\n", b"#c\n", b"#c\r", b"#c", b""])).map(b"".join),
)


def _outcome(reader, path):
    try:
        return reader(path).pixels.tolist()
    except FormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(header=_PGM_HEADERS, payload=st.binary(max_size=40))
def test_read_pgm_matches_the_token_reader(tmp_path_factory, header, payload):
    # one header pattern, read in blocks, gives the image, or the refusal and
    # its text, of the token reader that read the whole file
    f = tmp_path_factory.mktemp("pgm") / "any.pgm"
    f.write_bytes(header + payload)
    assert _outcome(read_pgm, f) == _outcome(token_read_pgm, f)


@pytest.mark.parametrize("length", [(1 << 16) - 9, (1 << 16) - 8, 1 << 16, 3 << 16, 1 << 20])
def test_pgm_reader_reads_a_header_longer_than_the_first_read(tmp_path, length):
    # the first 64 KiB read ends in the whitespace before maxval, or in the
    # height; a comment runs past it, or past several doublings of it
    f = tmp_path / "long.pgm"
    f.write_bytes(b"P5\n#" + b"c" * length + b"\n2 1\n255\n\x07\x09")
    assert read_pgm(f).pixels.tolist() == [[7, 9]]


def test_pgm_reader_refuses_a_size_the_file_does_not_hold_without_allocating_it(tmp_path):
    # a 10**18-byte raster: one read of the size the header claims would
    # raise MemoryError, not the refusal
    f = tmp_path / "huge.pgm"
    f.write_bytes(b"P5\n1000000000 1000000000\n255\n\x07\x09")
    with pytest.raises(FormatError, match=r"^PGM payload is shorter than width\*height$"):
        read_pgm(f)


class _CountingFile:
    """A file whose reads are summed in ``read_bytes``."""

    read_bytes = 0

    def __init__(self, *args, **kwargs):
        self._file = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def read(self, size):
        data = self._file.read(size)
        _CountingFile.read_bytes += len(data)
        return data


@pytest.mark.parametrize("header, size, tail", [
    (b"P5\n2 1\n255\n", 2, 1 << 20),  # the first read holds the raster
    (b"P5\n400 300\n255\n", 120_000, 1 << 20),  # then the raster bytes it misses
    (b"P5\n#" + b"c" * 100_000 + b"\n2 1\n255\n", 2, 1 << 20),  # a header that runs on
], ids=["small", "large", "long-header"])
def test_pgm_reader_reads_no_byte_past_the_raster_beyond_its_header_blocks(
        tmp_path, monkeypatch, header, size, tail):
    f = tmp_path / "tail.pgm"
    f.write_bytes(header + bytes(size) + b"\xff" * tail)
    monkeypatch.setattr(formats, "open", _CountingFile, raising=False)
    monkeypatch.setattr(_CountingFile, "read_bytes", 0)
    assert read_pgm(f).pixels.sum() == 0
    # 64 KiB, doubled while the header runs on; then the raster's last byte
    blocks = 1 << 16
    while blocks <= len(header):
        blocks *= 2
    assert _CountingFile.read_bytes == max(blocks, len(header) + size)


_MAXRSS = ("import resource, sys\n"
           "from chaoscope.formats import read_pgm\n"
           "assert read_pgm(sys.argv[1]).pixels.tolist() == [[7, 9]]\n"
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def test_pgm_reader_memory_does_not_grow_with_bytes_after_the_raster(tmp_path):
    # a sparse tail takes no disk; a reader of the whole file would hold it
    plain, padded = tmp_path / "plain.pgm", tmp_path / "padded.pgm"
    for f in (plain, padded):
        f.write_bytes(b"P5\n2 1\n255\n\x07\x09")
    os.truncate(padded, 256 << 20)
    env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
    peak_kib = [int(subprocess.run([sys.executable, "-c", _MAXRSS, str(f)], env=env,
                                   capture_output=True, text=True, check=True).stdout)
                for f in (plain, padded)]
    assert peak_kib[1] - peak_kib[0] < 5 * 1024


@pytest.mark.parametrize("write, record, message", [
    (write_trajectory_csv, c.GrayImage.constant(2, 1, 0), "GrayImage as series CSV"),
    (write_trajectory_csv, [[0.0, 1.0]], "list as series CSV"),
    (write_pgm, MapOrbit(points=np.array([[0.5]]), discarded=0), "MapOrbit as PGM"),
    (write_pgm, np.zeros((2, 2), dtype=np.uint8), "ndarray as PGM"),
], ids=["csv-image", "csv-list", "pgm-orbit", "pgm-array"])
def test_writers_refuse_a_record_they_cannot_serialize_and_leave_no_file(
        tmp_path, write, record, message):
    with pytest.raises(TypeError, match=f"^cannot serialize {message}$"):
        write(record, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_writers_leave_no_temp_files(tmp_path):
    out = tmp_path / "x.csv"
    write_rows_csv(out, ["a", "b"], [[1.0, 2.0]])
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_csv_values_print_with_17_significant_digits_by_default(tmp_path):
    # an int is a value like any other: no column takes a format from its type
    out = tmp_path / "v.csv"
    write_rows_csv(out, ["a", "b", "c"], [[7, 2**62, 0.5], [-3, 2**53 + 1, 1]])
    assert out.read_text() == "a,b,c\n7,4.6116860184273879e+18,0.5\n-3,9007199254740992,1\n"


def test_csv_refuses_rows_wider_than_the_header_and_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_rows_csv(tmp_path / "rows.csv", ["a", "b"], [[1.0, 2.0, 3.0]] * 3)
    assert list(tmp_path.iterdir()) == []


def test_csv_17_digit_roundtrip_format(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004
    out = tmp_path / "v.csv"
    write_rows_csv(out, ["x"], [[value]])
    text = out.read_text().splitlines()[1]
    assert float(text) == value
    assert text == "0.30000000000000004"


@pytest.mark.parametrize("size", [b"-1 -1", b"0 3", b"3 0"])
def test_pgm_reader_rejects_non_positive_size(tmp_path, size):
    f = tmp_path / "bad.pgm"
    f.write_bytes(b"P5\n" + size + b"\n255\n\x00")
    with pytest.raises(FormatError):
        read_pgm(f)


def test_atomic_write_cleans_up_and_keeps_the_umask_mode(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write_bytes_atomic(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    reference = tmp_path / "ref"
    reference.write_bytes(b"")
    out = tmp_path / "out"
    write_bytes_atomic(out, b"data")
    assert out.read_bytes() == b"data"
    assert out.stat().st_mode == reference.stat().st_mode


# The block writer against the line-list writer it replaced (conftest's
# row_csv_text): the same bytes for int, float and str columns, at and around
# the block size, with the row format each kind states.  A str column carries
# the "%.17g" text of floats, so its expected bytes are the oracle's on those
# floats.

BLOCK = CSV_BLOCK_ROWS
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
            1.7976931348623157e308, 0.1 + 0.2]


def _random_column(kind, n, rng):
    if kind == "int":
        return [int(v) for v in rng.integers(-(2**62), 2**62, n)]
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64).tolist()
    for i in rng.integers(0, max(n, 1), min(n, 12)).tolist():
        values[i] = _SPECIAL[i % len(_SPECIAL)]
    return values


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=4),
    n=st.one_of(st.integers(0, 40), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_csv_matches_the_line_writer(tmp_path_factory, kinds, n, seed):
    rng = np.random.default_rng(seed)
    columns = [_random_column(k, n, rng) for k in kinds]
    shown = [["%.17g" % v for v in col] if k == "str" else col for k, col in zip(kinds, columns)]
    header = [f"c{i}" for i in range(len(kinds))]
    fmt = ",".join({"int": "%d", "str": "%s", "float": "%.17g"}[k] for k in kinds) + "\n"
    out = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_rows_csv(out, header, zip(*shown), fmt)
    assert out.read_bytes() == row_csv_text(header, zip(*columns)).encode("utf-8")


@pytest.mark.parametrize(
    "bad",
    [
        {5: 1},  # a short row in the first block
        {BLOCK + 5: 3},  # a long row in a later block
        {BLOCK + 2: 1, BLOCK + 3: 3},  # both in one block: the field count adds up
    ],
)
def test_block_csv_refuses_a_row_of_another_length(tmp_path, bad):
    rows = [[float(i), -float(i)] for i in range(2 * BLOCK + 7)]
    for i, width in bad.items():
        rows[i] = rows[i][:1] if width == 1 else rows[i] + [7.0]
    with pytest.raises(TypeError, match=r"^every CSV row needs 2 fields, one per header column$"):
        write_rows_csv(tmp_path / "rows.csv", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []


def test_a_failing_row_source_leaves_no_file_and_no_temp(tmp_path):
    def rows():
        for i in range(3 * BLOCK):
            yield [i, 0.5 * i]
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_rows_csv(tmp_path / "rows.csv", ["n", "x"], rows())

    def chunks():
        yield b"partial"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        write_bytes_atomic(tmp_path / "out.bin", chunks())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_takes_byte_chunks(tmp_path):
    out = tmp_path / "out.bin"
    write_bytes_atomic(out, iter([b"ab", bytearray(b"cd"), memoryview(b"ef")]))
    assert out.read_bytes() == b"abcdef"


def _series_rows(series):
    """The per-row lists the series writer built before it went by columns."""
    if isinstance(series, Trajectory):
        return ([t] + s.tolist() for t, s in zip(series.times.tolist(), series.states))
    if isinstance(series, MapOrbit):
        return ([series.discarded + k] + p.tolist() for k, p in enumerate(series.points))
    if isinstance(series, c.CobwebTrace):
        return (v.tolist() for v in series.vertices)
    return ([p, x] for p, row in zip(series.params.tolist(), series.samples.tolist())
            for x in row)


@pytest.mark.parametrize(
    "make",
    [
        lambda: c.integrate(c.preset("lorenz").field(None), [15, 20, 30], 0.0, 2.0,
                            IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4)),
        lambda: c.iterate_map(c.preset("henon").map(None), [0.1, 0.1], BLOCK + 50, 7),
        lambda: c.cobweb_trace(c.LogisticParams(3.8282), 0.2, 50),
        lambda: c.bifurcation_scan(2.8, 4.0, 30, 0.3, 100, 70),
        # parameters that differ only in sign, or are NaN or subnormal, with
        # rows of BLOCK - 1 samples, so that each row after the first crosses
        # a block boundary
        lambda: BifurcationDiagram(
            params=[-0.0, 0.0, math.nan, 5e-324],
            samples=np.arange(4.0 * (BLOCK - 1)).reshape(4, BLOCK - 1) * -0.5,
        ),
    ],
)
def test_series_csv_matches_the_row_writer(tmp_path, make):
    series = make()
    out = tmp_path / "series.csv"
    write_trajectory_csv(series, out)
    header = out.read_text().split("\n", 1)[0].split(",")
    assert out.read_bytes() == row_csv_text(header, _series_rows(series)).encode("utf-8")


def test_bench_size_diagram_writes_in_bounded_memory(tmp_path):
    # 1000 parameters x 100 kept iterates: a 3.9 MB CSV, which the line-list
    # writer held about three times over (16.4 MiB peak)
    diagram = c.bifurcation_scan(2.8, 4.0, 1000, 0.3, 500, 100)
    out = tmp_path / "bif.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(diagram, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 3_500_000
    assert peak < 1 * 2**20


@pytest.mark.parametrize("p_steps, keep", [(100_000, 1), (1, 100_000)])
def test_a_diagram_of_any_shape_writes_in_bounded_memory(tmp_path, p_steps, keep):
    # neither column is held whole as Python objects: 100k parameters as
    # floats and texts take about 10 MB, and one row of 100k samples 3.2 MB
    samples = np.random.default_rng(5).random((p_steps, keep))
    diagram = BifurcationDiagram(params=np.linspace(2.8, 4.0, p_steps), samples=samples)
    out = tmp_path / "bif.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(diagram, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes().count(b"\n") == p_steps * keep + 1
    assert peak < 1 * 2**20
