import numpy as np
import pytest

import chaoscope as c
from chaoscope.analysis import BifurcationDiagram
from chaoscope.errors import PgmFormatError
from chaoscope.formats import (
    read_pgm,
    write_bytes_atomic,
    write_pgm,
    write_rows_csv,
    write_trajectory_csv,
)
from chaoscope.integrate import IntegratorConfig, MapOrbit, Trajectory


def test_empty_diagram_writes_header_only(tmp_path):
    empty = BifurcationDiagram(
        points=np.empty((0, 2)), param_range=(0.0, 1.0), samples_per_param=1, discard=100
    )
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
    with pytest.raises(PgmFormatError):
        read_pgm(f)
    f.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(PgmFormatError):
        read_pgm(f)
    f.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(PgmFormatError):
        read_pgm(f)


def test_writers_leave_no_temp_files(tmp_path):
    out = tmp_path / "x.csv"
    write_rows_csv(out, ["a", "b"], [[1.0, 2.0]])
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


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
    with pytest.raises(PgmFormatError):
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
