"""CSV and PGM serialization shared by the CLI, the gray image it reads, and
_Raster, the base that casts and checks the array of every raster record.

All writers go through ``write_bytes_atomic`` (temp file in the destination
directory, then rename) and are byte-deterministic: every CSV value prints
with ``%.17g``, which round-trips IEEE doubles exactly, unless the writer
states its row format (a map orbit's iterate index prints with ``%d``, and a
bifurcation diagram repeats its parameter's ``%.17g`` text), and lines
always end with LF.  The writers import the result types they dispatch on,
and numpy, only when called, so loading this module loads no computation;
writing a trajectory, map orbit or divergence report loads no numpy either.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import DomainError, FormatError

if TYPE_CHECKING:
    import numpy as np

    from .analysis import BifurcationDiagram, CobwebTrace, DivergenceReport
    from .fractals import EscapeGrid
    from .integrate import MapOrbit, Trajectory

    Series = Union[Trajectory, MapOrbit, CobwebTrace, BifurcationDiagram]

#: Rows that write_rows_csv formats with one ``%`` operation and writes as
#: one chunk.
CSV_BLOCK_ROWS = 1024


class _Raster:
    """Base of a frozen dataclass that holds one non-empty 2-D array, in the
    field that _FIELD names, cast to _DTYPE.  An array of another shape
    raises _SHAPE_ERROR, and one whose values the cast would change raises
    _VALUE_ERROR; an array already of _DTYPE is kept as it is.
    """

    def __post_init__(self):
        import numpy as np

        given = np.asarray(getattr(self, self._FIELD))
        with np.errstate(invalid="ignore"):  # NaN and +-inf are refused below
            array = given.astype(self._DTYPE, copy=False)
        object.__setattr__(self, self._FIELD, array)
        if array.ndim != 2 or array.size == 0:
            raise DomainError(self._SHAPE_ERROR)
        if array is not given and not np.array_equal(array, given):
            raise DomainError(self._VALUE_ERROR)

    @property
    def width(self) -> int:
        return getattr(self, self._FIELD).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, self._FIELD).shape[0]


@dataclass(frozen=True)
class GrayImage(_Raster):
    """8-bit grayscale raster; pixels[0] is the top row."""

    _FIELD, _DTYPE = "pixels", "uint8"
    _SHAPE_ERROR = "pixels must be a non-empty 2-D uint8 array"
    _VALUE_ERROR = "pixels must be whole numbers in [0, 255]"
    pixels: np.ndarray

    @classmethod
    def constant(cls, width: int, height: int, value: int) -> "GrayImage":
        import numpy as np

        return cls(pixels=np.full((height, width), value))


def write_bytes_atomic(path, data: Union[bytes, Iterable[bytes]]) -> None:
    """Write data to path through a unique temp file in its directory and a rename.

    data is one bytes object or an iterable of byte chunks, written in order
    as they come.  The temp file is removed on any failure, a chunk that
    fails to arrive included, so a failed write leaves nothing behind; the
    result gets the usual ``0o666 & ~umask`` mode.
    """
    path = Path(path)
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_chunks(header: Sequence[str], rows: Iterable[Sequence],
                fmt: Optional[str] = None) -> Iterator[bytes]:
    width = len(header)
    fmt = fmt or ",".join(["%.17g"] * width) + "\n"
    yield (",".join(header) + "\n").encode("utf-8")
    rows = iter(rows)
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        if any(n != width for n in map(len, block)):
            raise TypeError(f"every CSV row needs {width} fields, one per header column")
        yield ((fmt * len(block)) % tuple(chain.from_iterable(block))).encode("utf-8")


def write_rows_csv(path, header: Sequence[str], rows: Iterable[Sequence],
                   fmt: Optional[str] = None) -> None:
    """Write a generic CSV whose values print with ``%.17g``.

    Every row has one field per header column, or TypeError is raised and
    no file is left.  fmt, when given, is the ``%`` format of one row and
    its newline, and replaces ``%.17g`` in every column; rows are formatted
    and written CSV_BLOCK_ROWS at a time, so the text is never held whole.
    """
    write_bytes_atomic(path, _csv_chunks(header, rows, fmt))


def write_trajectory_csv(series: Series, path) -> None:
    """Serialize a trajectory, orbit, trace, or diagram as CSV.

    Headers: ``t,x0,x1,...`` for trajectories, ``n,x0,...`` for map orbits
    (n is the absolute iterate index), ``x,y`` for traces and diagrams.
    Trajectories and orbits are written from their flat lists of floats,
    read row by row in place, so writing one that integrate or iterate_map
    made loads no numpy.
    """
    from .integrate import MapOrbit, Trajectory

    fmt = None  # "%.17g" in every column
    if isinstance(series, (Trajectory, MapOrbit)):
        # rows are read in place from the flat floats
        names = [f"x{i}" for i in range(series.dimension)]
        values = iter(series._flat())
        if isinstance(series, Trajectory):
            header, rows = ["t"] + names, zip(*[values] * (len(names) + 1))
        else:
            # the absolute iterate index prints as an integer
            header, fmt = ["n"] + names, "%d" + ",%.17g" * len(names) + "\n"
            rows = zip(count(series.discarded), *[values] * len(names))
    else:
        # only the commands that make these types load analysis
        from .analysis import BifurcationDiagram, CobwebTrace

        header = ["x", "y"]
        if isinstance(series, CobwebTrace):
            rows = zip(*series.vertices.T.tolist())
        elif isinstance(series, BifurcationDiagram):
            # each parameter is formatted once and its text repeated over its
            # row of samples; both columns stream, the samples a block at a
            # time in row order, so memory stays flat whatever the shape
            texts = map("%.17g".__mod__, series.params)
            fmt = "%s,%.17g\n"
            flat, keep = series.samples.flat, series.samples.shape[1]
            rows = zip(chain.from_iterable(map(repeat, texts, repeat(keep))),
                       chain.from_iterable(flat[k : k + CSV_BLOCK_ROWS].tolist()
                                           for k in range(0, len(flat), CSV_BLOCK_ROWS)))
        else:
            raise TypeError(f"cannot serialize {type(series).__name__} as series CSV")
    write_rows_csv(path, header, rows, fmt)


def write_divergence_csv(report: DivergenceReport, path) -> None:
    """Time / log-separation pairs with an x,y header, read in place from the
    report's flat list of floats."""
    values = iter(report._flat())
    write_rows_csv(path, ["x", "y"], zip(values, values))


def _escape_to_bytes(grid: EscapeGrid) -> np.ndarray:
    # one byte per count 1..max(counts), indexed by count - 1; the table
    # holds the float64 rint(255*(c-1)/(nmax-1)) of every count it covers
    import numpy as np

    counts = np.arange(1, int(grid.counts.max()) + 1, dtype=np.float64)
    if grid.nmax == 1:
        scaled = np.full_like(counts, 255.0)
    else:
        scaled = np.rint(255.0 * (counts - 1.0) / (grid.nmax - 1.0))
    return scaled.astype(np.uint8)[grid.counts - 1]


def write_pgm(raster: _Raster, path) -> None:
    """Write a binary PGM (P5, maxval 255); row 0 of the file is the top.

    Escape grids are scaled count -> round(255*(count-1)/(nmax-1)) and
    flipped so the largest imaginary part is on top; binary images are
    written as 0/255 with the same flip; gray images are already top-down.
    """
    import numpy as np

    if isinstance(raster, GrayImage):
        payload = raster.pixels
    else:
        # only the commands that make these types load fractals
        from .fractals import BinaryImage, EscapeGrid

        if isinstance(raster, EscapeGrid):
            payload = _escape_to_bytes(raster)[::-1]
        elif isinstance(raster, BinaryImage):
            payload = (raster.bits[::-1].astype(np.uint8)) * np.uint8(255)
        else:
            raise TypeError(f"cannot serialize {type(raster).__name__} as PGM")
    h, w = payload.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    write_bytes_atomic(path, header + np.ascontiguousarray(payload).tobytes())


def read_pgm(path) -> GrayImage:
    """Read a binary PGM with maxval 255 into a GrayImage.

    The grammar is libnetpbm's: ``P5`` as the first two bytes; width, height
    and maxval in ASCII decimal digits, each after any whitespace and comments
    (a ``#`` anywhere starts one, read as the CR or LF ending it: pm_getc);
    one whitespace byte, or that CR or LF; the raster.  The header is read in
    blocks, 64 KiB and then 16 times larger each time, then only the raster
    bytes they miss: bytes after the raster are read only within those
    blocks.  A header that runs past a block is matched again from its
    start, so the 16-fold growth keeps the bytes matched within about twice
    its length."""
    import numpy as np

    # on bytes \s is the six ASCII bytes of bytes.isspace
    header = re.compile(rb"P5" + rb"(?:\s+|#[^\r\n]*)*([^\s#]*)" * 3 + rb"(?:#[^\r\n]*)?").match
    with open(path, "rb", buffering=0) as fh:
        data = fh.read(1 << 16)
        if data[:2] != b"P5":
            raise FormatError("only binary PGM (P5) is supported")
        # a match that ends with the data may run on in the bytes not yet read
        while (match := header(data)).end() == len(data) and (more := fh.read(15 * len(data))):
            data += more
        numbers = []
        for text in match.groups():
            if not text.isdigit():  # ASCII 0-9 only; an empty group is the end of the data
                raise FormatError(f"malformed PGM header: {text!r} is not a decimal number"
                                  if text else "unexpected end of PGM header")
            try:
                numbers.append(int(text))
            except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
                raise FormatError(f"malformed PGM header: {exc}") from None
        width, height, maxval = numbers
        if width < 1 or height < 1:
            raise FormatError(f"PGM size {width}x{height} is not positive")
        if maxval != 255:
            raise FormatError(f"unsupported maxval {maxval} (need 255)")
        size, start = width * height, match.end() + 1
        payload = bytearray(data[start : start + size])
        # at most 16 MiB a read, so a size the file does not hold allocates nothing
        while len(payload) < size and (more := fh.read(min(size - len(payload), 1 << 24))):
            payload += more
    if len(payload) != size:
        raise FormatError("PGM payload is shorter than width*height")
    return GrayImage(pixels=np.frombuffer(payload, dtype=np.uint8).reshape(height, width))
