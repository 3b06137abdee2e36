"""Fuzz the three input-file parsers: PGM, FIC1 and CHX1.

On arbitrary bytes, on headers built from arbitrary field values, and on
byte-level mutations of a valid file, each parser must either return or
raise FormatError, within Hypothesis's default deadline: no other exception
type, no hang.
"""

import struct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chaoscope.cipher import MAX_WARMUP, ChaosKey, pack_container, unpack_container
from chaoscope.compression import PifsCode
from chaoscope.errors import FormatError
from chaoscope.formats import read_pgm

FIC_HEADER = "<4sHHBB"
FIC_RECORD = "<HHBbh"
CHX_HEADER = "<4sBIQ"

VALID_PGM = b"P5\n# comment\n4 3\n255\n" + bytes(range(12))
VALID_FIC = struct.pack(FIC_HEADER, b"FIC1", 16, 16, 8, 0) + b"".join(
    struct.pack(FIC_RECORD, 0, 0, t, 31, -7) for t in range(4)
)
VALID_CHX = pack_container(ChaosKey(3.9, 0.3, 256), b"attack at dawn")


def mutations(valid):
    """Up to six (position, byte) edits of a valid file, then a cut and a tail."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=6)

    def apply(changes, cut, tail):
        data = bytearray(valid)
        for pos, value in changes:
            data[pos] = value
        return bytes(data[:cut]) + tail

    return st.builds(apply, edits, st.integers(0, len(valid)), st.binary(max_size=16))


pgm_headers = st.builds(
    lambda magic, w, h, maxval, payload: magic + b"\n%d %d\n%d\n" % (w, h, maxval) + payload,
    st.sampled_from([b"P5", b"P2"]),
    st.integers(-2, 6),
    st.integers(-2, 6),
    st.sampled_from([255, 0, 65535]),
    st.binary(max_size=40),
)

fic_headers = st.builds(
    lambda w, h, rs, records: struct.pack(FIC_HEADER, b"FIC1", w, h, rs, 0)
    + b"".join(struct.pack(FIC_RECORD, *r) for r in records),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 20),
    st.lists(
        st.tuples(
            st.integers(0, 40),
            st.integers(0, 40),
            st.integers(0, 9),
            st.integers(-128, 127),
            st.integers(-300, 300),
        ),
        max_size=30,
    ),
)

# warmups above 2**16 and up to MAX_WARMUP are valid and cost up to ~0.5 s
# of keystream, longer than the deadline allows; they are left out
fast_warmups = st.integers(0, 2**16) | st.integers(MAX_WARMUP + 1, 2**32 - 1)
chx_headers = st.builds(
    lambda magic, version, warmup, length, body: struct.pack(
        CHX_HEADER, magic, version, warmup, length
    )
    + body,
    st.sampled_from([b"CHX1", b"CHX2"]),
    st.integers(0, 255),
    fast_warmups,
    st.integers(0, 40),
    st.binary(max_size=40),
)


def test_mutation_seeds_are_valid(tmp_path):
    (tmp_path / "in.pgm").write_bytes(VALID_PGM)
    assert read_pgm(tmp_path / "in.pgm").pixels.shape == (3, 4)
    assert len(PifsCode.from_bytes(VALID_FIC).transforms) == 4
    assert unpack_container(3.9, 0.3, VALID_CHX) == b"attack at dawn"


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.pgm"


@given(data=st.binary() | pgm_headers | mutations(VALID_PGM))
def test_read_pgm_returns_or_raises_format_error(pgm_path, data):
    pgm_path.write_bytes(data)
    try:
        read_pgm(pgm_path)
    except FormatError:
        pass


@given(data=st.binary() | fic_headers | mutations(VALID_FIC))
def test_fic_from_bytes_returns_or_raises_format_error(data):
    try:
        PifsCode.from_bytes(data)
    except FormatError:
        pass


@given(data=st.binary() | chx_headers | mutations(VALID_CHX))
def test_unpack_container_returns_or_raises_format_error(data):
    if len(data) >= 9:  # mutations can produce the slow warmups too
        assume(not 2**16 < struct.unpack_from("<I", data, 5)[0] <= MAX_WARMUP)
    try:
        unpack_container(3.9, 0.3, data)
    except FormatError:
        pass
