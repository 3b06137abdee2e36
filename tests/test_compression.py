import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaoscope import compression
from chaoscope.compression import (
    MAX_PIXELS,
    GrayImage,
    PifsCode,
    TRANSFORM,
    pifs_decode,
    pifs_encode,
    psnr,
)
from chaoscope.errors import (
    DimensionError,
    DimensionMismatch,
    DomainError,
    FormatError,
    GridTooLarge,
    ImageTooSmall,
)

from conftest import exhaustive_encode, loop_decode, make_photo


def _rms(a, b):
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


def test_constant_image_encodes_flat():
    img = GrayImage.constant(64, 64, 128)
    code = pifs_encode(img)
    assert all(t.s_q == 0 for t in code.transforms)
    assert all(abs(t.o_q - 128) <= 1 for t in code.transforms)
    decoded = pifs_decode(code, 10, GrayImage.constant(64, 64, 0))
    assert np.max(np.abs(decoded.pixels.astype(int) - 128)) <= 1


def test_ramp_roundtrip_psnr():
    col = np.round(255 * np.arange(64) / 63).astype(np.uint8)
    img = GrayImage(pixels=np.tile(col, (64, 1)))
    decoded = pifs_decode(pifs_encode(img), 10)
    assert psnr(img, decoded) >= 30.0


def test_smax_zero_gives_block_means():
    rng = np.random.default_rng(7)
    img = GrayImage(pixels=rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    code = pifs_encode(img, range_size=8, s_max=0.0)
    assert all(t.s_q == 0 for t in code.transforms)
    decoded = pifs_decode(code, 10)
    for i, t in enumerate(code.transforms):
        ry, rx = divmod(i, 32 // 8)
        block = img.pixels[ry * 8 : ry * 8 + 8, rx * 8 : rx * 8 + 8]
        assert abs(t.o_q - block.mean()) <= 0.5 + 1e-9
        assert np.all(decoded.pixels[ry * 8 : ry * 8 + 8, rx * 8 : rx * 8 + 8] == t.o_q)


def test_roundtrip_psnr_on_corpus(corpus64):
    for name, img in corpus64.items():
        decoded = pifs_decode(pifs_encode(img), 10)
        assert psnr(img, decoded) >= 25.0, name


def test_decode_start_independence(corpus64):
    starts = [
        GrayImage.constant(64, 64, 0),
        GrayImage.constant(64, 64, 255),
        GrayImage.constant(64, 64, 77),
    ]
    for name, img in corpus64.items():
        code = pifs_encode(img)
        decoded = [pifs_decode(code, 15, s) for s in starts]
        for i in range(len(decoded)):
            for j in range(i + 1, len(decoded)):
                assert _rms(decoded[i], decoded[j]) <= 2.0, name


def test_decode_iterates_contract(corpus64):
    for name, img in corpus64.items():
        code = pifs_encode(img)
        cur = GrayImage.constant(64, 64, 0)
        deltas = []
        for _ in range(10):
            nxt = pifs_decode(code, 1, cur)
            deltas.append(_rms(cur, nxt))
            cur = nxt
        # strictly closer late than early, and monotone after iteration 2
        assert deltas[8] < deltas[0]
        assert all(b <= a + 1e-12 for a, b in zip(deltas[2:], deltas[3:])), name


def test_the_quantised_decode_can_end_in_a_cycle():
    # on the uint8 grid the decode need not reach a fixed point: this code
    # repeats pass 14 at pass 17, a cycle of period 3
    code = pifs_encode(make_photo(128, 128, 3), range_size=8)
    passes = {n: pifs_decode(code, n).pixels.astype(int) for n in (14, 15, 16, 17)}
    assert np.array_equal(passes[17], passes[14])
    assert not np.array_equal(passes[15], passes[14])
    assert not np.array_equal(passes[16], passes[14])
    change = passes[15] - passes[14]
    assert (np.count_nonzero(change), np.abs(change).max()) == (22, 1)


def test_encoder_matches_brute_force(brute_force_encoder):
    rng = np.random.default_rng(42)
    images = [
        GrayImage(pixels=rng.integers(0, 256, size=(16, 16), dtype=np.uint8)),
        GrayImage(pixels=rng.integers(0, 256, size=(16, 16), dtype=np.uint8)),
    ]
    yy, xx = np.mgrid[0:16, 0:16]
    images.append(GrayImage(pixels=((xx * 7 + yy * 3) % 256).astype(np.uint8)))
    for img in images:
        code = pifs_encode(img, range_size=8, domain_step=8, s_max=1.0)
        expected = brute_force_encoder(img, 8, 8, 1.0)
        got = [
            (t.domain_y, t.domain_x, t.isometry, t.s_q, t.o_q)
            for t in code.transforms
        ]
        assert got == [e[1:] for e in expected]


def test_psnr_values():
    a = GrayImage.constant(8, 8, 100)
    assert psnr(a, a) == 99.0
    b = GrayImage.constant(8, 8, 101)
    assert abs(psnr(a, b) - 10.0 * np.log10(255.0 ** 2)) < 1e-12
    black = GrayImage.constant(8, 8, 0)
    white = GrayImage.constant(8, 8, 255)
    assert psnr(black, white) == 0.0
    with pytest.raises(DimensionMismatch):
        psnr(a, GrayImage.constant(4, 4, 0))


def test_container_roundtrip():
    img = GrayImage(
        pixels=np.arange(32 * 32, dtype=np.uint64).reshape(32, 32).astype(np.uint8)
    )
    code = pifs_encode(img)
    blob = code.to_bytes()
    assert blob[:4] == b"FIC1"
    assert len(blob) == 10 + 8 * len(code.transforms)
    back = PifsCode.from_bytes(blob)
    assert back == code
    assert back.to_bytes() == blob


def test_container_rejects_garbage():
    with pytest.raises(DomainError):
        PifsCode.from_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DomainError):
        PifsCode.from_bytes(b"FIC")


def test_encode_preconditions():
    with pytest.raises(DimensionError):
        pifs_encode(GrayImage.constant(60, 64, 0), range_size=8)
    with pytest.raises(ImageTooSmall):
        pifs_encode(GrayImage.constant(8, 8, 0), range_size=8)
    with pytest.raises(DomainError):
        pifs_encode(GrayImage.constant(64, 64, 0), s_max=1.5)


def test_decode_preconditions():
    code = pifs_encode(GrayImage.constant(32, 32, 64))
    with pytest.raises(DomainError):
        pifs_decode(code, 0)
    with pytest.raises(DimensionMismatch):
        pifs_decode(code, 5, GrayImage.constant(16, 16, 0))


def test_transform_validation():
    good = (0, 0, 0, 0, 0)
    for bad, message in [
        ((0, 0, 8, 0, 0), "isometry"),
        ((0, 0, -1, 0, 0), "isometry"),
        ((0, 0, 0, 64, 0), "contrast"),
        ((0, 0, 0, -64, 0), "contrast"),
        ((0, 0, 0, 0, 300), "offset"),
        ((0, 0, 0, 0, -256), "offset"),
        ((0, 0, 0, -2**63, 0), "contrast"),  # abs() of it would wrap
        # domain blocks must stay inside the image
        ((8, 0, 0, 0, 0), r"domain block at \(8, 0\) leaves"),
        ((0, 1, 0, 0, 0), r"domain block at \(0, 1\) leaves"),
        ((-1, 0, 0, 0, 0), r"domain block at \(-1, 0\) leaves"),
        ((2**63 - 1, 0, 0, 0, 0), "domain block at"),  # x + 16 would wrap
    ]:
        with pytest.raises(DomainError, match=message):
            PifsCode(width=16, height=16, range_size=8, transforms=(good, good, bad, good))


def test_transforms_must_be_records_or_integer_rows():
    for rows in ([(0, 0, 0, 0)] * 4, [(0.0, 0, 0, 0, 0)] * 4, [0] * 20):
        with pytest.raises(DomainError, match="integer rows"):
            PifsCode(width=16, height=16, range_size=8, transforms=rows)
    with pytest.raises(DomainError, match="expected 4 transforms, got 3"):
        PifsCode(width=16, height=16, range_size=8, transforms=[(0, 0, 0, 0, 0)] * 3)


def test_codes_hash_by_their_bytes_and_do_not_equal_other_types():
    rows = [(0, 0, 0, 32, 10)] * 4
    code, twin = (PifsCode(16, 16, 8, rows) for _ in range(2))
    assert code is not twin and hash(code) == hash(twin) == hash(code.to_bytes())
    assert len({code, twin, PifsCode(16, 16, 8, [(0, 0, 1, 32, 10)] * 4)}) == 2
    assert code.__eq__(code.to_bytes()) is NotImplemented and code != code.to_bytes()


def test_record_layout_is_the_fic1_layout():
    # 16x16 at range size 4: 16 records, domain corners in [0, 8]
    rows = [(0, 8, 7, -63, -255), (8, 0, 3, 63, 255), (4, 2, 0, 0, 0), (1, 1, 5, -1, 17)] * 4
    blob = struct.pack("<4sHHBB", b"FIC1", 16, 16, 4, 0)
    blob += b"".join(struct.pack("<HHBbh", *r) for r in rows)
    assert TRANSFORM.itemsize == 8
    code = PifsCode(width=16, height=16, range_size=4, transforms=rows)
    assert code.to_bytes() == blob
    back = PifsCode.from_bytes(blob)
    assert back == code and back.to_bytes() == blob
    assert [tuple(int(v) for v in t) for t in back.transforms] == rows
    assert [int(t.s_q) for t in back.transforms[:4]] == [-63, 63, 0, -1]
    # a TRANSFORM array is accepted as is, and a code's records are read-only
    assert PifsCode(width=16, height=16, range_size=4, transforms=back.transforms) == code
    with pytest.raises(ValueError):
        code.transforms.o_q[0] = 1
    with pytest.raises(ValueError):
        back.transforms[0] = (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "width, height, range_size, error",
    [
        (16, 16, 0, DomainError),  # used to divide by zero
        (20, 16, 8, DimensionError),  # columns 16..19 were never written
        (4, 4, 8, DimensionError),  # no range block at all
        (8, 8, 8, ImageTooSmall),  # range blocks, but no 16x16 domain
    ],
)
def test_code_geometry_is_checked(width, height, range_size, error):
    count = (width // max(range_size, 1)) * (height // max(range_size, 1))
    transforms = [(0, 0, 0, 0, 10)] * count
    with pytest.raises(error):
        PifsCode(width=width, height=height, range_size=range_size, transforms=transforms)
    blob = struct.pack("<4sHHBB", b"FIC1", width, height, range_size, 0)
    blob += struct.pack("<HHBbh", 0, 0, 0, 0, 10) * count
    with pytest.raises(FormatError):
        PifsCode.from_bytes(blob)


def test_code_pixel_cap_is_checked_before_decoding():
    # 0.5 MB of valid header and records that declare a 65280x65280 image
    blob = struct.pack("<4sHHBB", b"FIC1", 65280, 65280, 255, 0)
    blob += struct.pack("<HHBbh", 0, 0, 0, 0, 10) * (256 * 256)
    with pytest.raises(FormatError, match="pixel cap"):
        PifsCode.from_bytes(blob)
    with pytest.raises(GridTooLarge):
        PifsCode(width=65280, height=65280, range_size=255, transforms=())
    with pytest.raises(GridTooLarge):
        pifs_encode(GrayImage.constant(2000, MAX_PIXELS // 2000 + 1, 0))


def _oracle_isometry_pixel(i, j, m, t):
    """Source cell of output cell (i, j) in an m x m block under isometry t."""
    return [
        (i, j), (j, m - 1 - i), (m - 1 - i, m - 1 - j), (m - 1 - j, i),
        (i, m - 1 - j), (j, i), (m - 1 - i, j), (m - 1 - j, m - 1 - i),
    ][t]


def test_loop_decoder_matches_pixel_formula():
    """Pins the per-block decode oracle to one pass written pixel by pixel."""
    rng = np.random.default_rng(5)
    rs, w, h = 4, 16, 12
    transforms = [
        (int(rng.integers(0, w - 7)), int(rng.integers(0, h - 7)),
         t % 8, int(rng.integers(-63, 64)), int(rng.integers(-255, 256)))
        for t in range(12)
    ]
    code = PifsCode(width=w, height=h, range_size=rs, transforms=transforms)
    start = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    px = start.astype(int)
    want = np.empty_like(start)
    for b, t in enumerate(code.transforms):
        ry, rx = divmod(b, w // rs)
        for i in range(rs):
            for j in range(rs):
                ci, cj = _oracle_isometry_pixel(i, j, rs, t.isometry)
                y, x = t.domain_y + 2 * ci, t.domain_x + 2 * cj
                dhat = (px[y, x] + px[y, x + 1] + px[y + 1, x] + px[y + 1, x + 1]) / 4.0
                gray = t.s_q / 63.0 * dhat + float(t.o_q)
                want[ry * rs + i, rx * rs + j] = min(max(round(gray), 0), 255)
    assert np.array_equal(loop_decode(code, 1, GrayImage(pixels=start)).pixels, want)


def test_exhaustive_oracle_matches_brute_force(brute_force_encoder):
    rng = np.random.default_rng(43)
    yy, xx = np.mgrid[0:16, 0:16]
    images = [
        GrayImage(pixels=rng.integers(0, 256, size=(16, 16), dtype=np.uint8)),
        GrayImage(pixels=((xx * 5 + yy * 11) % 256).astype(np.uint8)),
    ]
    for img in images:
        code = exhaustive_encode(img, range_size=8, domain_step=8, s_max=1.0)
        got = [(t.domain_y, t.domain_x, t.isometry, t.s_q, t.o_q) for t in code.transforms]
        assert got == [e[1:] for e in brute_force_encoder(img, 8, 8, 1.0)]


def _equivalence_images():
    rng = np.random.default_rng(2024)
    half = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
    return {
        "random32": GrayImage(pixels=rng.integers(0, 256, size=(32, 32), dtype=np.uint8)),
        "random64": GrayImage(pixels=rng.integers(0, 256, size=(64, 64), dtype=np.uint8)),
        "flat64": GrayImage.constant(64, 64, 93),
        "mirror32": GrayImage(pixels=np.concatenate([half, half[:, ::-1]], axis=1)),
        "photo48x64": make_photo(48, 64, 11),
    }


# (range_size, domain_step, s_max): together every value of each setting
_SEARCH_SETTINGS = [(8, 8, 1.0), (8, 4, 0.5), (4, 8, 0.5), (4, 4, 0.0)]


@pytest.mark.parametrize("rs, step, s_max", _SEARCH_SETTINGS)
def test_pruned_search_and_vectorised_decode_match_oracles(rs, step, s_max, corpus64):
    images = dict(corpus64, **_equivalence_images())
    for name, img in images.items():
        code = pifs_encode(img, rs, step, s_max)
        assert code.to_bytes() == exhaustive_encode(img, rs, step, s_max).to_bytes(), name
        start = GrayImage(pixels=np.roll(img.pixels, 3, axis=1))
        for s in (None, start):
            got = pifs_decode(code, 3, s).pixels
            assert np.array_equal(got, loop_decode(code, 3, s).pixels), name


def test_flat_range_blocks_scan_at_most_two_candidates(monkeypatch):
    scanned = []
    scan = compression._scan

    def counting_scan(cross, *args):
        scanned.append(len(cross))
        return scan(cross, *args)

    monkeypatch.setattr(compression, "_scan", counting_scan)
    rng = np.random.default_rng(8)
    tiles = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    images = [GrayImage.constant(64, 64, 93), GrayImage(pixels=np.kron(tiles, np.ones((8, 8), np.uint8)))]
    for img in images:
        scanned.clear()
        code = pifs_encode(img)  # every 8x8 range block is flat
        assert len(scanned) == 2 * 64
        assert all(a + b <= 2 for a, b in zip(scanned[::2], scanned[1::2]))
        assert code == exhaustive_encode(img, 8, 8, 1.0)


def _two_candidate_scan(cross, sd, sd2, sr, sr2, n, s_grid):
    """The rule _scan's closed form replaced: the error at the clipped floor
    and floor + 1 of the real offset, the smaller kept, a tie to the floor."""
    s, sd = s_grid[None, :], sd[:, None]
    o_f = (252 * sr - s * sd) // (252 * n)
    best_err = best_o = None
    for o in (np.clip(o_f, -255, 255), np.clip(o_f + 1, -255, 255)):
        err = (s * s * sd2[:, None] + n * (252 * o) ** 2 + 252**2 * sr2 + 2 * s * 252 * o * sd
               - 2 * 252 * s * cross[:, None] - 2 * 252**2 * o * sr)
        if best_err is None:
            best_err, best_o = err, o
        else:
            take = err < best_err
            best_err, best_o = np.where(take, err, best_err), np.where(take, o, best_o)
    return best_err, best_o


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("q", [0, 100, 255])
def test_scan_offset_matches_the_two_candidate_rule_on_ties_and_clips(n, q):
    rng = np.random.default_rng(17 * n + q)
    s_grid = np.arange(-63, 64, dtype=np.int64)
    sr, den = q * n, 252 * n
    # sd an odd multiple of den/2 makes 252*sr - s*sd a half-integer multiple
    # of den for every odd s (an exact tie); |sd| up to 3000n puts the real
    # offset beyond both ends of [-255, 255]
    odd = np.array([-11, -5, -3, -1, 1, 3, 5, 11], dtype=np.int64)
    sd = np.concatenate([126 * n * odd, rng.integers(-3000 * n, 3000 * n, 40)])
    cross = rng.integers(-(10**6), 10**6, len(sd))
    sd2 = rng.integers(0, 10**7, len(sd))
    sr2 = int(rng.integers(0, 10**6))
    num = 252 * sr - s_grid[None, :] * sd[:, None]
    o_f, rem = num // den, num % den
    assert (2 * rem == den).any() and (o_f > 255).any() and (o_f + 1 < -255).any()
    err, o = compression._scan(cross, sd, sd2, sr, sr2, n, s_grid)
    ref_err, ref_o = _two_candidate_scan(cross, sd, sd2, sr, sr2, n, s_grid)
    np.testing.assert_array_equal(o, ref_o)
    np.testing.assert_array_equal(err, ref_err)


@st.composite
def small_images(draw):
    h, w = draw(st.sampled_from([(16, 16), (16, 24), (24, 16)]))
    # a small palette makes exact ties between candidates likely
    palette = draw(st.sampled_from([st.integers(0, 255), st.sampled_from([0, 64, 255])]))
    return GrayImage(pixels=draw(arrays(np.uint8, (h, w), elements=palette)))


@settings(deadline=None, max_examples=60)
@given(small_images(), st.floats(0.0, 1.0), st.sampled_from([(4, 4), (8, 4), (4, 8)]))
def test_pruned_search_matches_exhaustive_property(img, s_max, rs_step):
    rs, step = rs_step
    assert pifs_encode(img, rs, step, s_max) == exhaustive_encode(img, rs, step, s_max)


def test_decode_cap_counts_pixels_times_iterations(monkeypatch):
    code = PifsCode(16, 16, 8, [(0, 0, 0, 32, 10)] * 4)
    monkeypatch.setattr(compression, "MAX_DECODE_PIXEL_PASSES", 3 * 16 * 16)
    assert pifs_decode(code, 3).width == 16
    with pytest.raises(GridTooLarge):
        pifs_decode(code, 4)
    # a small image is charged as _MIN_DECODE_PIXELS pixels
    small = PifsCode(2, 2, 1, [(0, 0, 0, 32, 10)] * 4)
    assert 4 < compression._MIN_DECODE_PIXELS
    monkeypatch.setattr(
        compression, "MAX_DECODE_PIXEL_PASSES", 5 * compression._MIN_DECODE_PIXELS
    )
    assert pifs_decode(small, 5).width == 2
    with pytest.raises(GridTooLarge):
        pifs_decode(small, 6)
    monkeypatch.undo()
    with pytest.raises(GridTooLarge):
        pifs_decode(code, 10**9)
    with pytest.raises(TypeError):
        pifs_decode(code, 2.0)


def test_decode_cap_leaves_the_tour_and_benchmark_decodes_far_below_it():
    assert 512 * 512 * 5 * 50 < compression.MAX_DECODE_PIXEL_PASSES
    assert 64 * 64 * 8 * 1000 < compression.MAX_DECODE_PIXEL_PASSES


@st.composite
def valid_codes(draw):
    rs = draw(st.sampled_from([1, 2, 4]))
    nby, nbx = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    h, w = nby * rs, nbx * rs
    transforms = draw(st.lists(
        st.tuples(st.integers(0, w - 2 * rs), st.integers(0, h - 2 * rs),
                  st.integers(0, 7), st.integers(-63, 63), st.integers(-255, 255)),
        min_size=nby * nbx, max_size=nby * nbx,
    ))
    return PifsCode(width=w, height=h, range_size=rs, transforms=transforms)


@settings(deadline=None, max_examples=60)
@given(valid_codes(), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_vectorised_decode_matches_loop_property(code, iterations, with_start, seed):
    start = None
    if with_start:
        rng = np.random.default_rng(seed)
        start = GrayImage(pixels=rng.integers(0, 256, (code.height, code.width), np.uint8))
    got = pifs_decode(code, iterations, start).pixels
    assert np.array_equal(got, loop_decode(code, iterations, start).pixels)
