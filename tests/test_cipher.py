import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaoscope import cipher
from chaoscope.cipher import (
    MAX_WARMUP,
    ChaosKey,
    avalanche_test,
    decrypt,
    encrypt,
    keystream,
    pack_container,
    unpack_container,
)
from chaoscope.errors import DegenerateOrbit, DomainError, FormatError, GridTooLarge

from conftest import bit_difference, loop_avalanche_test, loop_keystream

GOLDEN_KEY = ChaosKey(mu=3.9, x0=0.2, warmup=1000)
# computed once by the straight-line oracle below and frozen
GOLDEN_VECTOR = bytes.fromhex("ea66510dd1adb0c41a54fb9db8f6dbe7")


def straight_line_keystream(mu, x0, warmup, n):
    """Independent reference: plain loop, floor toward zero, low byte."""
    x = x0
    for _ in range(warmup):
        x = mu * x * (1.0 - x)
    out = []
    for _ in range(n):
        x = mu * x * (1.0 - x)
        out.append(int(math.floor(x * 2.0 ** 32)) % 256)
    return bytes(out)


def test_key_validation():
    with pytest.raises(DomainError):
        ChaosKey(mu=3.5, x0=0.2)
    with pytest.raises(DomainError):
        ChaosKey(mu=4.1, x0=0.2)
    with pytest.raises(DomainError):
        ChaosKey(mu=3.9, x0=0.0)
    with pytest.raises(DomainError):
        ChaosKey(mu=3.9, x0=0.5)
    with pytest.raises(DomainError):
        ChaosKey(mu=4.0, x0=0.75)
    with pytest.raises(DomainError):
        ChaosKey(mu=3.9, x0=0.2, warmup=100)
    ChaosKey(mu=4.0, x0=0.2)  # 0.75 only excluded at mu=4 for x0 itself


def test_keystream_empty():
    assert keystream(GOLDEN_KEY, 0) == b""


def test_keystream_golden_vector():
    ks = keystream(GOLDEN_KEY, 16)
    assert ks == GOLDEN_VECTOR
    assert ks == straight_line_keystream(3.9, 0.2, 1000, 16)


def test_keystream_prefix_property():
    long = keystream(GOLDEN_KEY, 64)
    assert keystream(GOLDEN_KEY, 16) == long[:16]
    assert keystream(GOLDEN_KEY, 63) == long[:63]


def test_warmup_shifts_stream_by_one():
    a = keystream(ChaosKey(3.9, 0.2, 1000), 17)
    b = keystream(ChaosKey(3.9, 0.2, 1001), 16)
    assert a[1:] == b


def test_degenerate_orbit_detected():
    # 0.25 -> 0.75 under mu=4, and 0.75 is the exact fixed point
    with pytest.raises(DegenerateOrbit):
        keystream(ChaosKey(4.0, 0.25, 256), 1)


@settings(max_examples=50, deadline=None)
@given(data=st.binary(min_size=0, max_size=512))
def test_encrypt_decrypt_involution(data):
    key = ChaosKey(3.77, 0.3, 256)
    assert decrypt(key, encrypt(key, data)) == data


def test_encrypt_basics():
    key = ChaosKey(3.9, 0.3, 256)
    assert encrypt(key, b"") == b""
    zeros = bytes(64)
    assert encrypt(key, zeros) == keystream(key, 64)
    assert decrypt(key, keystream(key, 48)) == bytes(48)
    assert decrypt(key, b"") == b""


def test_decrypt_with_wrong_key_scrambles():
    key = ChaosKey(3.9, 0.3, 1000)
    wrong = ChaosKey(3.9, 0.3 + 1e-15, 1000)
    message = bytes(range(256)) * 4  # 1 KiB
    garbled = decrypt(wrong, encrypt(key, message))
    bits = np.unpackbits(
        np.frombuffer(bytes(a ^ b for a, b in zip(garbled, message)), np.uint8)
    )
    assert bits.mean() >= 0.45


def test_monobit_balance():
    stream = keystream(ChaosKey(3.9, 0.2, 1000), 100_000)
    ones = np.unpackbits(np.frombuffer(stream, np.uint8)).mean()
    assert 0.49 <= ones <= 0.51


def test_avalanche_fraction_near_half():
    # x0 = 0.3 diverges under one-ulp nudges in both directions
    frac = avalanche_test(ChaosKey(3.9, 0.3, 1000), 2048, 8)
    assert abs(frac - 0.5) <= 0.05


def test_avalanche_preconditions():
    key = ChaosKey(3.9, 0.3, 256)
    with pytest.raises(DomainError):
        avalanche_test(key, 512, 8)
    with pytest.raises(DomainError):
        avalanche_test(key, 2048, 4)


def test_avalanche_caps_refuse_before_any_keystream(monkeypatch):
    key = ChaosKey(3.9, 0.3, 256)
    monkeypatch.setattr(cipher, "MAX_AVALANCHE_BYTES", 2048)
    monkeypatch.setattr(cipher, "MAX_AVALANCHE_TRIALS", 9)
    assert 0.0 < avalanche_test(key, 2048, 9) < 1.0
    with mock.patch.object(cipher, "keystream", side_effect=AssertionError("ran")):
        with pytest.raises(GridTooLarge):
            avalanche_test(key, 2049, 8)
        with pytest.raises(GridTooLarge):
            avalanche_test(key, 2048, 10)
    monkeypatch.undo()
    with pytest.raises(GridTooLarge):
        avalanche_test(key, 10**11, 16)
    with pytest.raises(GridTooLarge):
        avalanche_test(key, 10240, 10**9)


def test_bit_difference_identical_keys_is_zero():
    key = ChaosKey(3.9, 0.3, 256)
    assert bit_difference(key, key, 2048) == 0.0


def test_bit_difference_symmetric():
    a = ChaosKey(3.9, 0.3, 256)
    b = ChaosKey(3.9, 0.31, 256)
    assert bit_difference(a, b, 2048) == bit_difference(b, a, 2048)


@pytest.mark.parametrize("direction", [1.0, 0.0])
def test_key_sensitivity_x0_ulp(direction):
    base = ChaosKey(3.9, 0.3, 1000)
    other = ChaosKey(3.9, math.nextafter(0.3, direction), 1000)
    a, b = keystream(base, 4096 + 64), keystream(other, 4096 + 64)
    xored = bytes(p ^ q for p, q in zip(a[64:], b[64:]))
    frac = np.unpackbits(np.frombuffer(xored, np.uint8)).mean()
    assert 0.45 <= frac <= 0.55


def test_key_sensitivity_mu_ulp():
    base = ChaosKey(3.9, 0.2, 1000)
    other = ChaosKey(math.nextafter(3.9, 4.0), 0.2, 1000)
    a, b = keystream(base, 4096 + 64), keystream(other, 4096 + 64)
    xored = bytes(p ^ q for p, q in zip(a[64:], b[64:]))
    frac = np.unpackbits(np.frombuffer(xored, np.uint8)).mean()
    assert 0.45 <= frac <= 0.55


def test_one_ulp_nudges_can_collide():
    # Rounding can absorb a one-ulp change of x0 in the very first iterate;
    # such twins emit identical keystreams forever.  Documented limitation.
    base = ChaosKey(3.9, 0.2, 256)
    merged = ChaosKey(3.9, math.nextafter(0.2, 1.0), 256)
    assert bit_difference(base, merged, 1024) == 0.0


def test_container_roundtrip():
    key = ChaosKey(3.9, 0.3, 512)
    payload = bytes(range(256))
    blob = pack_container(key, payload)
    assert blob[:4] == b"CHX1"
    assert len(blob) == 17 + len(payload)
    assert unpack_container(3.9, 0.3, blob) == payload


def test_container_stores_warmup_not_key():
    key = ChaosKey(3.9, 0.3, 777)
    blob = pack_container(key, b"attack at dawn")
    # the warmup rides along, so decryption needs only (mu, x0)
    assert unpack_container(3.9, 0.3, blob) == b"attack at dawn"
    mu_bytes = np.frombuffer(np.float64(3.9).tobytes(), np.uint8).tobytes()
    assert mu_bytes not in blob


def test_container_rejects_garbage():
    key = ChaosKey(3.9, 0.3, 512)
    blob = pack_container(key, b"payload")
    with pytest.raises(DomainError):
        unpack_container(3.9, 0.3, b"XXXX" + blob[4:])
    with pytest.raises(DomainError):
        unpack_container(3.9, 0.3, blob[:10])
    with pytest.raises(DomainError):
        unpack_container(3.9, 0.3, blob + b"extra")


def test_warmup_is_bounded():
    assert ChaosKey(3.9, 0.3, MAX_WARMUP).warmup == MAX_WARMUP
    with pytest.raises(DomainError):
        ChaosKey(3.9, 0.3, MAX_WARMUP + 1)
    with pytest.raises(DomainError):
        ChaosKey(3.9, 0.3, 100_000_000_000)


def test_container_warmup_out_of_range_is_format_error():
    blob = pack_container(ChaosKey(3.9, 0.3, 512), b"payload")
    huge = blob[:5] + (2**32 - 1).to_bytes(4, "little") + blob[9:]
    with pytest.raises(FormatError):
        unpack_container(3.9, 0.3, huge)
    # a bad key is the caller's error, not the file's, even for a bad file
    with pytest.raises(DomainError) as err:
        unpack_container(5.0, 0.3, huge)
    assert not isinstance(err.value, FormatError)


# The chunked keystream against the byte loop it replaced (conftest's
# loop_keystream): same bytes, and the same DegenerateOrbit message and
# iterate, on both sides of chunk boundaries.

CHUNK = cipher._CHUNK


def _stream_outcome(make_stream, key, n):
    try:
        return make_stream(key, n)
    except DegenerateOrbit as exc:
        return DegenerateOrbit, str(exc)


def _unchecked_key(mu, x0, warmup):
    """A key that skips ChaosKey's checks, so that a degenerate iterate can
    fall among the output bytes (warmup < 256) or start the orbit."""
    key = object.__new__(ChaosKey)
    for name, value in (("mu", mu), ("x0", x0), ("warmup", warmup)):
        object.__setattr__(key, name, value)
    return key


def _exact_fixed_point(mu):
    """A binary64 x with mu*x*(1-x) == x next to 1 - 1/mu, or None."""
    x = 1.0 - 1.0 / mu
    for _ in range(4):
        x = math.nextafter(x, 0.0)
    for _ in range(9):
        if mu * x * (1.0 - x) == x:
            return x
        x = math.nextafter(x, 1.0)
    return None


@settings(max_examples=15, deadline=None)
@given(
    mu=st.floats(3.5701, 4.0),
    x0=st.floats(1e-9, 1.0 - 1e-9),
    warmup=st.sampled_from([256, 1000, CHUNK - 1, CHUNK + 1]),
    n=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]),
)
def test_chunked_keystream_matches_byte_loop(mu, x0, warmup, n):
    assume(x0 != 0.5 and not (mu == 4.0 and x0 == 0.75))
    key = ChaosKey(mu, x0, warmup)
    assert _stream_outcome(keystream, key, n) == _stream_outcome(loop_keystream, key, n)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["zero", "fixed", "exact"]),
    mu=st.floats(3.5701, 4.0),
    delta=st.floats(-(2.0 ** -29), 2.0 ** -29),
    warmup=st.integers(0, 4),
    n=st.integers(0, 6),
    chunk=st.sampled_from([1, 2, 3, CHUNK]),
)
def test_degenerate_orbit_reported_like_byte_loop(case, mu, delta, warmup, n, chunk):
    if case == "zero":  # within 2**-28 of 0.5, x -> 1.0 -> 0 under mu = 4
        mu, x0 = 4.0, 0.5 + delta
    elif case == "fixed":  # 0.25 -> 0.75, the fixed point of mu = 4
        mu, x0 = 4.0, 0.25
    else:
        x0 = _exact_fixed_point(mu)
        assume(x0 is not None)
    key = _unchecked_key(mu, x0, warmup)
    want = _stream_outcome(loop_keystream, key, n)
    with mock.patch.object(cipher, "_CHUNK", chunk):
        assert _stream_outcome(keystream, key, n) == want


def test_degenerate_orbit_message_names_the_iterate():
    fixed = r"^orbit hit the fixed point 0\.75 at iterate 2$"
    with pytest.raises(DegenerateOrbit, match=fixed):
        keystream(ChaosKey(4.0, 0.25, 256), 1)
    # the second iterate is the first output byte when the warmup is 1
    with pytest.raises(DegenerateOrbit, match=r"^orbit hit 0 at iterate 2$"):
        keystream(_unchecked_key(4.0, 0.5 + 2.0 ** -30, 1), 5)


# The three-keystream avalanche against the two-streams-per-trial loop it
# replaced (conftest's loop_avalanche_test): the same float to the last bit,
# or the same error with the same message, raised at the same point.


def _avalanche_outcome(harness, key, n_bytes, trials):
    try:
        return repr(harness(key, n_bytes, trials))
    except (DomainError, DegenerateOrbit) as exc:
        return type(exc), str(exc)


def _ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, 1.0 if k > 0 else 0.0)
    return x


@settings(max_examples=40, deadline=None)
@given(
    anchor=st.sampled_from([None, 0.5, 0.75, 0.25]),
    mu=st.one_of(st.just(4.0), st.floats(3.5701, 4.0)),
    x0=st.floats(1e-6, 1.0 - 1e-6),
    ulps=st.integers(-2, 2),
    warmup=st.sampled_from([256, 300, 1000]),
    n_bytes=st.integers(1024, 2500),
    trials=st.integers(8, 21),
)
def test_avalanche_matches_the_trial_loop(anchor, mu, x0, ulps, warmup, n_bytes, trials):
    if anchor is not None:  # within two ulps of 0.5, 0.75 or 0.25
        x0 = _ulps_from(anchor, ulps)
    try:
        key = ChaosKey(mu, x0, warmup)
    except DomainError:
        assume(False)
    want = _avalanche_outcome(loop_avalanche_test, key, n_bytes, trials)
    assert _avalanche_outcome(avalanche_test, key, n_bytes, trials) == want


@pytest.mark.parametrize("trials", [127, 128, 129, 1001])
def test_avalanche_matches_the_trial_loop_over_many_trials(trials):
    # np.mean sums in blocks of 128, so these counts end in, at and past one
    key = ChaosKey(3.9, 0.3, 256)
    want = _avalanche_outcome(loop_avalanche_test, key, 1024, trials)
    assert _avalanche_outcome(avalanche_test, key, 1024, trials) == want


@pytest.mark.parametrize(
    "x0, error",
    [
        (math.nextafter(0.5, 0.0), DomainError),  # the up nudge is 0.5
        (math.nextafter(0.5, 1.0), DegenerateOrbit),  # 1.0, then 0, in the base stream
        (math.nextafter(0.75, 0.0), DomainError),  # the up nudge is the fixed point
        (0.25, DegenerateOrbit),  # the base stream maps onto the fixed point
        (math.nextafter(0.25, 0.0), DegenerateOrbit),  # so does the up stream
        (math.nextafter(0.25, 1.0), DegenerateOrbit),  # and the down stream
    ],
)
def test_avalanche_raises_like_the_trial_loop(x0, error):
    key = ChaosKey(4.0, x0, 256)
    want = _avalanche_outcome(loop_avalanche_test, key, 1024, 8)
    assert want[0] is error
    assert _avalanche_outcome(avalanche_test, key, 1024, 8) == want
