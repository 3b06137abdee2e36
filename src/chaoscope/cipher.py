"""Logistic-map stream cipher with a diffusion measurement harness.

This is a pedagogical construction, not a vetted cryptosystem.  Chaos-based
ciphers over real numbers are known to be hard to realize in practice and
their security has not been analyzed with standard cryptographic tools; no
security guarantee is stated or implied anywhere in this API.

Keystream rule (version 1 of the container format): iterate
x <- mu*x*(1-x) for `warmup` steps from x0, then per output byte iterate
once more and emit the low byte of floor(x * 2**32).  Keystreams are
reproducible across platforms with IEEE-754 double arithmetic
(round-to-nearest-even, no extended precision).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateOrbit, DomainError, FormatError, check_cap, check_count, check_real

CONTAINER_MAGIC = b"CHX1"
CONTAINER_VERSION = 1
_CONTAINER_HEADER = struct.Struct("<4sBIQ")

_TWO32 = 4294967296.0

#: Largest accepted warmup: about half a second of keystream iterates, so a
#: container header cannot make decryption spin for hours.
MAX_WARMUP = 1_000_000

#: Caps of avalanche_test, checked before any keystream is generated.  Its
#: three keystreams cost about 400-430 ns per byte together and peak at
#: about 11 bytes per byte (tracemalloc, 1 and 4 MiB), so MAX_AVALANCHE_BYTES
#: takes about 12-13 s and 0.33 GB.  Each trial adds one float64 to the
#: array that is averaged, 8 bytes and about 5-6 ns, so MAX_AVALANCHE_TRIALS
#: adds 80 MB and about 0.05-0.06 s (tracemalloc and best of 3, 1024 bytes).
MAX_AVALANCHE_BYTES = 30_000_000
MAX_AVALANCHE_TRIALS = 10_000_000

#: Iterates per chunk of the keystream loop: 64 KiB of output bytes.
_CHUNK = 65536


@dataclass(frozen=True)
class ChaosKey:
    """Cipher key: map parameter, initial condition, and warmup length."""

    mu: float
    x0: float
    warmup: int = 1000

    def __post_init__(self):
        check_real(self.mu, "mu", "(3.57, 4]")
        check_real(self.x0, "x0", "(0, 1)")
        if self.x0 == 0.5:
            raise DomainError("x0 = 0.5 is excluded (maps to the orbit maximum)")
        if self.mu == 4.0 and self.x0 == 0.75:
            raise DomainError("x0 = 0.75 is a fixed point when mu = 4")
        object.__setattr__(self, "warmup", check_count(self.warmup, "warmup", 256))
        check_cap(self.warmup, MAX_WARMUP, "warmup", "iterate")


def keystream(key: ChaosKey, n: int) -> bytes:
    """Generate n keystream bytes; deterministic for a given key.

    The orbit is iterated on Python floats, _CHUNK iterates at a time
    (the warmup first, then the output bytes), so memory stays bounded for
    any n.  Each chunk is then checked with numpy for the degenerate
    iterates 0 and "same as the previous iterate", and turned into bytes.
    """
    n = check_count(n, "n", 0)
    mu, x = key.mu, key.x0
    out = np.empty(n, dtype=np.uint8)
    done = -key.warmup  # iterates done, counted from the first output byte
    while done < n:
        m = min(_CHUNK, -done if done < 0 else n - done)
        prev = x
        xs = np.fromiter((x := mu * x * (1.0 - x) for _ in range(m)), np.float64, m)
        before = np.concatenate(([prev], xs[:-1]))
        bad = (xs == 0.0) | (xs == before)
        if bad.any():
            j = int(bad.argmax())
            step = key.warmup + done + j + 1
            if xs[j] == 0.0:
                raise DegenerateOrbit(f"orbit hit 0 at iterate {step}")
            raise DegenerateOrbit(
                f"orbit hit the fixed point {float(before[j])!r} at iterate {step}"
            )
        if done >= 0:  # chunks end where the warmup ends
            # with mu <= 4 every rounded iterate lies in [0, 1] (the range
            # lemma in systems.logistic_step), so the int64 cast truncates
            # x * 2**32 exactly as int() does
            out[done : done + m] = (xs * _TWO32).astype(np.int64) & 0xFF
        done += m
    return out.tobytes()


def _xor(data: bytes, ks: bytes) -> bytes:
    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(ks, dtype=np.uint8)
    return (a ^ b).tobytes()


def encrypt(key: ChaosKey, plaintext: bytes) -> bytes:
    """XOR the plaintext with the keystream; output length equals input length."""
    return _xor(plaintext, keystream(key, len(plaintext)))


def decrypt(key: ChaosKey, ciphertext: bytes) -> bytes:
    """Inverse of encrypt (XOR is an involution)."""
    return _xor(ciphertext, keystream(key, len(ciphertext)))


def _bit_fraction(ks_a: bytes, ks_b: bytes) -> float:
    """Fraction of differing bits between two equal-length byte strings."""
    bits = np.unpackbits(np.frombuffer(_xor(ks_a, ks_b), dtype=np.uint8))
    return float(bits.mean())


def avalanche_test(key: ChaosKey, n_bytes: int, trials: int) -> float:
    """Mean keystream bit-difference under one-ulp perturbations of x0.

    Each trial nudges x0 by one unit in the last place, alternating the sign
    across trials, and measures the XOR bit fraction against the unperturbed
    stream.  A well-diffusing map scores close to 0.5.  Only two nudged keys
    exist, so three keystreams serve every trial.  More than
    MAX_AVALANCHE_BYTES bytes or MAX_AVALANCHE_TRIALS trials raise
    GridTooLarge.
    """
    n_bytes = check_count(n_bytes, "n_bytes", 1024)
    trials = check_count(trials, "trials", 8)
    check_cap(n_bytes, MAX_AVALANCHE_BYTES, "n_bytes", "byte")
    check_cap(trials, MAX_AVALANCHE_TRIALS, "trials", "trial")
    up = replace(key, x0=math.nextafter(key.x0, 1.0))
    base = keystream(key, n_bytes)
    up_fraction = _bit_fraction(base, keystream(up, n_bytes))
    down = replace(key, x0=math.nextafter(key.x0, 0.0))
    down_fraction = _bit_fraction(base, keystream(down, n_bytes))
    # np.mean sums pairwise, so the per-trial fractions are kept in order
    # (up, down, up, ...) to give the float that a list of them gave
    fractions = np.empty(trials)
    fractions[0::2] = up_fraction
    fractions[1::2] = down_fraction
    return float(np.mean(fractions))


def pack_container(key: ChaosKey, payload: bytes) -> bytes:
    """Encrypt and wrap: magic, version, warmup, payload length, ciphertext.

    The key itself (mu, x0) is never stored.
    """
    body = encrypt(key, payload)
    header = _CONTAINER_HEADER.pack(
        CONTAINER_MAGIC, CONTAINER_VERSION, key.warmup, len(body)
    )
    return header + body


def unpack_container(mu: float, x0: float, data: bytes) -> bytes:
    """Decrypt a container produced by pack_container with the supplied key.

    A bad (mu, x0) raises DomainError before the data is read; any defect
    of the container itself, its warmup included, raises FormatError.
    """
    key = ChaosKey(mu=mu, x0=x0)
    if len(data) < _CONTAINER_HEADER.size:
        raise FormatError("truncated cipher container")
    magic, version, warmup, length = _CONTAINER_HEADER.unpack_from(data, 0)
    if magic != CONTAINER_MAGIC:
        raise FormatError(f"bad cipher container magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise FormatError(f"unsupported cipher container version {version}")
    body = data[_CONTAINER_HEADER.size :]
    if len(body) != length:
        raise FormatError(
            f"container length field says {length}, payload has {len(body)} bytes"
        )
    try:
        key = replace(key, warmup=warmup)
    except DomainError as exc:
        raise FormatError(f"invalid cipher container: {exc}") from None
    return decrypt(key, body)
