"""Exception types shared across the package.

Everything raised on purpose derives from ChaoscopeError so callers (and the
CLI) can tell deliberate signals from genuine bugs.  Counts, real parameters
and size caps go through check_count, check_real and check_cap, one message
form each; check_real's is "<name> must lie in <interval>, got <value>".
"""

import operator
import sys


class ChaoscopeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ChaoscopeError, ValueError):
    """An argument violates a documented precondition."""


class UnknownPreset(DomainError):
    """A system or IFS preset name is not registered."""


def lookup_preset(table, name: str, what: str):
    """table[name], or UnknownPreset listing the names of the ``what`` presets."""
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise UnknownPreset(f"unknown {what} preset '{name}' (known: {known})") from None


class NonFiniteState(ChaoscopeError):
    """A value computed during a run became NaN/Inf: a map iterate, or a
    field value or the new state in the integrator's last trial step above
    its step floor (an earlier non-finite trial step is rejected and shrunk).  A NaN or
    +-inf start state is a DomainError instead.

    ``index`` holds the failing iterate for map orbits, when known.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StepUnderflow(ChaoscopeError):
    """The adaptive integrator needs a step below min_step (stiffness or blow-up)."""


class MaxStepsExceeded(ChaoscopeError):
    """The integrator hit its attempted-step budget before reaching t1."""


class SeparationUnderflow(ChaoscopeError):
    """Twin trajectories coincide bit-exactly; log separation is undefined."""


class GridTooLarge(DomainError):
    """A raster (escape grid, IFS image, PIFS code), a map orbit, the kept
    steps of an integration, a cobweb trace, a bifurcation sweep, a keystream
    warmup, an avalanche run, or the work of an escape grid, IFS run or PIFS
    decode would exceed its cap; raised by check_cap."""


def check_count(value, name: str, least: int) -> int:
    """value as a Python int, at least ``least``.

    A value that is not an integer (a float, a string) raises TypeError, as
    operator.index does; a numpy integer becomes a Python int, so products
    of counts cannot overflow.  A count below ``least`` raises DomainError.
    """
    value = operator.index(value)
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


def check_real(value, name: str, interval: str) -> None:
    """Raise DomainError "<name> must lie in <interval>, got <value>" unless value
    is finite (a float, or an int within the float range) and in ``interval``,
    such as "[2, inf)"; a string raises TypeError."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (abs(value) <= sys.float_info.max
            and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise DomainError(f"{name} must lie in {interval}, got {value}")


def check_cap(amount: int, limit: int, what: str, unit: str) -> None:
    """Raise GridTooLarge when amount, described by ``what``, exceeds limit.

    ``unit`` names what the cap counts, as in "the 3000000-pixel cap".
    """
    if amount > limit:
        raise GridTooLarge(f"{what} = {amount}, over the {limit}-{unit} cap")


class EmptyImage(DomainError):
    """A binary image has no set pixels where at least one is required."""


class DimensionError(DomainError):
    """Image dimensions are incompatible with the requested block scheme."""


class DimensionMismatch(DomainError):
    """Two images (or an image and a code) disagree on dimensions."""


class ImageTooSmall(DomainError):
    """The image cannot fit a single domain block."""


class DegenerateOrbit(ChaoscopeError):
    """The keystream orbit hit 0 or a fixed point (pathological key)."""


class FormatError(DomainError):
    """An input file (PGM, ``FIC1`` or ``CHX1`` container) is malformed."""
