"""Exception types shared across the package.

Everything raised on purpose derives from ChaoscopeError so callers (and the
CLI) can tell deliberate signals from genuine bugs.
"""


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
    """A state or vector-field value became NaN/Inf.

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
    """A raster (escape grid, IFS image, PIFS code), a map orbit, a cobweb
    trace, a bifurcation sweep, an avalanche run, or the iterations of an
    escape grid or IFS run would exceed its cap."""


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


PgmFormatError = FormatError
