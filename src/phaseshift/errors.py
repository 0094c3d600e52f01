"""Exception types shared across the package.

Every guard in the numerical pipeline raises a PhaseshiftError, so callers
can tell configuration problems (ConfigInvalid) apart from numerical
failures; only the argument checks of Grid and PotentialSpec still raise a
plain ValueError.
"""


class PhaseshiftError(Exception):
    """Base class for all package-specific errors."""


class TabulatedGridMismatch(PhaseshiftError):
    """A tabulated potential's declared grid differs from the requested grid."""


class EvenPointCount(PhaseshiftError):
    """Grid point count is even (or too small) for composite Simpson."""


class WronskianViolation(PhaseshiftError):
    """Wave-function Wronskian drifted beyond tolerance; integration untrustworthy."""


class NonpositiveK(PhaseshiftError):
    """Wavenumber must be strictly positive."""


class GridMismatch(PhaseshiftError):
    """Operands were sampled on different grids."""


class OrderOutOfRange(PhaseshiftError):
    """Requested perturbation order is outside the supported range."""


class InsufficientFValues(PhaseshiftError):
    """Fewer correction values supplied than the requested order needs."""


class TruncationTooHigh(PhaseshiftError):
    """Truncation order exceeds the assembled series order."""


class DegenerateSweep(PhaseshiftError):
    """Coupling ladder that does not halve or leaves the perturbative window."""


class NonFiniteResult(PhaseshiftError, ValueError):
    """A grid function, hierarchy value or series correction is inf or NaN."""


class ConfigInvalid(PhaseshiftError):
    """Job configuration failed validation."""
