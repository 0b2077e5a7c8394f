"""Exception types raised by the library.

Everything derives from RSRepairError (a ValueError) so callers can catch
broadly.  The CLI exits 1 on every class but CrossCheckMismatch:

    RSRepairError       the base, never raised bare (exit 1)
    ParamViolation      bad parameters or input (exit 1)
    InvalidScheme       a bad repair scheme or scheme file (exit 1)
    UnsupportedRegime   no bound covers valid parameters (exit 1)
    SingularMatrix      a singular or inconsistent linear system (exit 1)
    CrossCheckMismatch  a broken identity or internal invariant (exit 2)
"""


class RSRepairError(ValueError):
    """Base class for all library errors."""


class ParamViolation(RSRepairError):
    """Parameters or input violate a precondition."""


class InvalidScheme(RSRepairError):
    """Repair scheme violates a validity condition (degree or rank)."""


class UnsupportedRegime(RSRepairError):
    """No implemented bound applies to the requested parameters."""


class SingularMatrix(RSRepairError):
    """Matrix inversion or solve on a singular or inconsistent system."""


class CrossCheckMismatch(RSRepairError):
    """Independent computation routes disagree or an internal invariant
    fails; indicates a real bug."""
