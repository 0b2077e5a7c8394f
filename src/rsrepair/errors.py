"""Exception types raised by the library.

Everything derives from RSRepairError so callers can catch broadly; the CLI
maps RSRepairError to exit code 1 and CrossCheckMismatch to exit code 2.
"""


class RSRepairError(ValueError):
    """Base class for all library errors."""


class NotPrime(RSRepairError):
    """Characteristic p is not a prime."""


class NoIrreducible(RSRepairError):
    """No irreducible modulus of the requested degree was found."""


class TooLarge(RSRepairError):
    """Field or enumeration exceeds the configured size budget."""


class DependentBasis(RSRepairError):
    """Claimed basis elements are linearly dependent over the subfield."""


class ZeroScalar(RSRepairError):
    """Scaling by zero where a unit is required."""


class WNotInImage(RSRepairError):
    """Preimage requested for a subspace not contained in the map's image."""


class DegreeTooHigh(RSRepairError):
    """Polynomial degree exceeds the bound imposed by the code."""


class InvalidScheme(RSRepairError):
    """Repair scheme violates a validity condition (degree or rank)."""


class SingularM(RSRepairError):
    """Change-of-basis matrix is not invertible over the subfield."""


class SingularMatrix(RSRepairError):
    """Matrix inversion or solve on a singular system."""


class NonIntegerSum(RSRepairError):
    """Character sum expected to be a rational integer is not."""


class DegreeSharesCharacteristic(RSRepairError):
    """Polynomial degree is divisible by the field characteristic."""


class UnsupportedRegime(RSRepairError):
    """No implemented bound applies to the requested parameters."""


class BudgetExceeded(RSRepairError):
    """Brute-force search rejected: parameter range too large."""


class Infeasible(RSRepairError):
    """Optimization constraints admit no feasible point."""


class DependentBetas(RSRepairError):
    """Annihilator polynomial requested for dependent field elements."""


class NoSolution(RSRepairError):
    """Linear system has no solution."""


class NoSuitableTheta(RSRepairError):
    """No primitive element satisfies the construction's side conditions."""


class ParamViolation(RSRepairError):
    """Construction parameters violate a precondition."""


class CrossCheckMismatch(RSRepairError):
    """Independent computation routes disagree; indicates a real bug."""
