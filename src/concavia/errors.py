"""Exception types shared across the package.

Every failure mode that a caller may reasonably want to catch gets its own
class.  All of them derive from :class:`ConcaviaError` so that the CLI can
map "anything we raised on purpose" to a clean exit code.
"""

from __future__ import annotations

__all__ = [
    "ConcaviaError",
    "ConfigError",
    "ChainViolation",
    "DomainError",
    "FeasibilityError",
    "Infeasible",
    "BranchError",
    "CorridorViolation",
    "NotRegular",
    "NotContact",
    "Exhausted",
    "FoliationError",
    "VerificationError",
]


class ConcaviaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ConcaviaError):
    """A configuration document could not be parsed or is missing fields."""


class ChainViolation(ConfigError):
    """A parameter fails the ordered inequality chain.

    Carries the name of the first violated inequality so diagnostics can
    point at the exact constraint.
    """

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = f"parameter chain violated: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DomainError(ConcaviaError):
    """A point or argument lies outside the declared domain of an operation."""


class FeasibilityError(ConcaviaError):
    """An interpolation/extension problem has no solution; names the binding constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = f"infeasible: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class Infeasible(FeasibilityError):
    """A two-point join problem violates the strict slope/chord ordering."""


class BranchError(ConcaviaError):
    """A parametric profile branch does not satisfy its slope precondition."""


class CorridorViolation(ConcaviaError):
    """A convex join cannot stay above its floor."""


class NotRegular(ConcaviaError):
    """A level-set function has (numerically) vanishing gradient on the grid."""


class NotContact(ConcaviaError):
    """The complex-tangency term of a level-set function is not positive.

    Carries the offending sample so certificates can report a witness.
    """

    def __init__(self, msg: str, witness=None):
        self.witness = witness
        super().__init__(msg)


class Exhausted(ConcaviaError):
    """A bounded search ran out of budget without finding a passing value."""


class FoliationError(ConcaviaError):
    """Two slices of a sphere family intersect; reports the pair and the ray."""


class VerificationError(ConcaviaError):
    """A verification sweep failed; the attached certificate has details."""

    def __init__(self, msg: str, certificate=None):
        self.certificate = certificate
        super().__init__(msg)
