"""concavia: certificate-based checks for an annulus-fibered surface model."""

from .certs import Certificate
from .errors import (
    BranchError,
    ChainViolation,
    ConcaviaError,
    ConfigError,
    CorridorViolation,
    DomainError,
    Exhausted,
    FeasibilityError,
    FoliationError,
    Infeasible,
    NotContact,
    NotRegular,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "BranchError",
    "ChainViolation",
    "ConcaviaError",
    "ConfigError",
    "CorridorViolation",
    "DomainError",
    "Exhausted",
    "FeasibilityError",
    "FoliationError",
    "Infeasible",
    "NotContact",
    "NotRegular",
    "VerificationError",
    "__version__",
]
