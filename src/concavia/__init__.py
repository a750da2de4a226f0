"""concavia: certificate-based checks for an annulus-fibered surface model.

Importing the package loads only :mod:`concavia.errors`; ``Certificate``
(and with it :mod:`dataclasses`) is imported on first use, so that the
numpy-free CLI front end starts without either.
"""

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


def __getattr__(name: str):
    if name == "Certificate":
        from .certs import Certificate
        return Certificate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
