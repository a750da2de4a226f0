"""Verification certificates.

A Certificate records the outcome of one sampled check: what grid was swept,
the worst-case margin observed, whether the check passed, and (on failure or
near-misses) the offending sample.  Certificates are plain data and JSON
serializable, so CLI reports can embed them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Certificate"]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / complex numbers into JSON-friendly values."""
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sampled verification sweep.

    Attributes
    ----------
    name:
        Short identifier of the property checked.
    grid:
        Human-readable description of the sample grid (sizes, ranges).
    margin:
        Worst-case margin over the grid.  Positive margins mean "passed with
        room"; the precise meaning (eigenvalue, inequality gap, ...) is up to
        the check and stated in ``details``.
    passed:
        Overall verdict.
    worst_point:
        The sample realizing the worst margin, if meaningful.
    details:
        Free-form extras (counts, sub-margins, tolerances used).
    """

    name: str
    grid: str
    margin: float
    passed: bool
    worst_point: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "margin": float(self.margin),
            "passed": bool(self.passed),
            "worst_point": _jsonable(self.worst_point),
            "details": _jsonable(self.details),
        }

    @staticmethod
    def sup_error(errors) -> tuple[int | None, float]:
        """Index and value of the largest of the per-sample ``errors``;
        ``(None, 0.0)`` if no error is positive.

        A non-finite error counts as ``inf``, so the certificate fails: a
        running ``max`` drops NaN (``max(0.0, nan)`` is ``0.0``) and ``np.max``
        propagates it, which would pass over a NaN error or leave a NaN
        margin.  Combine several error terms per sample with ``np.maximum``,
        which keeps NaN.
        """
        import numpy as np  # here, so that importing the package loads no numpy

        e = np.asarray(errors, dtype=float).ravel()  # k is a flat index
        e = np.where(np.isfinite(e), e, np.inf)
        if not np.any(e > 0):
            return None, 0.0
        k = int(np.argmax(e))
        return k, float(e[k])

    @staticmethod
    def merge(name: str, certs: list["Certificate"]) -> "Certificate":
        """Combine a non-empty list of sub-certificates: min of margins,
        conjunction of verdicts."""
        worst = min(certs, key=lambda c: c.margin)
        return Certificate(
            name=name,
            grid="; ".join(c.grid for c in certs),
            margin=worst.margin,
            passed=all(c.passed for c in certs),
            worst_point=worst.worst_point,
            details={"parts": [c.to_dict() for c in certs]},
        )
