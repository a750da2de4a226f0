"""Charts, parameters and gluing maps of the annulus-fibered surface model.

The model is assembled from three coordinate charts:

* ``V``        -- product of an annulus ``1 < |z1| < rho2`` with the disk
  ``|z2| < 1/rho0`` (``z2 = 0`` allowed),
* ``V'``       -- a thinner strip ``1 < |z1| < s`` over the annulus
  ``1/rho1 < |z2| < 1/rho0``,
* ``W``        -- the quotient of ``C* x {rho0 < |w2| < rho1}`` by the
  integer action ``n . (w1, w2) = (w1 * w2**n, w2)``; points are stored as
  canonical orbit representatives.

``V`` and ``V'`` overlap as subsets of C^2 and are additionally glued along
``U' = {|z2| < |z1|}`` by ``psi(z1, z2) = (z1/z2, z2)``.  The map ``Phi``
carries both into the quotient annulus chart via the multivalued factor
:func:`phi`.  All verification modules sit on top of the operations here.

:class:`Params` is the validated parameter record every operation takes.
:func:`validate_params` builds it from the numpy-free chain check
:func:`concavia.config.check_chain`, which the CLI front end runs alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# the numpy-free chain check of the CLI front end; the default values are re-exported
from .config import _RAW_FIELDS, DEFAULT_PARAM_VALUES, check_chain
from .errors import DomainError

__all__ = [
    "Chart",
    "ChartPoint",
    "Params",
    "DEFAULT_PARAM_VALUES",
    "validate_params",
    "default_params",
    "phi",
    "canonical_rep",
    "map_Phi",
    "map_psi",
    "same_point",
    "in_complement_C",
]

# Orbit shifts larger than this are treated as out of the supported range;
# every point of the model needs |n| of at most a few to canonicalize.
MAX_ORBIT_SHIFT = 64


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Validated model parameters plus the derived page radii ``a`` and ``b``.

    Instances are only built through :func:`validate_params`, which checks the
    full inequality chain.  ``a = rho2 - eps`` and ``b = 1/c + eps`` are the
    inner/outer radii of the page annulus ``A``.
    """

    rho0: float
    rho1: float
    rho2: float
    s: float
    c: float
    eps: float
    c1: float
    c2: float
    zeta1: float
    zeta2: float
    a: float
    b: float

    def raw_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _RAW_FIELDS}

    def to_dict(self) -> dict:
        out = self.raw_dict()
        out["a"] = self.a
        out["b"] = self.b
        out["validated"] = True
        return out


def validate_params(values: dict) -> Params:
    """Check the ordered inequality chain and return a frozen Params.

    Raises ``ConfigError`` on missing/non-finite fields and ``ChainViolation``
    naming the first violated inequality otherwise (see
    :func:`concavia.config.check_chain`).
    """
    return Params(**check_chain(values))


def default_params() -> Params:
    return validate_params(DEFAULT_PARAM_VALUES)


# ---------------------------------------------------------------------------
# Chart points
# ---------------------------------------------------------------------------

class Chart(enum.Enum):
    V = "V"
    V_PRIME = "V_prime"
    W_ANNULUS = "W_annulus"


@dataclass(frozen=True)
class ChartPoint:
    """A point of the model in one fixed chart.

    ``z1, z2`` are the coordinates in that chart; for ``W_ANNULUS`` they are
    the canonical orbit representative ``(w1, w2)``.  Use the classmethods,
    which validate chart membership against a parameter set elementwise:
    arrays give a point of arrays, scalars one of Python complex numbers.
    """

    chart: Chart
    z1: complex
    z2: complex

    @classmethod
    def v(cls, params: Params, z1, z2) -> "ChartPoint":
        _require_moduli(z1, z2, ((1.0, params.rho2, "V chart needs 1 < |z1| < rho2"),
                                 (-math.inf, 1.0 / params.rho0, "V chart needs |z2| < 1/rho0")))
        return cls(Chart.V, _as_complex(z1), _as_complex(z2))

    @classmethod
    def v_prime(cls, params: Params, z1, z2) -> "ChartPoint":
        _require_moduli(z1, z2, ((1.0, params.s, "V' chart needs 1 < |z1| < s"),
                                 (1.0 / params.rho1, 1.0 / params.rho0,
                                  "V' chart needs 1/rho1 < |z2| < 1/rho0")))
        return cls(Chart.V_PRIME, _as_complex(z1), _as_complex(z2))

    @classmethod
    def w(cls, params: Params, w1: complex, w2: complex) -> "ChartPoint":
        """Canonicalized elementwise by :func:`canonical_rep`."""
        r2 = np.abs(w2)
        _require(np.asarray(w1) != 0, "W chart needs w1 != 0", w1)
        _require((params.rho0 < r2) & (r2 < params.rho1), "W chart needs rho0 < |w2| < rho1", r2)
        w1c, w2c, _ = canonical_rep(w1, w2)
        return cls(Chart.W_ANNULUS, w1c, w2c)


# ---------------------------------------------------------------------------
# The multivalued gluing factor
# ---------------------------------------------------------------------------

def phi(w, k: int = 0):
    """Branch ``k`` of the multivalued gluing factor.

    With ``l = Log w + 2*pi*i*k`` (principal log), returns
    ``exp(l**2 / (4*pi*i) - l/2)``.  Consecutive branches satisfy the exact
    relation ``phi(w, k) = w**k * phi(w, 0)``.  Accepts scalars or numpy
    arrays of nonzero complex numbers.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise DomainError("phi is undefined at w = 0")
    ell = np.log(w) + 2j * np.pi * k
    out = np.exp(ell * ell / (4j * np.pi) - 0.5 * ell)
    if out.ndim == 0:
        return complex(out)
    return out


def _require_moduli(z1, z2, bounds) -> None:
    """Raise ``DomainError`` as a loop over the samples would: at the first
    whose ``|z1|``, else ``|z2|``, leaves its ``(lo, hi, msg)`` in ``bounds``.
    ``np.hypot`` of the parts is Python's ``abs`` bit for bit."""
    r = np.broadcast_arrays(*(np.hypot(np.real(z), np.imag(z)) for z in (z1, z2)))
    ok = [((lo < rk) & (rk < hi)).ravel() for rk, (lo, hi, _) in zip(r, bounds)]
    bad = np.flatnonzero(~(ok[0] & ok[1]))
    if bad.size:
        k = int(ok[0][bad[0]])   # the first bound that the sample breaks
        raise DomainError(f"{bounds[k][2]}, got |z{k + 1}|={float(r[k].flat[bad[0]])}")


def _as_complex(z):
    """Python complex for a scalar, a complex array otherwise."""
    return complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)


def _require(ok, msg: str, got) -> None:
    """Raise ``DomainError(msg)`` naming the first sample (flat index) where
    the numpy bool(s) ``ok`` fail; ``got`` holds the offending values."""
    if ok.all() if ok.ndim else ok:  # bool() of a 0-d value skips the reduction
        return
    i = int(np.argmin(ok))
    where = f" at sample {i}" if ok.ndim else ""
    raise DomainError(f"{msg}{where}, got {np.broadcast_to(got, ok.shape).flat[i]}")


def _values(x, dtype):
    """``x`` as an array, or as a numpy scalar when 0-d (cheaper to compute on)."""
    return np.asarray(x, dtype=dtype)[()]


def _py(x):
    """A numpy scalar result as a Python scalar; an array result unchanged."""
    return x if x.ndim else x.item()


def canonical_rep(w1, w2):
    """Canonical orbit representative of ``(w1, w2)`` under the integer action.

    Returns ``(w1', w2, n)`` where ``w1' = w1 * w2**n`` and
    ``|w2|**(1/2) <= |w1'| < |w2|**(-1/2)``.  The shift ``n`` is unique
    because each orbit meets the band exactly once.  Elementwise on arrays;
    scalars give ``(complex, complex, int)``.
    """
    w1, w2 = _values(w1, complex), _values(w2, complex)
    r2 = abs(w2)
    _require(w1 != 0, "canonical_rep needs w1 != 0", w1)
    _require((0.0 < r2) & (r2 < 1.0), "canonical_rep needs 0 < |w2| < 1", r2)
    n = np.floor(0.5 - np.log(abs(w1)) / np.log(r2))
    _require(abs(n) <= MAX_ORBIT_SHIFT,
             f"orbit shift exceeds supported range {MAX_ORBIT_SHIFT}", n)
    # a float n takes numpy's integer-power path too; int() skips astype's cost
    return _py(w1 * w2 ** n), _py(w2), n.astype(int) if n.ndim else int(n)


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

def map_Phi(params: Params, z1: complex, z2: complex, k: int = 0) -> ChartPoint:
    """Send a point of the gluing region into the quotient annulus chart.

    ``(z1, z2) -> [(z1 * phi(1/z2, k), 1/z2)]``, canonicalized.  The result is
    independent of the branch ``k`` (exactly, up to the integer action).
    Elementwise on arrays, giving a ``ChartPoint`` of arrays; scalars give
    one of Python complex numbers, computed with Python's own arithmetic.
    """
    r2 = np.abs(z2)
    _require(np.asarray(z1) != 0, "map_Phi needs z1 != 0", z1)
    _require((1.0 / params.rho1 < r2) & (r2 < 1.0 / params.rho0),
             "map_Phi needs 1/rho1 < |z2| < 1/rho0", r2)
    w2 = 1.0 / z2
    return ChartPoint.w(params, z1 * phi(w2, k), w2)


def map_psi(params: Params, z1: complex, z2: complex) -> ChartPoint:
    """Gluing of the strip into ``V``: ``(z1, z2) -> (z1/z2, z2)`` on ``U'``.

    Defined on ``U' = {(z1, z2) in V' : |z2| < |z1|}``; the image modulus
    satisfies ``1 < |z1/z2| < s*rho1``.
    """
    r1, r2 = abs(z1), abs(z2)
    if not (1.0 < r1 < params.s) or not (1.0 / params.rho1 < r2 < 1.0 / params.rho0):
        raise DomainError("map_psi input must lie in V'")
    if r2 >= r1:
        raise DomainError(f"map_psi needs |z2| < |z1|, got |z2|={r2} >= |z1|={r1}")
    return ChartPoint.v(params, z1 / z2, z2)


def _in_phi_band(params: Params, p: ChartPoint) -> bool:
    """Does the chart point have a representative in the quotient annulus?"""
    if p.chart is Chart.W_ANNULUS:
        return True
    if p.z1 == 0:
        return False
    return 1.0 / params.rho1 < abs(p.z2) < 1.0 / params.rho0


def _to_annulus(params: Params, p: ChartPoint) -> ChartPoint:
    if p.chart is Chart.W_ANNULUS:
        return p
    return map_Phi(params, p.z1, p.z2, k=0)


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol


def _same_annulus_point(p: ChartPoint, q: ChartPoint, tol: float) -> bool:
    # Canonical representatives of nearly-equal points can disagree by one
    # shift when |w1| sits at the band edge, so compare a few neighbors.
    # Elementwise: points holding arrays give a bool array.
    scale = tol * np.maximum(1.0, abs(q.z1))
    near = [_close(p.z1 * p.z2 ** n, q.z1, scale) for n in (-1, 0, 1)]
    return _py(_close(p.z2, q.z2, tol) & np.logical_or.reduce(near))


def same_point(params: Params, p: ChartPoint, q: ChartPoint, tol: float = 1e-9) -> bool:
    """Do two chart points represent the same point of the glued model?

    Handles identity overlap of ``V`` and ``V'`` (literal coordinate
    equality), the ``psi`` gluing, and identification through the quotient
    annulus chart, all within ``tol``.  Two annulus-chart points holding
    arrays (from an array :func:`map_Phi`) compare elementwise, giving a
    bool array; every other route takes scalar points.
    """
    if p.chart == q.chart:
        if p.chart is Chart.W_ANNULUS:
            return _same_annulus_point(p, q, tol)
        if _close(p.z1, q.z1, tol) and _close(p.z2, q.z2, tol):
            return True
    # V and V' overlap as subsets of C^2: same literal coordinates.
    charts = {p.chart, q.chart}
    if charts == {Chart.V, Chart.V_PRIME}:
        if _close(p.z1, q.z1, tol) and _close(p.z2, q.z2, tol):
            return True
        vp = p if p.chart is Chart.V_PRIME else q
        v = q if p.chart is Chart.V_PRIME else p
        if abs(vp.z2) < abs(vp.z1):  # psi applies
            if _close(vp.z1 / vp.z2, v.z1, tol) and _close(vp.z2, v.z2, tol):
                return True
    # Fall through: compare in the quotient annulus when both sides admit it.
    if _in_phi_band(params, p) and _in_phi_band(params, q):
        return _same_annulus_point(_to_annulus(params, p), _to_annulus(params, q), tol)
    return False


def in_complement_C(params: Params, p: ChartPoint) -> bool:
    """Is the point outside the removed band ``Z = {zeta1 < |z1| < zeta2}``?

    ``Z`` lives in ``V``; a point fails the test iff some representative of
    it in ``V`` has modulus inside the band.  Strip points reachable through
    ``psi`` land at moduli below ``s*rho1 < zeta1`` and never meet ``Z``.
    """
    z1_lo, z1_hi = params.zeta1, params.zeta2
    if p.chart in (Chart.V, Chart.V_PRIME):
        # For strip points the only V-representatives are the identity
        # overlap (same modulus) and the psi image (modulus < s*rho1 < zeta1).
        return not (z1_lo < abs(p.z1) < z1_hi)
    # Quotient annulus point: enumerate orbit representatives that pull back
    # into V.  Pulling back through any branch of Phi gives
    # |z1| = |w1| / |phi(w2, 0)| * |w2|**(-k).
    base = abs(p.z1) / abs(phi(p.z2, 0))
    lw2 = math.log(abs(p.z2))
    for k in range(-MAX_ORBIT_SHIFT, MAX_ORBIT_SHIFT + 1):
        m = math.exp(math.log(base) - k * lw2)
        if 1.0 < m < params.rho2 and z1_lo < m < z1_hi:
            return False
    return True
