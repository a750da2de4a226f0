"""Open-book model of the boundary 3-sphere and its atlas embedding.

The abstract model is ``M = (dA x B^2) u_psi (A x S^1)`` for the page
annulus ``A = {a <= |z| <= b}``: two solid-torus collars glued to the
mapping-torus part along the seams ``S^1(a) x S^1`` (by the identity) and
``S^1(b) x S^1`` (by ``psi_2(w1, w2) = (w1 w2, w2)``).  The monodromy is
``delta(z) = z e^{2 pi i tau(|z|)}``; conjugating by the chart
``q(z) = (zbar/|z|, tau(|z|))`` turns it into the left-handed annulus twist
``(z, t) -> (z e^{-2 pi i t}, t)``, which is what ``conjugation_check``
certifies numerically.  ``embed_g`` places the model inside the surface
atlas; ``welldef_check`` confirms the seams close up in the quotient, the
outer seam through exactly one integer shift.

The twist and chart maps are elementwise (a scalar in gives a Python scalar
out), and so must be a ``TwistSpec``'s profiles; both sweeps call each map
once on their whole sample arrays.  Their samples do not depend on the
parameters: the Kronecker points, their twisted images and the seam angle
factors are built once per process and size, as read-only arrays, and only
the parameter-dependent part is computed on each call.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import GOLD, SILVER, brentq, kronecker, sample_table
from .atlas import (
    ChartPoint,
    Params,
    _py,
    _require,
    _values,
    canonical_rep,
    map_Phi,
    phi,
)
from .certs import Certificate
from .errors import ConfigError, DomainError

__all__ = [
    "Part",
    "MPoint",
    "TwistSpec",
    "monodromy_delta",
    "q_chart",
    "q_inverse",
    "q_jacobian_det",
    "conjugation_check",
    "map_Phi_prime",
    "phi_prime_cr_residual",
    "embed_g",
    "welldef_check",
    "corner_tori",
    "twist_winding",
]

_MTOL = 1e-12


class Part(enum.Enum):
    COLLAR = "Collar"
    TORUS = "Torus"


@dataclass(frozen=True)
class MPoint:
    """A point of the abstract open-book model, tagged by part.

    Collar: ``|u1| in {a, b}`` (which boundary circle), ``|u2| <= 1``.
    Torus: ``u1`` in the page annulus, ``|u2| = 1``.
    """

    part: Part
    u1: complex
    u2: complex

    @classmethod
    def collar(cls, params: Params, u1: complex, u2: complex) -> "MPoint":
        p = cls(Part.COLLAR, complex(u1), complex(u2))
        p.validate(params)
        return p

    @classmethod
    def torus(cls, params: Params, u1: complex, u2: complex) -> "MPoint":
        p = cls(Part.TORUS, complex(u1), complex(u2))
        p.validate(params)
        return p

    def validate(self, params: Params) -> None:
        r1, r2 = abs(self.u1), abs(self.u2)
        if self.part is Part.COLLAR:
            if min(abs(r1 - params.a), abs(r1 - params.b)) > _MTOL:
                raise DomainError(
                    f"collar point needs |u1| in {{a, b}}, got {r1}")
            if r2 > 1.0 + _MTOL:
                raise DomainError(f"collar point needs |u2| <= 1, got {r2}")
        else:
            if not (params.a - _MTOL <= r1 <= params.b + _MTOL):
                raise DomainError(
                    f"torus point needs a <= |u1| <= b, got {r1}")
            if abs(r2 - 1.0) > _MTOL:
                raise DomainError(f"torus point needs |u2| = 1, got {r2}")


@dataclass(frozen=True)
class TwistSpec:
    """Page radii plus the twist profile ``tau: [a, b] -> [0, 1]``.

    ``tau`` must be an increasing diffeomorphism with ``tau(a) = 0`` and
    ``tau(b) = 1``; ``dtau`` is its derivative, ``tau_inv`` an optional
    closed-form inverse (Brent's method per sample is used when absent).
    All three must be elementwise: an array in gives the array of values.
    """

    a: float
    b: float
    tau: object
    dtau: object
    tau_inv: object = None

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ConfigError(f"need 0 < a < b, got a={self.a}, b={self.b}")
        r = np.linspace(self.a, self.b, 33)
        try:  # one call each: a scalar-only tau or dtau fails here
            tau, dtau = (np.asarray(f(r), dtype=float) for f in (self.tau, self.dtau))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"tau and dtau must be elementwise: {err}") from err
        if tau.shape != r.shape or dtau.shape != r.shape:
            raise ConfigError("tau and dtau must be elementwise: one value per entry")
        if abs(tau[0]) > _MTOL or abs(tau[-1] - 1.0) > _MTOL:
            raise ConfigError("tau must satisfy tau(a) = 0 and tau(b) = 1")
        if not np.all(dtau > 0):
            bad = r[np.argmin(dtau > 0)]
            raise ConfigError(f"tau must be strictly increasing; dtau <= 0 at r={bad}")

    @classmethod
    def affine(cls, a: float, b: float) -> "TwistSpec":
        span = b - a
        return cls(a=a, b=b,
                   tau=lambda r: (r - a) / span,
                   dtau=lambda r: np.full(np.shape(r), 1.0 / span),
                   tau_inv=lambda t: a + t * span)

    @classmethod
    def from_params(cls, params: Params) -> "TwistSpec":
        return cls.affine(params.a, params.b)

    def invert(self, t):
        """``tau^{-1}(t)``, elementwise; a Python float for a scalar ``t``."""
        t = _values(t, float)
        if self.tau_inv is not None:
            return _py(_values(self.tau_inv(t), float))
        r = np.where(t <= 0.0, self.a, self.b)
        for i in np.flatnonzero((0.0 < t) & (t < 1.0)):
            s = float(t.flat[i])
            r.flat[i] = brentq(lambda x: self.tau(x) - s, self.a, self.b, xtol=1e-15)
        return _py(r[()])


def _check_page_radius(spec: TwistSpec, z):
    r = np.hypot(z.real, z.imag)  # numpy's complex-array abs can be an ulp off
    _require((spec.a - _MTOL <= r) & (r <= spec.b + _MTOL),
             f"|z| outside the page annulus [{spec.a}, {spec.b}]", r)
    return r


# ---------------------------------------------------------------------------
# Monodromy and its conjugate normal form
# ---------------------------------------------------------------------------

def monodromy_delta(spec: TwistSpec, z):
    """``delta(z) = z e^{2 pi i tau(|z|)}`` — modulus-preserving page twist."""
    z = _values(z, complex)
    r = _check_page_radius(spec, z)
    return _py(z * np.exp(2j * np.pi * spec.tau(r)))


def q_chart(spec: TwistSpec, z):
    """``q(z) = (zbar/|z|, tau(|z|))`` onto ``S^1 x [0, 1]``."""
    z = _values(z, complex)
    r = _check_page_radius(spec, z)
    return _py(z.conjugate() / r), _py(_values(spec.tau(r), float))


def q_inverse(spec: TwistSpec, w, t):
    """``q^{-1}(w, t) = tau^{-1}(t) * wbar``."""
    w, t = _values(w, complex), _values(t, float)
    _require(abs(abs(w) - 1.0) <= 1e-9, "q_inverse needs |w| = 1", abs(w))
    _require((-1e-12 <= t) & (t <= 1.0 + 1e-12), "q_inverse needs t in [0, 1]", t)
    return _py(spec.invert(np.clip(t, 0.0, 1.0)) * w.conjugate())


def q_jacobian_det(spec: TwistSpec, z: complex, h: float = 1e-6) -> float:
    """Finite-difference Jacobian determinant of ``q`` at an interior point.

    Computed in the local chart (relative circle angle, collar parameter);
    positive determinant = orientation-preserving.
    """
    w0, _ = q_chart(spec, z)

    def F(x: float, y: float) -> np.ndarray:
        w, t = q_chart(spec, complex(x, y))
        return np.array([cmath.phase(w / w0), t])

    x, y = z.real, z.imag
    Fx = (F(x + h, y) - F(x - h, y)) / (2 * h)
    Fy = (F(x, y + h) - F(x, y - h)) / (2 * h)
    return float(Fx[0] * Fy[1] - Fx[1] * Fy[0])


@sample_table
def _twist_samples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``conjugation_check``'s samples ``(w, t)``, ``n`` golden/silver
    Kronecker points, and the left twist's image ``w e^{-2 pi i t}`` of them."""
    x, t = kronecker(n, (GOLD, SILVER)).T
    w = np.exp(2j * np.pi * x)
    # a copy of the column, so that the table does not hold all of kronecker's array
    return w, t.copy(), w * np.exp(-2j * np.pi * t)


def conjugation_check(spec: TwistSpec, n: int = 10 ** 4, tol: float = 1e-9) -> Certificate:
    """Certify ``q o delta o q^{-1} = (w, t) -> (w e^{-2 pi i t}, t)``.

    This is the machine witness that the monodromy is the *left-handed*
    annulus twist: the conjugated map rotates the circle backwards by the
    collar parameter.  It is checked on the ``n`` golden/silver Kronecker
    samples of :func:`_twist_samples`.
    """
    w, t, w_ref = _twist_samples(n)
    w_out, t_out = q_chart(spec, monodromy_delta(spec, q_inverse(spec, w, t)))
    k, worst = Certificate.sup_error(np.maximum(abs(w_out - w_ref), abs(t_out - t)))
    worst_at = None if k is None else (w[k].item(), t[k].item())
    return Certificate(
        name="left_twist_conjugation",
        grid=f"{t.size} samples on S^1 x [0,1]",
        margin=tol - worst,
        passed=bool(worst < tol),
        worst_point=worst_at,
        details={"sup_error": worst, "tol": tol})


def twist_winding(spec: TwistSpec, n: int = 256) -> int:
    """Winding number of ``e^{2 pi i tau(r)}`` as ``r`` runs ``a -> b``."""
    ang = 2.0 * np.pi * np.asarray(spec.tau(np.linspace(spec.a, spec.b, n)))
    steps = (np.diff(ang, prepend=0.0) + np.pi) % (2 * np.pi) - np.pi  # into [-pi, pi)
    return round(steps.sum() / (2 * np.pi))


# ---------------------------------------------------------------------------
# Embedding into the atlas
# ---------------------------------------------------------------------------

def _phi_prime_raw(params: Params, w1: complex, w2: complex) -> tuple[complex, complex]:
    """Un-canonicalized annulus coordinates of ``Phi'(w1, w2) = Phi(w1, c^{-1} w2)``."""
    f = params.c / w2
    return w1 * phi(f, 0), f


def map_Phi_prime(params: Params, w1: complex, w2: complex) -> ChartPoint:
    """Trivialized torus-part embedding: ``Phi'(w1, w2) = Phi(w1, c^{-1} w2)``."""
    if not (params.a - _MTOL <= abs(w1) <= params.b + _MTOL):
        raise DomainError(f"Phi' needs w1 in the page annulus, got |w1| = {abs(w1)}")
    if abs(abs(w2) - 1.0) > 1e-9:
        raise DomainError(f"Phi' needs |w2| = 1, got {abs(w2)}")
    return map_Phi(params, w1, w2 / params.c, k=0)


def phi_prime_cr_residual(params: Params, w1: complex, w2: complex,
                          h: float = 1e-6) -> float:
    """``|d/dw1bar|`` of the fiberwise map, by central differences.

    Uses the fixed-branch coordinates so the canonical-representative choice
    cannot jump inside the stencil.
    """

    def F(x: float, y: float) -> complex:
        return _phi_prime_raw(params, complex(x, y), w2)[0]

    x, y = w1.real, w1.imag
    dFdx = (F(x + h, y) - F(x - h, y)) / (2 * h)
    dFdy = (F(x, y + h) - F(x, y - h)) / (2 * h)
    return abs(0.5 * (dFdx + 1j * dFdy))


def embed_g(params: Params, p: MPoint) -> ChartPoint:
    """The three-case placement of the model in the surface atlas.

    Torus part -> ``Phi'(u1, u2)``; inner collar (``|u1| = a``) ->
    ``V``-chart ``(u1, c^{-1} u2)``; outer collar (``|u1| = b``) ->
    ``V``-chart ``(c u1, c^{-1} u2)``.
    """
    p.validate(params)
    if p.part is Part.TORUS:
        return map_Phi_prime(params, p.u1, p.u2)
    r1 = abs(p.u1)
    if abs(r1 - params.a) <= _MTOL:
        return ChartPoint.v(params, p.u1, p.u2 / params.c)
    return ChartPoint.v(params, params.c * p.u1, p.u2 / params.c)


@sample_table
def _seam_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit factors ``e^{i th1}``, ``e^{i th2}`` of ``n`` golden/silver
    Kronecker angle pairs."""
    th1, th2 = 2 * math.pi * kronecker(n, (GOLD, SILVER)).T
    return np.exp(1j * th1), np.exp(1j * th2)


def _seam_arrays(params: Params, n: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """``n`` seam samples ``(u1, u2)`` at :func:`_seam_angles`, alternately
    on ``|u1| = a, b``; ``u2`` is the read-only table itself."""
    e1, e2 = _seam_angles(n)
    r = np.where(np.arange(n) % 2 == 0, params.a, params.b)
    return r * e1, e2


def welldef_check(params: Params, tol: float = 1e-8) -> Certificate:
    """Both seams close up in the quotient atlas.

    Seam ``|u1| = a``: the gluing is the identity, and the collar's ``V``
    point ``(u1, c^{-1} u2)`` and ``Phi'(u1, u2)`` agree by construction
    (``same_point`` carries the ``V`` point through the same ``map_Phi``), so
    only their domains are checked: the ``V`` chart, the ``phi`` band and
    the orbit-shift range.  Seam ``|u1| = b``: after
    ``psi_2(u1, u2) = (u1 u2, u2)`` the two raw annulus representatives
    differ by *exactly one* integer shift — the certificate asserts the
    shift value, matching ``w1_collar = w2 * w1_torus`` in raw coordinates.
    It is checked on the 1000 seam samples of :func:`_seam_arrays`.
    """
    u1, u2 = _seam_arrays(params)
    r1, c = abs(u1), params.c
    on_a = abs(r1 - params.a) <= _MTOL
    f = c / u2  # the fiber coordinate w2 = 1/z2 of every placement
    z1 = np.where(on_a, u1, c * u1)  # embed_g's V point (z1, u2/c)
    rz1 = abs(z1)
    _require((1.0 < rz1) & (rz1 < params.rho2), "V chart needs 1 < |z1| < rho2", rz1)
    rz2 = abs(u2) / c
    _require((1.0 / params.rho1 < rz2) & (rz2 < 1.0 / params.rho0),
             "phi band needs 1/rho1 < |z2| < 1/rho0", rz2)
    p = phi(f, 0)
    # collar side pushed into the annulus: Phi'(u1, u2) on the inner seam
    c1, _, n1 = canonical_rep(z1 * p, f)
    # outer seam, torus side after psi_2
    b = ~on_a
    c2, _, n2 = canonical_rep(u1[b] * u2[b] * p[b], f[b])
    err = np.zeros(u1.size)
    err[b] = abs(c1[b] - c2) / np.maximum(1.0, abs(c2))
    shifts = sorted(set((n2 - n1[b]).tolist()))
    k, worst = Certificate.sup_error(err)
    worst_at = None if k is None else (u1[k].item(), u2[k].item())
    n_a = int(on_a.sum())
    return Certificate(
        name="seam_welldefinedness",
        grid=f"{n_a} inner + {u1.size - n_a} outer seam samples",
        margin=tol - worst,
        passed=bool(worst < tol and shifts == [1]),
        worst_point=worst_at,
        details={"sup_error": worst, "psi2_shifts": shifts, "tol": tol})


# ---------------------------------------------------------------------------
# Corners
# ---------------------------------------------------------------------------

def corner_tori(params: Params, n: int = 16) -> dict[str, list[ChartPoint]]:
    """Images of the two boundary tori ``dA x S^1`` (the corner locus)."""
    out: dict[str, list[ChartPoint]] = {}
    for tag, r in (("inner", params.a), ("outer", params.b)):
        pts = []
        for i in range(n):
            for j in range(n):
                u1 = r * cmath.exp(2j * math.pi * i / n)
                u2 = cmath.exp(2j * math.pi * j / n)
                pts.append(embed_g(params, MPoint.torus(params, u1, u2)))
        out[tag] = pts
    return out

