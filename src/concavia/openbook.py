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
"""

from __future__ import annotations

import cmath
import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import brentq
from .atlas import (
    ChartPoint,
    Params,
    canonical_rep,
    map_Phi,
    phi,
    same_point,
)
from .certs import Certificate
from .errors import ConfigError, DomainError

__all__ = [
    "Part",
    "MPoint",
    "TwistSpec",
    "check_disjointness",
    "monodromy_delta",
    "q_chart",
    "q_inverse",
    "q_jacobian_det",
    "conjugation_check",
    "mapping_torus_k",
    "map_Phi_prime",
    "phi_prime_cr_residual",
    "embed_g",
    "welldef_check",
    "default_seam_samples",
    "sample_page",
    "corner_tori",
    "twist_winding",
    "export_point_cloud",
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
    closed-form inverse (numeric bisection is used when absent).
    """

    a: float
    b: float
    tau: object
    dtau: object
    tau_inv: object = None

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ConfigError(f"need 0 < a < b, got a={self.a}, b={self.b}")
        if abs(self.tau(self.a)) > _MTOL or abs(self.tau(self.b) - 1.0) > _MTOL:
            raise ConfigError("tau must satisfy tau(a) = 0 and tau(b) = 1")
        for r in np.linspace(self.a, self.b, 33):
            if self.dtau(float(r)) <= 0:
                raise ConfigError(f"tau must be strictly increasing; dtau <= 0 at r={r}")

    @classmethod
    def affine(cls, a: float, b: float) -> "TwistSpec":
        span = b - a
        return cls(a=a, b=b,
                   tau=lambda r: (r - a) / span,
                   dtau=lambda r: 1.0 / span,
                   tau_inv=lambda t: a + t * span)

    @classmethod
    def from_params(cls, params: Params) -> "TwistSpec":
        return cls.affine(params.a, params.b)

    def invert(self, t: float) -> float:
        if self.tau_inv is not None:
            return float(self.tau_inv(t))
        if t <= 0.0:
            return self.a
        if t >= 1.0:
            return self.b
        return float(brentq(lambda r: self.tau(r) - t, self.a, self.b, xtol=1e-15))


def _check_page_radius(spec: TwistSpec, z: complex) -> float:
    r = abs(z)
    if not (spec.a - _MTOL <= r <= spec.b + _MTOL):
        raise DomainError(f"|z| = {r} outside the page annulus [{spec.a}, {spec.b}]")
    return r


# ---------------------------------------------------------------------------
# Disjointness of the page from its lambda-orbit
# ---------------------------------------------------------------------------

def check_disjointness(params: Params, k_range: int = 8) -> Certificate:
    """``(lambda^k A) n A`` is empty for ``0 < |k| <= k_range``, ``|lambda| in [c, rho1]``.

    ``k = 0`` is excluded (the identity always meets ``A``).  Besides the
    modulus-grid sweep, the two sufficient inequalities ``rho1*b < a`` and
    ``a/rho1 > b`` are verified; they settle every ``|k| >= 1`` at once.
    """
    a, b = params.a, params.b
    margin_shrink = a - params.rho1 * b
    margin_expand = a / params.rho1 - b
    worst = min(margin_shrink, margin_expand)
    worst_tag = None
    for lam in np.linspace(params.c, params.rho1, 64):
        for k in range(-k_range, k_range + 1):
            if k == 0:
                continue
            scale = lam ** k
            if scale < 1.0:
                gap = a - scale * b      # scaled interval sits below [a, b]
            else:
                gap = scale * a - b      # scaled interval sits above [a, b]
            if gap < worst:
                worst, worst_tag = gap, (float(lam), k)
    return Certificate(
        name="orbit_disjointness",
        grid=f"64 moduli x k in [-{k_range}, {k_range}] \\ {{0}}",
        margin=float(worst),
        passed=bool(worst > 0 and margin_shrink > 0 and margin_expand > 0),
        worst_point=worst_tag,
        details={"margin_shrink": float(margin_shrink),
                 "margin_expand": float(margin_expand)})


# ---------------------------------------------------------------------------
# Monodromy and its conjugate normal form
# ---------------------------------------------------------------------------

def monodromy_delta(spec: TwistSpec, z: complex) -> complex:
    """``delta(z) = z e^{2 pi i tau(|z|)}`` — modulus-preserving page twist."""
    r = _check_page_radius(spec, z)
    return z * cmath.exp(2j * math.pi * spec.tau(r))


def q_chart(spec: TwistSpec, z: complex) -> tuple[complex, float]:
    """``q(z) = (zbar/|z|, tau(|z|))`` onto ``S^1 x [0, 1]``."""
    r = _check_page_radius(spec, z)
    return z.conjugate() / r, float(spec.tau(r))


def q_inverse(spec: TwistSpec, w: complex, t: float) -> complex:
    """``q^{-1}(w, t) = tau^{-1}(t) * wbar``."""
    if abs(abs(w) - 1.0) > 1e-9:
        raise DomainError(f"q_inverse needs |w| = 1, got {abs(w)}")
    if not (-1e-12 <= t <= 1.0 + 1e-12):
        raise DomainError(f"q_inverse needs t in [0, 1], got {t}")
    return spec.invert(min(max(t, 0.0), 1.0)) * w.conjugate()


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


def conjugation_check(spec: TwistSpec, samples=None, n: int = 10 ** 4,
                      seed: int = 20240604, tol: float = 1e-9) -> Certificate:
    """Certify ``q o delta o q^{-1} = (w, t) -> (w e^{-2 pi i t}, t)``.

    This is the machine witness that the monodromy is the *left-handed*
    annulus twist: the conjugated map rotates the circle backwards by the
    collar parameter.
    """
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = [(cmath.exp(2j * math.pi * th), float(t))
                   for th, t in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))]
    err_w, err_t = [], []
    for w, t in samples:
        z = q_inverse(spec, w, t)
        w_out, t_out = q_chart(spec, monodromy_delta(spec, z))
        w_ref = w * cmath.exp(-2j * math.pi * t)
        err_w.append(abs(w_out - w_ref))
        err_t.append(abs(t_out - t))
    k, worst = Certificate.sup_error(np.maximum(err_w, err_t))
    worst_at = None if k is None else samples[k]
    return Certificate(
        name="left_twist_conjugation",
        grid=f"{len(samples)} samples on S^1 x [0,1]",
        margin=tol - worst,
        passed=bool(worst < tol),
        worst_point=worst_at,
        details={"sup_error": worst, "tol": tol})


def mapping_torus_k(spec: TwistSpec, z: complex, t: float) -> tuple[complex, complex]:
    """``k([(z, t)]) = (z e^{2 pi i tau(|z|)(t - 1)}, e^{2 pi i t})``."""
    r = _check_page_radius(spec, z)
    if not (-1e-12 <= t <= 1.0 + 1e-12):
        raise DomainError(f"mapping torus parameter t = {t} outside [0, 1]")
    return (z * cmath.exp(2j * math.pi * spec.tau(r) * (t - 1.0)),
            cmath.exp(2j * math.pi * t))


def twist_winding(spec: TwistSpec, n: int = 256) -> int:
    """Winding number of ``e^{2 pi i tau(r)}`` as ``r`` runs ``a -> b``."""
    rs = np.linspace(spec.a, spec.b, n)
    total = 0.0
    prev = 0.0
    for r in rs:
        ang = 2.0 * math.pi * spec.tau(float(r))
        d = ang - prev
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
        prev = ang
    return round(total / (2 * math.pi))


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


def default_seam_samples(params: Params, n: int = 1000,
                         seed: int = 20240605) -> list[MPoint]:
    """Random collar-boundary samples, half on each seam circle."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        r = params.a if k % 2 == 0 else params.b
        th1, th2 = rng.uniform(0, 2 * math.pi, 2)
        out.append(MPoint.collar(params, r * cmath.exp(1j * th1),
                                 cmath.exp(1j * th2)))
    return out


def welldef_check(params: Params, seam_samples=None, tol: float = 1e-8) -> Certificate:
    """Both seams close up in the quotient atlas.

    Seam ``|u1| = a``: the collar and torus placements agree directly (the
    gluing is the identity).  Seam ``|u1| = b``: after ``psi_2(u1, u2) =
    (u1 u2, u2)`` the two raw annulus representatives differ by *exactly one*
    integer shift — the certificate asserts the shift value, matching
    ``w1_collar = w2 * w1_torus`` in raw coordinates.
    """
    if seam_samples is None:
        seam_samples = default_seam_samples(params)
    err_1, err_2 = [], []  # per sample: annulus (relative) and fiber coordinate errors
    n_a = n_b = 0
    shifts = set()
    for p in seam_samples:
        if p.part is not Part.COLLAR or abs(abs(p.u2) - 1.0) > _MTOL:
            raise DomainError("welldef_check needs collar-boundary samples (|u2| = 1)")
        on_a = abs(abs(p.u1) - params.a) <= _MTOL
        if on_a:
            n_a += 1
            collar_img = embed_g(params, p)
            torus_img = map_Phi_prime(params, p.u1, p.u2)  # psi_1 = identity
            ok = same_point(params, collar_img, torus_img, tol)
            err_1.append(0.0 if ok else math.inf)
            err_2.append(0.0)
        else:
            n_b += 1
            # collar side, pushed through the V -> annulus transition
            wc1, wc2 = (params.c * p.u1 * phi(params.c / p.u2, 0),
                        params.c / p.u2)
            # torus side after psi_2
            wt1, wt2 = _phi_prime_raw(params, p.u1 * p.u2, p.u2)
            c1, _, n1 = canonical_rep(wc1, wc2)
            c2, _, n2 = canonical_rep(wt1, wt2)
            shifts.add(n2 - n1)
            err_1.append(abs(c1 - c2) / max(1.0, abs(c2)))
            err_2.append(abs(wc2 - wt2))
    k, worst = Certificate.sup_error(np.maximum(err_1, err_2))
    worst_at = None if k is None else (seam_samples[k].u1, seam_samples[k].u2)
    shift_ok = shifts == {1}
    return Certificate(
        name="seam_welldefinedness",
        grid=f"{n_a} inner + {n_b} outer seam samples",
        margin=tol - worst,
        passed=bool(worst < tol and shift_ok),
        worst_point=worst_at,
        details={"sup_error": worst, "psi2_shifts": sorted(shifts), "tol": tol})


# ---------------------------------------------------------------------------
# Pages, binding, corners
# ---------------------------------------------------------------------------

def sample_page(params: Params, theta: float, n: int) -> list[ChartPoint]:
    """``n`` embedded points of the page over the circle angle ``theta``."""
    if n < 2:
        raise DomainError("sample_page needs n >= 2")
    u2 = cmath.exp(1j * theta)
    out = []
    for j, r in enumerate(np.linspace(params.a, params.b, n)):
        u1 = float(r) * cmath.exp(2j * math.pi * j / n)
        out.append(embed_g(params, MPoint.torus(params, u1, u2)))
    return out


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


def export_point_cloud(params: Params, path: str, n_pages: int = 8,
                       per_page: int = 24, n_binding: int = 64,
                       n_corner: int = 12) -> int:
    """CSV dump of pages, binding circles, and corner tori; returns row count."""
    rows = []

    def add(part: str, u1: complex, u2: complex, cp: ChartPoint) -> None:
        rows.append([part, u1.real, u1.imag, u2.real, u2.imag, cp.chart.value,
                     cp.z1.real, cp.z1.imag, cp.z2.real, cp.z2.imag])

    for i in range(n_pages):
        theta = 2 * math.pi * i / n_pages
        u2 = cmath.exp(1j * theta)
        for j, r in enumerate(np.linspace(params.a, params.b, per_page)):
            u1 = float(r) * cmath.exp(2j * math.pi * j / per_page)
            add("Torus", u1, u2, embed_g(params, MPoint.torus(params, u1, u2)))
    for r in (params.a, params.b):
        for i in range(n_binding):
            u1 = r * cmath.exp(2j * math.pi * i / n_binding)
            p = MPoint.collar(params, u1, 0.0)
            add("Collar", u1, 0.0, embed_g(params, p))
    for tag, pts in corner_tori(params, n_corner).items():
        k = 0
        for i in range(n_corner):
            for j in range(n_corner):
                r = params.a if tag == "inner" else params.b
                u1 = r * cmath.exp(2j * math.pi * i / n_corner)
                u2 = cmath.exp(2j * math.pi * j / n_corner)
                add("Torus", u1, u2, pts[k])
                k += 1
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["part", "u1_re", "u1_im", "u2_re", "u2_im", "chart",
                    "z1_re", "z1_im", "z2_re", "z2_im"])
        w.writerows(rows)
    return len(rows)
