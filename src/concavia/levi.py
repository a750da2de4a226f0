"""Wirtinger/Levi-form numerics on C^2 by central finite differences.

Conventions (fixed here, tested, and used everywhere downstream):

* ``J`` is the standard complex structure; on real coordinates
  ``(x1, y1, x2, y2)`` it acts as ``(a, b, c, d) -> (-b, a, -d, c)``.
* ``d^C u = du o J``.
* Two-forms use the 1/2 (Cartan) convention:
  ``d beta(v, w) = (v(beta w) - w(beta v)) / 2`` and
  ``(alpha ^ beta)(v, w) = (alpha(v) beta(w) - alpha(w) beta(v)) / 2``.
  Under this convention ``-d d^C u (v, Jv) = 2 * v* L v`` where ``L`` is the
  complex Hessian ``[d^2 u / dz_i dzbar_j]`` (the *bridge factor* is 2; with
  the determinant convention it would be 4).

Two stencils: :func:`jet`, a batched 33-point central difference on C^2
(relative step ``1e-5``) returning value, real gradient and real Hessian of
a generic field, and :func:`polar_jet`, 17 points in ``(|z1|, |z2|)`` at
steps ``h`` and ``2h`` for torus-invariant fields such as ``gamma``, which
:func:`polar_lift` makes the exact 4-D jet at each orbit's real point.  Its
points (:func:`polar_stencil`) and its differences (:func:`polar_diff`) are
also separate functions.  The rest is linear algebra on jets: the Levi 2x2
and :func:`exp_jet`, which composes ``exp(lam * (f - shift))`` exactly from
a jet of ``f``, so exponentials are never differenced.  No symbolic engine.
:func:`log_lambda` finds the ``lambda`` of ``exp(lambda * gamma)`` from
exact jets of ``gamma`` in log coordinates (:class:`LogJet`), with no
stencil: a real 2x2 rank-one problem per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certs import Certificate
from .errors import DomainError, Exhausted, NotContact

__all__ = [
    "ScalarField",
    "jet",
    "exp_jet",
    "polar_stencil",
    "polar_diff",
    "polar_jet",
    "polar_lift",
    "levi_min_eig",
    "levi_min_eig_batch",
    "is_strictly_psh",
    "hartogs_boundary_test",
    "LogJet",
    "log_lambda",
]


# the zero bands of strict plurisubharmonicity (is_strictly_psh, log_lambda)
# and of hartogs_boundary_test
_PSH_TOL = 1e-8
_HARTOGS_TOL = 1e-5
#: the rounding bound of a closed-form value, in ulps of the value per unit
#: of its cancellation factors
ROUNDING_ULPS = 64


@dataclass(frozen=True)
class ScalarField:
    """Named real-valued C^2 function of ``(z1, z2)``.

    ``fn`` must accept numpy arrays of ``z1, z2`` (vectorized evaluation is
    what makes the grid sweeps cheap).
    """

    fn: object
    name: str = "field"

    def __call__(self, z1, z2):
        return self.fn(z1, z2)


# ---------------------------------------------------------------------------
# Jets: the 4-D stencil for generic fields and the radial one
# ---------------------------------------------------------------------------

def jet(fn, z1, z2, h_rel: float = 1e-5):
    """Value, real gradient and real Hessian of ``fn`` at each point.

    One vectorized 33-point central-difference stencil on ``(x1, y1, x2,
    y2)`` with step ``h_rel * max(1, |z1|, |z2|)``: the 8 axis shifts give
    the gradient and the Hessian diagonal, the 24 diagonal shifts the mixed
    second derivatives.  ``fn`` is called once, on all ``33 N`` shifted
    points stacked shift by shift, so it must be elementwise: a point's
    value may not depend on the other points in the batch.  A scalar result
    is broadcast.  Returns ``(value[N], grad[N, 4], hess[N, 4, 4])``.
    """
    z1 = np.asarray(z1, dtype=complex).ravel()
    z2 = np.asarray(z2, dtype=complex).ravel()
    h = h_rel * np.maximum(1.0, np.maximum(np.abs(z1), np.abs(z2)))
    d = [(h, 0), (1j * h, 0), (0, h), (0, 1j * h)]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    shifts = [(0, 0)]
    for s1, s2 in d:
        shifts += [(s1, s2), (-s1, -s2)]
    for i, j in pairs:
        s1, s2 = d[i][0] + d[j][0], d[i][1] + d[j][1]
        t1, t2 = d[i][0] - d[j][0], d[i][1] - d[j][1]
        shifts += [(s1, s2), (t1, t2), (-t1, -t2), (-s1, -s2)]
    Z1 = np.concatenate([z1 + s1 for s1, _ in shifts])
    Z2 = np.concatenate([z2 + s2 for _, s2 in shifts])
    vals = np.broadcast_to(np.asarray(fn(Z1, Z2), dtype=float), Z1.shape)
    rows = iter(vals.reshape(len(shifts), z1.size))

    u0 = next(rows)
    grad = np.empty((z1.size, 4))
    hess = np.empty((z1.size, 4, 4))
    for i in range(4):
        up, dn = next(rows), next(rows)
        grad[:, i] = (up - dn) / (2 * h)
        hess[:, i, i] = (up - 2 * u0 + dn) / (h * h)
    for i, j in pairs:
        pp, pm, mp, mm = next(rows), next(rows), next(rows), next(rows)
        hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4 * h * h)
    return np.array(u0), grad, hess


def _polar_step(r1, r2, h_rel):
    """Raveled radii and the polar stencil's step ``h_rel * max(1, r1, r2)``."""
    r1, r2 = (np.asarray(r, dtype=float).ravel() for r in (r1, r2))
    return r1, r2, h_rel * np.maximum(1.0, np.maximum(r1, r2))


def polar_stencil(r1, r2, h_rel: float = 1e-5):
    """The radii ``(R1, R2)`` at which :func:`polar_jet` reads its function:
    ``(r1 + i m h, r2 + j m h)`` for ``i, j in {-1, 0, 1}``, ``m = 1, 2`` and
    ``h = h_rel * max(1, r1, r2)``, 17 per point, stacked shift by shift.  A
    ring crossing an axis reads the function at the mirrored radius."""
    r1, r2, h = _polar_step(r1, r2, h_rel)
    ring = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]  # row-major, no centre
    shifts = [(0, 0)] + [(m * i, m * j) for m in (1, 2) for i, j in ring]
    return (np.concatenate([r1 + i * h for i, _ in shifts]),
            np.concatenate([r2 + j * h for _, j in shifts]))


def polar_diff(u, r1, r2, h_rel: float = 1e-5):
    """:func:`polar_jet` from the values ``u`` of its function on
    ``polar_stencil(r1, r2, h_rel)``; a scalar ``u`` is broadcast."""
    r1, _, h = _polar_step(r1, r2, h_rel)
    u = np.broadcast_to(np.asarray(u, dtype=float), (17 * r1.size,)).reshape(17, -1)
    jets = []
    for m in (1, 2):   # the ring at m h as a 3 x 3 block around the centre
        v, s = np.insert(u[8 * m - 7:8 * m + 1], 4, u[0], axis=0).reshape(3, 3, -1), m * h
        jets.append((u[0], (v[2, 1] - v[0, 1]) / (2 * s), (v[1, 2] - v[1, 0]) / (2 * s),
                     (v[2, 1] - 2 * v[1, 1] + v[0, 1]) / (s * s),
                     (v[1, 2] - 2 * v[1, 1] + v[1, 0]) / (s * s),
                     (v[2, 2] - v[2, 0] - v[0, 2] + v[0, 0]) / (4 * s * s)))
    return tuple(jets)


def polar_jet(fn, r1, r2, h_rel: float = 1e-5):
    """Radial jets ``(u, u_r1, u_r2, u_r1r1, u_r2r2, u_r1r2)`` at steps ``h``
    and ``2h`` of a function of ``(|z1|, |z2|)``, as a pair.

    ``fn`` is called once, on all of :func:`polar_stencil`; :func:`polar_diff`
    differences its values.
    """
    R1, R2 = polar_stencil(r1, r2, h_rel)
    return polar_diff(fn(R1 + 0j, R2 + 0j), r1, r2, h_rel)


def polar_lift(pj, r1, r2):
    """A :func:`polar_jet` as the exact 4-D jet ``(value, grad, hess)`` at the
    real points ``(r1, 0, r2, 0)``, whose angular diagonals are ``u_rj / r_j``.
    The torus acts by isometries commuting with ``J``: elsewhere on the orbit
    ``d^C`` and ``dd^C`` are these, turned."""
    u, g1, g2, h11, h22, h12 = pj
    zero = np.zeros_like(u)
    hess = np.zeros(u.shape + (4, 4))
    hess[:, 0, 0], hess[:, 2, 2], hess[:, 0, 2], hess[:, 2, 0] = h11, h22, h12, h12
    hess[:, 1, 1], hess[:, 3, 3] = g1 / r1, g2 / r2
    return u, np.stack([g1, zero, g2, zero], axis=1), hess


def exp_jet(jet, lam: float, shift: float = 0.0):
    """Jet of ``u = exp(lam * (f - shift))`` composed exactly from a jet of ``f``.

    Returns ``(u, lam u g, lam u (H + lam g g^T))``.  The exponential itself
    is never differenced, so its steep growth at large ``lam`` adds no
    stencil error.
    """
    f, g, H = jet
    u = np.exp(lam * (f - shift))
    lu = lam * u
    return u, lu[:, None] * g, lu[:, None, None] * (H + lam * g[:, :, None] * g[:, None, :])


def _levi_entries(hess):
    """``(L11, L22, L12)`` of the complex Hessian, from real Hessians ``[N, 4, 4]``."""
    L11 = 0.25 * (hess[:, 0, 0] + hess[:, 1, 1])
    L22 = 0.25 * (hess[:, 2, 2] + hess[:, 3, 3])
    L12 = 0.25 * (hess[:, 0, 2] + hess[:, 1, 3]) + 0.25j * (hess[:, 0, 3] - hess[:, 1, 2])
    return L11, L22, L12


def _min_eig(a, c, b):
    """Smallest eigenvalue of the Hermitian ``[[a, b], [conj(b), c]]``, closed form."""
    return (a + c) / 2.0 - np.sqrt(((a - c) / 2.0) ** 2 + (b.real ** 2 + b.imag ** 2))


def levi_min_eig(hess) -> np.ndarray:
    """Smallest Levi eigenvalue from real Hessians ``[N, 4, 4]``.

    The closed-form 2x2 Hermitian eigenvalue avoids per-point linear algebra.
    """
    return _min_eig(*_levi_entries(hess))


def levi_min_eig_batch(fn, z1, z2, h_rel: float = 1e-5) -> np.ndarray:
    """Smallest Levi eigenvalue at each point of two complex arrays, from one
    batched :func:`jet`."""
    _, _, hess = jet(fn, z1, z2, h_rel)
    return levi_min_eig(hess)


def is_strictly_psh(u, grid) -> Certificate:
    """Certificate that the Levi form of ``u`` exceeds ``1e-8`` over a point
    grid, by :func:`levi_min_eig_batch`."""
    pts = list(grid)
    z1 = np.array([p[0] for p in pts], dtype=complex)
    z2 = np.array([p[1] for p in pts], dtype=complex)
    eigs = levi_min_eig_batch(u, z1, z2)
    i = int(np.argmin(eigs))
    margin = float(eigs[i])
    return Certificate(
        name="strictly_psh",
        grid=f"{len(pts)} points",
        margin=margin,
        passed=bool(margin > _PSH_TOL),
        worst_point=(complex(z1[i]), complex(z2[i])),
        details={"tol": _PSH_TOL})


# ---------------------------------------------------------------------------
# Hartogs-type boundary
# ---------------------------------------------------------------------------

def hartogs_boundary_test(psi, grid) -> Certificate:
    """Sign agreement for the rotational domain ``{|z2| < exp(-psi(z1))}``.

    Side (i): the planar Laplacian of ``psi`` on the grid.  Side (ii): the
    Levi form of the defining function ``rho = log|z2| + psi(z1)`` restricted
    to the complex tangency of the boundary, at matched samples, computed by
    the full C^2 finite-difference machinery (not the separable shortcut).
    Passes iff the two sides agree in sign (within a ``1e-5`` zero band)
    pointwise; the certificate notes the common regime.  Both sides are read
    from :func:`jet` at its default step.
    """
    zs = np.asarray(list(grid), dtype=complex).ravel()
    z2 = np.exp(-np.asarray(psi(zs), dtype=float))  # boundary samples at angle 0

    def rho(z1, z2):
        return np.log(np.abs(z2)) + np.asarray(psi(z1), dtype=float)

    _, _, hess_psi = jet(lambda z1, z2: psi(z1), zs, np.zeros_like(zs))
    lap = hess_psi[:, 0, 0] + hess_psi[:, 1, 1]
    _, g, hess = jet(rho, zs, z2)
    L11, L22, L12 = _levi_entries(hess)
    dz1 = 0.5 * (g[:, 0] - 1j * g[:, 1])
    dz2 = 0.5 * (g[:, 2] - 1j * g[:, 3])
    # Levi form on the complex tangent direction w = (-dz2, dz1) / |dz|
    levi_t = (L11 * np.abs(dz2) ** 2 + L22 * np.abs(dz1) ** 2
              - 2.0 * np.real(L12 * dz1 * np.conj(dz2))) / (np.abs(dz1) ** 2 + np.abs(dz2) ** 2)

    sign_i = np.where(np.abs(lap) <= _HARTOGS_TOL, 0, np.sign(lap))
    sign_ii = np.where(np.abs(levi_t) <= _HARTOGS_TOL, 0, np.sign(levi_t))
    agree = sign_i == sign_ii
    ok = bool(np.all(agree))
    if np.all(sign_i > 0):
        regime = "Convex"
    elif np.all(sign_i < 0):
        regime = "Concave"
    elif np.all(sign_i == 0):
        regime = "degenerate"
    else:
        regime = "mixed"
    worst = None
    if not ok:
        k = int(np.argmin(agree))
        worst = (complex(zs[k]),)
    margin = float(np.min(np.sign(sign_i * sign_ii) * np.minimum(np.abs(lap), np.abs(levi_t)))
                   ) if regime != "degenerate" else 0.0
    return Certificate(
        name="hartogs_boundary",
        grid=f"{zs.size} planar samples",
        margin=margin,
        passed=ok,
        worst_point=worst,
        details={"regime": regime, "tol": _HARTOGS_TOL})


# ---------------------------------------------------------------------------
# Closed-form lambda for exp(lambda * gamma), from jets in log coordinates
# ---------------------------------------------------------------------------

class LogJet(NamedTuple):
    """A torus-invariant field's jet at the real points ``(r1, r2)``, in the
    log coordinates ``x_j = log|z_j|``: the gradient ``(g1, g2)``, the
    Hessian ``[[h11, h12], [h12, h22]]`` and, in closed form, its
    determinant ``det``, the contact numerator ``N = h11 g2^2 - 2 h12 g1 g2
    + h22 g1^2`` and the page numerator ``P = g2 h11 - g1 h12``; ``kappa``
    is the cancellation factor of the field's value, by which its relative
    rounding error exceeds a few ulps."""

    r1: np.ndarray
    r2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    det: np.ndarray
    N: np.ndarray
    P: np.ndarray
    kappa: np.ndarray


def _rank_one_roots(j: LogJet, tol: float) -> tuple[np.ndarray, ...]:
    """``(Ht11, Ht22, det Ht, Nt, root, bound)`` per point of ``j``, for
    :func:`log_lambda`: the tol-shifted Hessian's diagonal, its determinant
    and contact numerator, the root ``max(0, -det Ht / Nt)`` and its
    rounding bound."""
    s1, s2 = 4.0 * tol * j.r1 * j.r1, 4.0 * tol * j.r2 * j.r2
    det = j.det - s1 * j.h22 - s2 * j.h11 + s1 * s2
    N = j.N - s1 * j.g2 * j.g2 - s2 * j.g1 * j.g1
    with np.errstate(divide="ignore", invalid="ignore"):
        cancel = ((np.abs(j.h11 * j.h22) + j.h12 * j.h12 + np.abs(s1 * j.h22)
                   + np.abs(s2 * j.h11) + s1 * s2) / np.abs(det)
                  + (np.abs(j.h11) * j.g2 * j.g2 + 2.0 * np.abs(j.h12 * j.g1 * j.g2)
                     + np.abs(j.h22) * j.g1 * j.g1 + s1 * j.g2 * j.g2 + s2 * j.g1 * j.g1)
                  / np.abs(N))
        root = np.maximum(0.0, -det / N)
        bound = np.where(root > 0, ROUNDING_ULPS * np.finfo(float).eps * j.kappa * cancel * root,
                         0.0)
    return j.h11 - s1, j.h22 - s2, det, N, root, bound


def log_lambda(j: LogJet, lambda_max: float, grid: str) -> tuple[float, Certificate]:
    """Closed-form ``lam`` making ``exp(lam * u)`` strictly psh at the points
    of ``j``, the jets of a field ``u`` of ``x_j = log|z_j|``.

    There the complex Hessian of ``exp(lam * u)`` is congruent to ``H + lam
    g g^T``, with ``g`` and ``H`` the gradient and Hessian in ``x``.  The
    criterion is ``Levi(u) + lam du du* > tol I`` in ``z`` (``tol = 1e-8``),
    that is ``Ht + lam g g^T`` positive definite with ``Ht = H - 4 tol
    diag(r1^2, r2^2)``.  Its determinant is ``det Ht + lam Nt`` (``Nt`` the
    contact numerator of ``Ht``), so where ``Nt > 0`` each point's root is
    ``max(0, -det Ht / Nt)``.  ``lam`` is the largest root padded by its
    rounding bound: ``ROUNDING_ULPS`` ulps of the root times ``kappa``
    times the sum of the cancellation factors of ``det Ht`` and ``Nt``
    (their terms' magnitudes over the value); ``error_estimate`` is that
    bound.  The margin
    is the least eigenvalue of ``Ht + lam g g^T``, computed as its
    determinant over the larger eigenvalue; ``grid`` names the points.

    A jet that is not finite raises ``DomainError``, ``Nt <= 0``
    ``NotContact`` with a witness (the exponential cannot repair the level
    curve's curvature), and ``lam > lambda_max`` ``Exhausted``, each at the
    first such point.
    """
    def point(i):
        return complex(j.r1[i]), complex(j.r2[i])

    h11, h22, det, N, root, bound = _rank_one_roots(j, _PSH_TOL)
    finite = np.isfinite(np.array(j)).all(axis=0)
    if not finite.all():
        raise DomainError(f"jets are not finite at {point(np.argmin(finite))!r}")
    if (N <= 0).any():
        i = np.argmax(N <= 0)
        raise NotContact(f"contact term {N[i]:.3g} <= 0 at {point(i)!r}", witness=point(i))
    per_point = root + bound
    k = np.argmax(per_point)
    lam = float(per_point[k])
    if lam > lambda_max:
        raise Exhausted(f"lambda {lam:.6g} > {lambda_max:g} needed at {point(k)!r}")

    a, c, b = h11 + lam * j.g1 * j.g1, h22 + lam * j.g2 * j.g2, j.h12 + lam * j.g1 * j.g2
    eigs = (det + lam * N) / ((a + c) / 2.0 + np.hypot((a - c) / 2.0, b))
    i = np.argmin(eigs)
    gnorm = np.hypot(j.g1 / j.r1, j.g2 / j.r2)
    return lam, Certificate(
        name="find_lambda", grid=f"{eigs.size} points: {grid}",
        margin=float(eigs[i]), passed=bool(eigs[i] > 0), worst_point=point(i),
        details={"lambda": lam, "method": "closed_form", "coordinates": "log|z1|, log|z2|",
                 "margin_units": "least eigenvalue of H - 4 tol diag(|z1|^2, |z2|^2) "
                                 "+ lambda g g^T, with the Hessian H and gradient g "
                                 "in the coordinates",
                 "tol": _PSH_TOL, "tol_form": "Levi(u) + lambda du du* > tol I in z",
                 "error_estimate": float(bound[k]),
                 "gradient_norm_range": [float(gnorm.min()), float(gnorm.max())]})
