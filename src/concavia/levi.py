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
also separate functions, so that a caller can read one field on several
stencils in one call; :func:`lambda_stencil` is the polar stencil of a
grid's distinct radius pairs.  The rest is linear algebra on jets: the
Levi 2x2 and :func:`exp_jet`, which composes ``exp(lam * (f - shift))``
exactly from a jet of ``f``, so exponentials are never differenced.  No
symbolic engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certs import Certificate
from .errors import DomainError, Exhausted, NotContact, NotRegular

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
    "lambda_stencil",
    "find_lambda",
    "lambda_from_values",
]


# the zero bands of is_strictly_psh and hartogs_boundary_test
_PSH_TOL = 1e-8
_HARTOGS_TOL = 1e-5


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
# Closed-form lambda for exp(lambda * gamma)
# ---------------------------------------------------------------------------

def _rank_one_terms(L, B, tol):
    """``(det A, c)`` such that ``det(A + lam B) = det A + lam c`` per point.

    ``A = Levi(gamma) - tol I`` and ``B = dgamma dgamma*`` has rank one, so
    ``det B = 0`` and the determinant is linear in ``lam``; ``c = A11 B22 +
    A22 B11 - 2 Re(A12 conj(B12))`` is ``A`` on the complex tangent of the
    level set, scaled by ``|dgamma|^2``.  ``L``, ``B``: ``(11, 22, 12)`` entries.
    """
    A11, A22, A12 = L[0] - tol, L[1] - tol, L[2]
    B11, B22, B12 = B
    return (A11 * A22 - (A12 * A12.conj()).real,
            A11 * B22 + A22 * B11 - 2.0 * (A12 * B12.conj()).real)


def _radii(pts):
    """``z1, z2, |z1|, |z2|`` of a point list."""
    z1 = np.array([p[0] for p in pts], dtype=complex)
    z2 = np.array([p[1] for p in pts], dtype=complex)
    return z1, z2, np.abs(z1), np.abs(z2)


def _polar_grid(pts, h_rel):
    """:func:`_radii`; ``DomainError`` at the first point whose polar stencil
    reaches an axis (``min(r1, r2) <= 2h``)."""
    z1, z2, r1, r2 = _radii(pts)
    r1, r2, h = _polar_step(r1, r2, h_rel)
    near = np.minimum(r1, r2) <= 2.0 * h
    if near.any():
        i = int(np.argmax(near))
        raise DomainError(f"polar stencil of step {2.0 * h[i]:.3g} reaches an axis at {pts[i]!r}")
    return z1, z2, r1, r2


def _distinct_rows(r1, r2):
    """``(first, where)``: the index of the first occurrence of each distinct
    ``(r1, r2)`` row, in grid order, and each row's place in that list."""
    seen, first, where = {}, [], []
    for i, row in enumerate(zip(r1.tolist(), r2.tolist())):
        j = seen.setdefault(row, len(first))
        if j == len(first):
            first.append(i)
        where.append(j)
    return np.array(first, dtype=np.intp), np.array(where, dtype=np.intp)


def lambda_stencil(grid, h_rel: float = 1e-5):
    """The radii at which :func:`find_lambda` reads ``gamma``: the
    :func:`polar_stencil` of the grid's distinct ``(|z1|, |z2|)`` rows, each
    once, in the order of their first occurrence."""
    _, _, r1, r2 = _radii(list(grid))
    first, _ = _distinct_rows(r1, r2)
    return polar_stencil(r1[first], r2[first], h_rel)


def find_lambda(gamma, grid, lambda_max: float = 1e4, tol: float = 1e-8,
                h_rel: float = 1e-5) -> tuple[float, Certificate]:
    """Closed-form ``lam`` making ``e^{lam gamma}`` strictly psh on ``grid``.

    ``gamma`` must depend on ``|z1|, |z2|`` only; it is called once, on the
    grid's :func:`lambda_stencil`, after the axis check, and
    :func:`lambda_from_values` does the rest.
    """
    pts = list(grid)
    _polar_grid(pts, h_rel)
    R1, R2 = lambda_stencil(pts, h_rel)
    return lambda_from_values(gamma(R1 + 0j, R2 + 0j), pts, lambda_max, tol, h_rel)


def lambda_from_values(u, grid, lambda_max: float = 1e4, tol: float = 1e-8,
                       h_rel: float = 1e-5) -> tuple[float, Certificate]:
    """:func:`find_lambda` from the values ``u`` of ``gamma`` on
    ``lambda_stencil(grid, h_rel)``.

    ``u`` is expanded to every grid point, repeats included, and the Levi
    form of ``gamma`` at steps ``h`` and ``2h`` is read from its
    :func:`polar_diff`, lifted.  ``Levi(gamma) + lam dgamma
    dgamma*`` is positive definite above the root ``-det A / c`` of
    :func:`_rank_one_terms` when ``c > 0``, so each point's ``lam`` is
    ``max(0, -det A / c)``: ``a`` at step ``h``, ``b`` at ``2h``.  ``lam =
    max_p [max(a, b) + |a - b|]`` passes at both steps plus its Richardson
    error, and can only grow with the grid.

    Preconditions, named at the first failing point in grid order and
    checked in this order: a stencil clear of the axes (``min(r1, r2) >
    2h``) and a finite Levi form and gradient at both steps (else
    ``DomainError``), ``|grad gamma| >= 1e-6`` (else ``NotRegular``) and ``c
    > 0`` (else ``NotContact`` with a witness; the exponential cannot repair
    the complex tangency of the level set).  ``lam > lambda_max`` raises
    ``Exhausted``.  The margin is the least eigenvalue of ``Levi(gamma) +
    lam dgamma dgamma*`` at ``h`` (``-dd^C = 2 Levi``); ``error_estimate``
    is ``|a - b|`` where ``lam`` is set.
    """
    pts = list(grid)
    z1, z2, r1, r2 = _polar_grid(pts, h_rel)
    first, where = _distinct_rows(r1, r2)
    u = np.broadcast_to(np.asarray(u, dtype=float), (17 * first.size,))
    u = u.reshape(17, -1)[:, where].ravel()
    lifted = [polar_lift(pj, r1, r2) for pj in polar_diff(u, r1, r2, h_rel)]
    (La, Ba, gnorm), (Lb, Bb, gnorm_b) = (
        (_levi_entries(H), _levi_entries(g[:, :, None] * g[:, None, :]),
         np.hypot(g[:, 0], g[:, 2])) for _, g, H in lifted)
    (det_a, c_a), (det_b, c_b) = _rank_one_terms(La, Ba, tol), _rank_one_terms(Lb, Bb, tol)

    finite = np.isfinite([det_a, c_a, det_b, c_b]).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"Levi form of gamma is not finite at {pts[i]!r} "
                          f"(h_rel {h_rel:g} or {2.0 * h_rel:g})")
    irregular = np.minimum(gnorm, gnorm_b) < 1e-6
    c = np.minimum(c_a, c_b)
    bad = irregular | (c <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if irregular[i]:
            raise NotRegular(f"|grad gamma| = {gnorm[i]:.3g} < 1e-6 at {pts[i]!r}")
        raise NotContact(f"contact term {c[i]:.3g} <= 0 at {pts[i]!r}", witness=pts[i])

    a, b = np.maximum(0.0, -det_a / c_a), np.maximum(0.0, -det_b / c_b)
    per_point = np.maximum(a, b) + np.abs(a - b)
    k = int(np.argmax(per_point))
    lam = float(per_point[k])
    if lam > lambda_max:
        raise Exhausted(f"lambda {lam:.6g} > {lambda_max:g} needed at {pts[k]!r}")

    eigs = _min_eig(*(x + lam * y for x, y in zip(La, Ba)))
    i = int(np.argmin(eigs))
    return lam, Certificate(
        name="find_lambda", grid=f"{len(pts)} pts", margin=float(eigs[i]),
        passed=bool(eigs[i] > tol), worst_point=(complex(z1[i]), complex(z2[i])),
        details={"lambda": lam, "method": "closed_form", "h_rel": h_rel,
                 "error_estimate": float(abs(a[k] - b[k])), "tol": tol,
                 "gradient_norm_range": [float(gnorm.min()), float(gnorm.max())]})
