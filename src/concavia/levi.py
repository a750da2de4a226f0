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
  the determinant convention it would be 4).  The quadratic identity
  ``-(dgamma ^ d^C gamma)(v, Jv) = ((dgamma v)^2 + (dgamma Jv)^2) / 2``
  holds exactly in this convention and is under test.

There is one derivative stencil, :func:`jet`: a batched 33-point central
difference with relative step ``1e-5`` that returns value, real gradient and
real Hessian.  Everything else is linear algebra on jets: ``d^C u(v) =
g . Jv``, ``-dd^C u(v, w) = -(H(v, Jw) - H(w, Jv)) / 2`` and the Levi 2x2.
:func:`exp_jet` composes ``exp(lam * (f - shift))`` exactly from a jet of
``f``, so exponentials are never differenced.  The scalar helpers
:func:`grad4`, :func:`d_c` and the nested-difference :func:`neg_ddc` share
no code with the jet; they are kept only as the independent reference behind
the quadratic and composition identity checks.  No symbolic engine.

:func:`find_lambda` has no search: ``Levi(gamma) + lam dgamma dgamma*`` is a
rank-one update whose 2x2 determinant is linear in ``lam``, so each point's
smallest ``lam`` is a closed-form root, taken from one jet of ``gamma`` at
``h_rel`` and one at ``2 h_rel``; their difference is the Richardson error
the returned ``lam`` is padded by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certs import Certificate
from .errors import DomainError, Exhausted, NotContact, NotRegular, RegionError

__all__ = [
    "ScalarField",
    "HermitianForm",
    "J_mat",
    "apply_J",
    "d_c",
    "grad4",
    "neg_ddc",
    "jet",
    "exp_jet",
    "jet_d_c",
    "jet_neg_ddc",
    "levi_matrix",
    "levi_min_eig",
    "levi_min_eig_batch",
    "is_strictly_psh",
    "hartogs_boundary_test",
    "composition_identity_check",
    "quadratic_identity_check",
    "find_lambda",
    "fd_consistency",
]

#: J on (x1, y1, x2, y2)
J_mat = np.array([
    [0, -1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, -1],
    [0, 0, 1, 0],
], dtype=float)


def apply_J(v: np.ndarray) -> np.ndarray:
    """``J`` on a vector, or row by row on a stack of vectors."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0], -v[..., 3], v[..., 2]], axis=-1)


def _to_z(p) -> tuple[complex, complex]:
    z1, z2 = p
    return complex(z1), complex(z2)


def _shift(p, v, t: float) -> tuple[complex, complex]:
    z1, z2 = p
    return (z1 + t * (v[0] + 1j * v[1]), z2 + t * (v[2] + 1j * v[3]))


def _step(p, h_rel: float) -> float:
    z1, z2 = p
    return h_rel * max(1.0, abs(z1), abs(z2))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued C^2 function of ``(z1, z2)`` on a declared open region.

    ``fn`` must accept numpy arrays of ``z1, z2`` (vectorized evaluation is
    what makes the grid sweeps cheap); ``region`` is an optional scalar
    predicate checked at the public entry points.
    """

    fn: object
    region: object = None
    name: str = "field"

    def __call__(self, z1, z2):
        return self.fn(z1, z2)

    def check(self, p) -> None:
        if self.region is not None and not self.region(*_to_z(p)):
            raise RegionError(f"point {p!r} outside region of field {self.name!r}")


@dataclass(frozen=True)
class HermitianForm:
    """2x2 Hermitian matrix with real eigenvalue helpers."""

    entries: np.ndarray
    defect: float = 0.0

    @classmethod
    def from_matrix(cls, A: np.ndarray) -> "HermitianForm":
        A = np.asarray(A, dtype=complex)
        defect = float(np.linalg.norm(A - A.conj().T))
        return cls((A + A.conj().T) / 2.0, defect)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues()[0])

    def quad(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=complex).reshape(2)
        return float(np.real(v.conj() @ self.entries @ v))


# ---------------------------------------------------------------------------
# Scalar reference operators (independent of the jet; identity checks only)
# ---------------------------------------------------------------------------

def _dir_deriv(u, p, v, h: float) -> float:
    return (u(*_shift(p, v, h)) - u(*_shift(p, v, -h))) / (2.0 * h)


def grad4(u, p, h_rel: float = 1e-5) -> np.ndarray:
    """Finite-difference gradient in the four real coordinates."""
    h = _step(p, h_rel)
    E = np.eye(4)
    return np.array([_dir_deriv(u, p, E[i], h) for i in range(4)])


def d_c(u: ScalarField, point, vector, h_rel: float = 1e-5) -> float:
    """``d^C u (v) = du(Jv)`` by a central directional difference."""
    if isinstance(u, ScalarField):
        u.check(point)
    v = np.asarray(vector, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        return 0.0
    h = _step(point, h_rel) / n
    return _dir_deriv(u, point, apply_J(v), h)


def neg_ddc(u, p, v, w, h_rel: float = 1e-4, inner_rel: float = 1e-5) -> float:
    """``-d(d^C u)(v, w)`` in the 1/2 convention, by nested differences.

    The outer step is larger than the inner one so the nested second
    difference stays above the rounding floor.
    """
    h = _step(p, h_rel)

    def beta(q, vec):  # d^C u at q on vec
        hh = _step(q, inner_rel)
        return _dir_deriv(u, q, apply_J(np.asarray(vec, dtype=float)), hh)

    t1 = (beta(_shift(p, v, h), w) - beta(_shift(p, v, -h), w)) / (2 * h)
    t2 = (beta(_shift(p, w, h), v) - beta(_shift(p, w, -h), v)) / (2 * h)
    return -0.5 * (t1 - t2)


# ---------------------------------------------------------------------------
# Jets: the one derivative stencil
# ---------------------------------------------------------------------------

def jet(fn, z1, z2, h_rel: float = 1e-5):
    """Value, real gradient and real Hessian of ``fn`` at each point.

    One vectorized 33-point central-difference stencil on ``(x1, y1, x2,
    y2)`` with step ``h_rel * max(1, |z1|, |z2|)``: the 8 axis shifts give
    the gradient and the Hessian diagonal, the 24 diagonal shifts the mixed
    second derivatives.  Returns ``(value[N], grad[N, 4], hess[N, 4, 4])``.
    """
    z1 = np.asarray(z1, dtype=complex).ravel()
    z2 = np.asarray(z2, dtype=complex).ravel()
    h = h_rel * np.maximum(1.0, np.maximum(np.abs(z1), np.abs(z2)))
    d = [(h, 0), (1j * h, 0), (0, h), (0, 1j * h)]

    def ev(s1, s2):
        return np.asarray(fn(z1 + s1, z2 + s2), dtype=float)

    u0 = ev(0, 0)
    grad = np.empty((z1.size, 4))
    hess = np.empty((z1.size, 4, 4))
    for i in range(4):
        up, dn = ev(*d[i]), ev(-d[i][0], -d[i][1])
        grad[:, i] = (up - dn) / (2 * h)
        hess[:, i, i] = (up - 2 * u0 + dn) / (h * h)
    for i in range(4):
        for j in range(i + 1, 4):
            s1, s2 = d[i][0] + d[j][0], d[i][1] + d[j][1]
            t1, t2 = d[i][0] - d[j][0], d[i][1] - d[j][1]
            hess[:, i, j] = hess[:, j, i] = (
                ev(s1, s2) - ev(t1, t2) - ev(-t1, -t2) + ev(-s1, -s2)) / (4 * h * h)
    return u0, grad, hess


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


def jet_d_c(grad, v):
    """``d^C u(v) = du(Jv)`` from jet gradients; rows of ``grad`` and ``v`` pair up."""
    return np.sum(grad * apply_J(v), axis=-1)


def jet_neg_ddc(hess, v, w):
    """``-d(d^C u)(v, w) = -(H(v, Jw) - H(w, Jv)) / 2`` from jet Hessians."""
    def form(a, b):
        return np.einsum("...i,...ij,...j->...", a, hess, b)
    return -0.5 * (form(v, apply_J(w)) - form(w, apply_J(v)))


def _levi_entries(hess):
    """``(L11, L22, L12)`` of the complex Hessian, from real Hessians ``[N, 4, 4]``."""
    L11 = 0.25 * (hess[:, 0, 0] + hess[:, 1, 1])
    L22 = 0.25 * (hess[:, 2, 2] + hess[:, 3, 3])
    L12 = 0.25 * (hess[:, 0, 2] + hess[:, 1, 3]) + 0.25j * (hess[:, 0, 3] - hess[:, 1, 2])
    return L11, L22, L12


def _min_eig(a, c, b):
    """Smallest eigenvalue of the Hermitian ``[[a, b], [conj(b), c]]``, closed form."""
    return (a + c) / 2.0 - np.sqrt(((a - c) / 2.0) ** 2 + (b.real ** 2 + b.imag ** 2))


def levi_matrix(u: ScalarField, point, h_rel: float = 1e-5) -> HermitianForm:
    """Complex Hessian ``[d^2 u / dz_i dzbar_j]`` at one point, from its jet.

    Under the module's 1/2 convention, ``-d d^C u(v, Jv) = 2 v* L v``.
    """
    if isinstance(u, ScalarField):
        u.check(point)
    _, _, hess = jet(u, [point[0]], [point[1]], h_rel)
    L11, L22, L12 = (x[0] for x in _levi_entries(hess))
    return HermitianForm.from_matrix(np.array([[L11, L12], [np.conj(L12), L22]]))


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


def is_strictly_psh(u, grid, tol: float = 1e-8, h_rel: float = 1e-5,
                    name: str = "strictly_psh") -> Certificate:
    """Certificate that the Levi form is positive definite over a point grid."""
    pts = list(grid)
    z1 = np.array([p[0] for p in pts], dtype=complex)
    z2 = np.array([p[1] for p in pts], dtype=complex)
    fn = u.fn if isinstance(u, ScalarField) else u
    eigs = levi_min_eig_batch(fn, z1, z2, h_rel)
    i = int(np.argmin(eigs))
    margin = float(eigs[i])
    return Certificate(
        name=name,
        grid=f"{len(pts)} points",
        margin=margin,
        passed=bool(margin > tol),
        worst_point=(complex(z1[i]), complex(z2[i])),
        details={"tol": tol})


# ---------------------------------------------------------------------------
# Hartogs-type boundary
# ---------------------------------------------------------------------------

def hartogs_boundary_test(psi, grid, tol: float = 1e-5,
                          h_rel: float = 1e-5) -> Certificate:
    """Sign agreement for the rotational domain ``{|z2| < exp(-psi(z1))}``.

    Side (i): the planar Laplacian of ``psi`` on the grid.  Side (ii): the
    Levi form of the defining function ``rho = log|z2| + psi(z1)`` restricted
    to the complex tangency of the boundary, at matched samples, computed by
    the full C^2 finite-difference machinery (not the separable shortcut).
    Passes iff the two sides agree in sign (within a ``tol`` zero band)
    pointwise; the certificate notes the common regime.
    """
    zs = np.asarray(list(grid), dtype=complex).ravel()
    z2 = np.exp(-np.asarray(psi(zs), dtype=float))  # boundary samples at angle 0

    def rho(z1, z2):
        return np.log(np.abs(z2)) + np.asarray(psi(z1), dtype=float)

    _, _, hess_psi = jet(lambda z1, z2: psi(z1), zs, np.zeros_like(zs), h_rel)
    lap = hess_psi[:, 0, 0] + hess_psi[:, 1, 1]
    _, g, hess = jet(rho, zs, z2, h_rel)
    L11, L22, L12 = _levi_entries(hess)
    dz1 = 0.5 * (g[:, 0] - 1j * g[:, 1])
    dz2 = 0.5 * (g[:, 2] - 1j * g[:, 3])
    # Levi form on the complex tangent direction w = (-dz2, dz1) / |dz|
    levi_t = (L11 * np.abs(dz2) ** 2 + L22 * np.abs(dz1) ** 2
              - 2.0 * np.real(L12 * dz1 * np.conj(dz2))) / (np.abs(dz1) ** 2 + np.abs(dz2) ** 2)

    sign_i = np.where(np.abs(lap) <= tol, 0, np.sign(lap))
    sign_ii = np.where(np.abs(levi_t) <= tol, 0, np.sign(levi_t))
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
        details={"regime": regime, "tol": tol})


# ---------------------------------------------------------------------------
# Composition lemma
# ---------------------------------------------------------------------------

def _rand_vector(rng) -> np.ndarray:
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def quadratic_identity_check(gamma, samples, seed: int = 20240601,
                             tol: float = 1e-6) -> Certificate:
    """``-(dgamma ^ d^C gamma)(v, Jv) = ((dgamma v)^2 + (dgamma Jv)^2)/2``."""
    rng = np.random.default_rng(seed)
    pts = list(samples)
    worst_err, worst = 0.0, None
    for p in pts:
        v = _rand_vector(rng)
        Jv = apply_J(v)
        h = _step(p, 1e-5)
        dv = _dir_deriv(gamma, p, v, h)
        dJv = _dir_deriv(gamma, p, Jv, h)
        # wedge in the 1/2 convention; d^C gamma(w) = dgamma(Jw)
        lhs = -0.5 * (dv * _dir_deriv(gamma, p, apply_J(Jv), h)
                      - dJv * _dir_deriv(gamma, p, apply_J(v), h))
        rhs = 0.5 * (dv * dv + dJv * dJv)
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        if err > worst_err:
            worst_err, worst = err, p
    return Certificate(
        name="quadratic_identity",
        grid=f"{len(pts)} sample/vector pairs",
        margin=tol - worst_err,
        passed=bool(worst_err < tol),
        worst_point=worst,
        details={"max_rel_err": worst_err})


def composition_identity_check(gamma, gfun, samples, seed: int = 20240602,
                               tol: float = 1e-5) -> Certificate:
    """``-dd^C(g o gamma) = -g'' dgamma ^ d^C gamma - g' dd^C gamma``.

    ``gfun`` is a triple ``(g, dg, d2g)`` of scalar callables.  Both sides
    are evaluated on ``(v, Jv)`` for a random unit vector at each sample.
    """
    g, dg, d2g = gfun
    rng = np.random.default_rng(seed)
    pts = list(samples)

    def composed(z1, z2):
        return g(gamma(z1, z2))

    worst_err, worst = 0.0, None
    for p in pts:
        v = _rand_vector(rng)
        Jv = apply_J(v)
        lhs = neg_ddc(composed, p, v, Jv)
        h = _step(p, 1e-5)
        dv = _dir_deriv(gamma, p, v, h)
        dJv = _dir_deriv(gamma, p, Jv, h)
        gval = float(gamma(*_to_z(p)))
        # -g'' (dgamma ^ d^C gamma)(v, Jv) = g'' ((dgamma v)^2 + (dgamma Jv)^2)/2
        quad = 0.5 * (dv * dv + dJv * dJv)
        rhs = d2g(gval) * quad + dg(gval) * neg_ddc(gamma, p, v, Jv)
        scale = max(1.0, abs(lhs), abs(rhs))
        err = abs(lhs - rhs) / scale
        if err > worst_err:
            worst_err, worst = err, p
    return Certificate(
        name="composition_identity",
        grid=f"{len(pts)} sample/vector pairs",
        margin=tol - worst_err,
        passed=bool(worst_err < tol),
        worst_point=worst,
        details={"max_rel_err": worst_err})


# ---------------------------------------------------------------------------
# Closed-form lambda for exp(lambda * gamma)
# ---------------------------------------------------------------------------

def _rank_one_terms(g, hess, tol):
    """``(det A, c)`` such that ``det(A + lam B) = det A + lam c`` per point.

    ``A = Levi(H) - tol I`` and ``B = Levi(g g^T) = dgamma dgamma*`` has rank
    one, so ``det B = 0`` and the determinant is linear in ``lam``; ``c =
    A11 B22 + A22 B11 - 2 Re(A12 conj(B12))`` is ``A`` on the complex tangent
    of the level set, scaled by ``|dgamma|^2``.
    """
    A11, A22, A12 = _levi_entries(hess)
    A11, A22 = A11 - tol, A22 - tol
    B11, B22, B12 = _levi_entries(g[:, :, None] * g[:, None, :])
    return (A11 * A22 - (A12.real ** 2 + A12.imag ** 2),
            A11 * B22 + A22 * B11 - 2.0 * np.real(A12 * np.conj(B12)))


def find_lambda(gamma, grid, lambda_max: float = 1e4, tol: float = 1e-8,
                h_rel: float = 1e-5) -> tuple[float, Certificate]:
    """Closed-form ``lam`` making ``e^{lam gamma}`` strictly psh on ``grid``.

    ``e^{lam gamma}`` is strictly psh exactly where ``Levi(gamma) + lam
    dgamma dgamma*`` is positive definite.  With ``c > 0`` that holds above
    the root ``-det A / c`` of the linear determinant (see
    :func:`_rank_one_terms`), so each point's ``lam`` is ``max(0, -det A /
    c)``: ``a`` from a jet at ``h_rel`` and ``b`` from one at ``2 h_rel``.
    The returned ``lam = max_p [max(a, b) + |a - b|]`` passes at both steps
    plus its own Richardson error, and can only grow with the grid.

    Preconditions, named at the first failing point in grid order: a finite
    Levi form and gradient at both steps (else ``DomainError``; the unused
    mixed entries ``H[0, 1]``, ``H[2, 3]`` may be NaN where the stencil's
    diagonal corners leave the domain), ``|grad gamma| >= 1e-6`` (else
    ``NotRegular``) and ``c > 0`` (else ``NotContact`` with a witness) — the
    exponential cannot repair the complex tangency of the level set.  A
    ``lam`` above ``lambda_max`` raises ``Exhausted``.

    The margin is ``min_p`` of the smallest eigenvalue of ``Levi(H + lam g
    g^T)`` at ``h_rel``, the potential's Levi form divided by ``lam
    e^{lam gamma}``; ``error_estimate`` is ``|a - b|`` at the point that sets
    ``lam``.
    """
    pts = list(grid)
    fn = gamma.fn if isinstance(gamma, ScalarField) else gamma
    z1 = np.array([p[0] for p in pts], dtype=complex)
    z2 = np.array([p[1] for p in pts], dtype=complex)
    jets = [jet(fn, z1, z2, s) for s in (h_rel, 2.0 * h_rel)]
    (det_a, c_a), (det_b, c_b) = (_rank_one_terms(g, H, tol) for _, g, H in jets)

    finite = np.isfinite(det_a) & np.isfinite(c_a) & np.isfinite(det_b) & np.isfinite(c_b)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"Levi form of gamma is not finite at {pts[i]!r} "
                          f"(h_rel {h_rel:g} or {2.0 * h_rel:g})")
    gnorm = np.linalg.norm(jets[0][1], axis=1)
    irregular = np.minimum(gnorm, np.linalg.norm(jets[1][1], axis=1)) < 1e-6
    c = np.minimum(c_a, c_b)
    bad = irregular | (c <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if irregular[i]:
            raise NotRegular(f"|grad gamma| = {gnorm[i]:.3g} < 1e-6 at {pts[i]!r}")
        raise NotContact(f"contact term {c[i]:.3g} <= 0 at {pts[i]!r}", witness=pts[i])

    a = np.maximum(0.0, -det_a / c_a)
    b = np.maximum(0.0, -det_b / c_b)
    per_point = np.maximum(a, b) + np.abs(a - b)
    k = int(np.argmax(per_point))
    lam = float(per_point[k])
    if lam > lambda_max:
        raise Exhausted(f"lambda {lam:.6g} > {lambda_max:g} needed at {pts[k]!r}")

    _, g, H = jets[0]
    eigs = levi_min_eig(H + lam * g[:, :, None] * g[:, None, :])
    i = int(np.argmin(eigs))
    cert = Certificate(
        name="find_lambda",
        grid=f"{len(pts)} pts",
        margin=float(eigs[i]),
        passed=bool(eigs[i] > tol),
        worst_point=(complex(z1[i]), complex(z2[i])),
        details={"lambda": lam, "method": "closed_form", "h_rel": h_rel,
                 "error_estimate": float(abs(a[k] - b[k])), "tol": tol,
                 "gradient_norm_range": [float(gnorm.min()), float(gnorm.max())]})
    return lam, cert


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------

def fd_consistency(u, p, v, h_rel: float = 1e-5) -> float:
    """Richardson-style consistency: halving the step should agree ~O(h^2)."""
    h = _step(p, h_rel)
    d1 = _dir_deriv(u, p, v, h)
    d2 = _dir_deriv(u, p, v, h / 2.0)
    return abs(d1 - d2) / max(1.0, abs(d2))
