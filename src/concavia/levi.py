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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certs import Certificate
from .errors import Exhausted, NotContact, NotRegular, RegionError

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


def levi_min_eig_batch(fn, z1, z2, h_rel: float = 1e-5) -> np.ndarray:
    """Smallest Levi eigenvalue at each point of two complex arrays.

    One batched :func:`jet`; the closed-form 2x2 Hermitian eigenvalue avoids
    per-point linear algebra.
    """
    _, _, hess = jet(fn, z1, z2, h_rel)
    return _min_eig(*_levi_entries(hess))


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
# Lambda search for exp(lambda * gamma)
# ---------------------------------------------------------------------------

def _complex_tangent_vector(n: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to both ``n`` and ``Jn`` (deterministic)."""
    Jn = apply_J(n)
    best, best_norm = None, -1.0
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        w = e - (e @ n) * n / (n @ n) - (e @ Jn) * Jn / (Jn @ Jn)
        nw = np.linalg.norm(w)
        if nw > best_norm:
            best, best_norm = w, nw
    return best / best_norm


def _psh_probe(gamma_fn, lam, z1, z2, h_rel, direct_cap=50.0, gmax=1.0):
    """Min Levi eigenvalue of exp(lam*gamma): direct when safe, else factored.

    For large ``lam`` the exponential overflows / loses precision, so the
    equivalent positivity of ``Levi(gamma) + lam * dgamma dgamma*`` is used
    (same sign since ``lam e^{lam g} > 0``).
    """
    if lam * gmax <= direct_cap:
        def fn(a, b):
            return np.exp(lam * np.asarray(gamma_fn(a, b), dtype=float))
        return levi_min_eig_batch(fn, z1, z2, h_rel), "direct"

    # Levi(gamma) + lam * (dgamma/dz)(dgamma/dz)* is the Levi form of the
    # real Hessian H + lam g g^T
    _, g, hess = jet(gamma_fn, z1, z2, h_rel)
    return _min_eig(*_levi_entries(hess + lam * g[:, :, None] * g[:, None, :])), "factored"


def find_lambda(gamma, grid, lambda_max: float = 1e4, tol: float = 1e-8,
                h_rel: float = 1e-5, refine=None) -> tuple[float, Certificate]:
    """Smallest doubling/bisection probe ``lam`` making ``e^{lam gamma}`` psh.

    Preconditions checked on the grid: the finite-difference gradient of
    ``gamma`` stays above ``1e-6`` (else ``NotRegular``), and the Levi form
    of ``gamma`` is positive on the measured complex tangency of its level
    set (else ``NotContact`` with a witness) — the exponential cannot repair
    a tangency defect, only the complementary directions.

    The certificate re-verifies the returned ``lam`` on the 2x refined grid
    produced by ``refine()`` when given, else on the search grid.
    """
    pts = list(grid)
    fn = gamma.fn if isinstance(gamma, ScalarField) else gamma
    z1 = np.array([p[0] for p in pts], dtype=complex)
    z2 = np.array([p[1] for p in pts], dtype=complex)

    gvals, grads, hess = jet(fn, z1, z2, h_rel)
    gmax = float(np.abs(gvals).max())

    for p, g, H in zip(pts, grads, hess):
        gn = np.linalg.norm(g)
        if gn < 1e-6:
            raise NotRegular(f"|grad gamma| = {gn:.3g} < 1e-6 at {p!r}")
        v = _complex_tangent_vector(g)
        tangency = jet_neg_ddc(H, v, apply_J(v))
        if tangency <= 0:
            raise NotContact(
                f"tangency term {tangency:.3g} <= 0 at {p!r}", witness=p)

    def passes(lam):
        eigs, mode = _psh_probe(fn, lam, z1, z2, h_rel, gmax=gmax)
        return float(eigs.min()) > tol, mode

    lam = 1.0
    ok, mode = passes(lam)
    if ok:
        # halve toward a failing bracket; stop at a resolution floor above
        # the finite-difference noise level
        lo, hi = 0.0, lam
        while hi > 1e-3:
            cand = hi / 2.0
            got, _ = passes(cand)
            if got:
                hi = cand
            else:
                lo = cand
                break
        lam_pass = hi
    else:
        while not ok:
            lam *= 2.0
            if lam > lambda_max:
                raise Exhausted(f"no lambda <= {lambda_max} makes exp(lambda*gamma) psh")
            ok, mode = passes(lam)
        lo, lam_pass = lam / 2.0, lam
    if lo > 0.0:
        for _ in range(20):
            mid = 0.5 * (lo + lam_pass)
            if mid <= lo or mid >= lam_pass:
                break
            got, _ = passes(mid)
            if got:
                lam_pass = mid
            else:
                lo = mid

    check_pts = list(refine()) if refine is not None else pts
    cz1 = np.array([p[0] for p in check_pts], dtype=complex)
    cz2 = np.array([p[1] for p in check_pts], dtype=complex)
    eigs, mode = _psh_probe(fn, lam_pass, cz1, cz2, h_rel, gmax=gmax)
    if float(eigs.min()) <= tol:
        # the refined grid exposed harder points: lift lambda on it
        lo2, hi2 = lam_pass, 2.0 * lam_pass
        while True:
            if hi2 > lambda_max:
                raise Exhausted(
                    f"no lambda <= {lambda_max} passes on the refined grid")
            eigs, mode = _psh_probe(fn, hi2, cz1, cz2, h_rel, gmax=gmax)
            if float(eigs.min()) > tol:
                break
            hi2 *= 2.0
        for _ in range(20):
            mid = 0.5 * (lo2 + hi2)
            if mid <= lo2 or mid >= hi2:
                break
            got, _ = _psh_probe(fn, mid, cz1, cz2, h_rel, gmax=gmax)
            if float(got.min()) > tol:
                hi2 = mid
            else:
                lo2 = mid
        lam_pass = hi2
        eigs, mode = _psh_probe(fn, lam_pass, cz1, cz2, h_rel, gmax=gmax)
    i = int(np.argmin(eigs))
    cert = Certificate(
        name="find_lambda",
        grid=f"search {len(pts)} pts, verify {len(check_pts)} pts",
        margin=float(eigs[i]),
        passed=bool(eigs[i] > tol),
        worst_point=(complex(cz1[i]), complex(cz2[i])),
        details={"lambda": lam_pass, "probe_mode": mode, "tol": tol})
    return lam_pass, cert


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------

def fd_consistency(u, p, v, h_rel: float = 1e-5) -> float:
    """Richardson-style consistency: halving the step should agree ~O(h^2)."""
    h = _step(p, h_rel)
    d1 = _dir_deriv(u, p, v, h)
    d2 = _dir_deriv(u, p, v, h / 2.0)
    return abs(d1 - d2) / max(1.0, abs(d2))
