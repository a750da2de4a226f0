"""Scalar nested-difference reference for ``concavia.levi``'s jets, and the
4-D oracle of the sphere's 3-form certificates.

``grad4``, ``d_c`` and ``neg_ddc`` difference a field point by point along
single directions and share no code with ``levi.jet``; the bridge-factor
tests and the composition identity compare the package against them.
:func:`sphere_forms_4d` assembles ``beta ^ d beta``, the page form and the
frame span on 4-D tangent frames from ``levi.jet``'s Cartesian jets of
``gamma``, the reference of ``family``'s closed forms.
:func:`polar_stencil`, :func:`polar_diff` and :func:`polar_lift` give a
torus-invariant field's 4-D jet at each orbit's real point from 17 values
per point, and :func:`exp_jet` composes ``exp(lam * (f - shift))`` exactly
from a jet of ``f``.  :func:`find_lambda`
reads a radial field's Levi form from its 17-point polar stencil and solves
the complex rank-one problem per point: the finite-difference reference of
``family.find_collar_lambda``'s exact log-coordinate jets.  Conventions are
``levi``'s: ``J`` as :func:`apply_J` and two-forms in the 1/2 convention.
"""

import math

import numpy as np

from concavia._numerics import GOLD, SILVER, kronecker
from concavia.certs import Certificate
from concavia.errors import DomainError, Exhausted, NotContact, NotRegular
from concavia.levi import _levi_entries, _min_eig

#: 1 / the bronze mean, a third Kronecker step beside ``GOLD`` and ``SILVER``
BRONZE = (math.sqrt(13.0) - 3.0) / 2.0


def apply_J(v: np.ndarray) -> np.ndarray:
    """``J`` on a vector, or row by row on a stack of vectors."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0], -v[..., 3], v[..., 2]], axis=-1)


def _shift(p, v, t: float) -> tuple[complex, complex]:
    z1, z2 = p
    return (z1 + t * (v[0] + 1j * v[1]), z2 + t * (v[2] + 1j * v[3]))


def _step(p, h_rel: float) -> float:
    z1, z2 = p
    return h_rel * max(1.0, abs(z1), abs(z2))


def _dir_deriv(u, p, v, h: float) -> float:
    return (u(*_shift(p, v, h)) - u(*_shift(p, v, -h))) / (2.0 * h)


def grad4(u, p, h_rel: float = 1e-5) -> np.ndarray:
    """Finite-difference gradient in the four real coordinates."""
    h = _step(p, h_rel)
    E = np.eye(4)
    return np.array([_dir_deriv(u, p, E[i], h) for i in range(4)])


def d_c(u, point, vector, h_rel: float = 1e-5) -> float:
    """``d^C u (v) = du(Jv)`` by a central directional difference."""
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


def _unit_vectors(n: int) -> np.ndarray:
    """Hopf coordinates ``(sqrt(s) e^{i a}, sqrt(1 - s) e^{i b})`` of a 3-D Kronecker
    sequence: ``[n, 4]`` unit vectors spread evenly over ``S^3``."""
    s, a, b = kronecker(n, (GOLD, SILVER, BRONZE)).T
    r1, r2, a, b = np.sqrt(s), np.sqrt(1.0 - s), 2 * np.pi * a, 2 * np.pi * b
    return np.stack([r1 * np.cos(a), r1 * np.sin(a), r2 * np.cos(b), r2 * np.sin(b)], axis=1)


def composition_identity_check(gamma, gfun, samples, tol: float = 1e-5) -> Certificate:
    """``-dd^C(g o gamma) = -g'' dgamma ^ d^C gamma - g' dd^C gamma``.

    ``gfun`` is a triple ``(g, dg, d2g)`` of scalar callables.  Both sides
    are evaluated on ``(v, Jv)``, ``v`` the ``k``-th of ``_unit_vectors`` at
    the ``k``-th sample.
    """
    g, dg, d2g = gfun
    pts = list(samples)

    def composed(z1, z2):
        return g(gamma(z1, z2))

    errs = []
    for p, v in zip(pts, _unit_vectors(len(pts))):
        Jv = apply_J(v)
        lhs = neg_ddc(composed, p, v, Jv)
        h = _step(p, 1e-5)
        dv = _dir_deriv(gamma, p, v, h)
        dJv = _dir_deriv(gamma, p, Jv, h)
        gval = float(gamma(complex(p[0]), complex(p[1])))
        # -g'' (dgamma ^ d^C gamma)(v, Jv) = g'' ((dgamma v)^2 + (dgamma Jv)^2)/2
        quad = 0.5 * (dv * dv + dJv * dJv)
        rhs = d2g(gval) * quad + dg(gval) * neg_ddc(gamma, p, v, Jv)
        errs.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    k, worst_err = Certificate.sup_error(errs)
    return Certificate(
        name="composition_identity",
        grid=f"{len(pts)} sample/vector pairs",
        margin=tol - worst_err,
        passed=bool(worst_err < tol),
        worst_point=None if k is None else pts[k],
        details={"max_rel_err": worst_err})


# ---------------------------------------------------------------------------
# The 4-D oracle of the sphere's 3-form certificates
# ---------------------------------------------------------------------------

def jet_d_c(grad, v):
    """``d^C u(v) = du(Jv)`` from jet gradients; rows of ``grad`` and ``v`` pair up."""
    return np.sum(grad * apply_J(v), axis=-1)


def jet_neg_ddc(hess, v, w):
    """``-d(d^C u)(v, w) = -(H(v, Jw) - H(w, Jv)) / 2`` from jet Hessians."""
    def form(a, b):
        return np.einsum("...i,...ij,...j->...", a, hess, b)
    return -0.5 * (form(v, apply_J(w)) - form(w, apply_J(v)))


def unit_rows(V: np.ndarray) -> np.ndarray:
    """Rows of ``V`` scaled to unit length, each with the bits
    ``np.linalg.norm`` gives it on its own."""
    return V / np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0]


def sphere_frames(model, tags, z1, z2):
    """Angular frames ``e1``, ``e2`` and profile tangents ``V`` as ``[N, 4]``
    arrays at points ``(z1, z2)`` of the sphere's pieces ``tags``.  ``V`` is
    the unit tangent of the profile curve, oriented along the page from the
    left binding circle toward the right one, turned with the point."""
    tags = np.asarray(tags)
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    r1, r2 = np.hypot(z1.real, z1.imag), np.hypot(z2.real, z2.imag)
    # componentwise: numpy's complex division multiplies by 1/r
    u1, u2 = (np.stack([z.real / r, z.imag / r]) for z, r in ((z1, r1), (z2, r2)))
    x = np.array([math.log(v) for v in np.where(tags == "S", r1, r2).tolist()])
    zero = np.zeros(x.shape)
    # log-radius direction (dq1, dq2) of the profile, per piece
    dq1, dq2 = np.ones(x.shape), np.ones(x.shape)
    h1, h2, cap = tags == "H1", tags == "H2", tags == "S"
    dq1[h1] = model.f1.dL(x[h1])
    dq1[h2] = -model.f2.dL(x[h2])   # descending toward the binding
    dq2[h2] = -1.0
    dq2[cap] = -model.htilde.df(x[cap])
    V = unit_rows(np.stack([dq1 * r1, zero, dq2 * r2, zero], axis=1))
    e1 = np.stack([-u1[1], u1[0], zero, zero], axis=1)
    e2 = np.stack([zero, zero, -u2[1], u2[0]], axis=1)
    return e1, e2, np.stack([V[:, 0] * u1[0], V[:, 0] * u1[1],
                             V[:, 2] * u2[0], V[:, 2] * u2[1]], axis=1)


def contact_volumes(jet4, frames) -> np.ndarray:
    """``beta ^ d beta``, ``beta = -d^C f``, on each point's tangent frame
    ``frames`` from a 4-D jet ``(f, grad, hess)`` of ``f``, oriented by the
    outward normal ``-grad f`` first."""
    _, g, H = jet4
    nu = -g / np.linalg.norm(g, axis=1, keepdims=True)
    e1, e2, e3 = frames
    swap = (np.linalg.det(np.stack([nu, e1, e2, e3], axis=2)) < 0)[:, None]
    e2, e3 = np.where(swap, e3, e2), np.where(swap, e2, e3)
    al = [-jet_d_c(g, v) for v in (e1, e2, e3)]
    da = [jet_neg_ddc(H, e2, e3), jet_neg_ddc(H, e1, e3), jet_neg_ddc(H, e1, e2)]
    return al[0] * da[0] - al[1] * da[1] + al[2] * da[2]


def page_forms(jet4, frames, tags) -> np.ndarray:
    """``d beta(e1, W)`` on each page plane: ``W = V`` on the walls
    (fibration orientation), ``-V`` on the cap (complex orientation)."""
    e1, _, V = frames
    return jet_neg_ddc(jet4[2], e1, np.where((np.asarray(tags) == "S")[:, None], -V, V))


def frame_spans(jet4, frames) -> np.ndarray:
    """The smaller of ``|det|`` of (binding direction, page direction, Reeb
    direction ``J grad f / |grad f|``) in the tangent frame and the Reeb
    direction's ``theta2``-component."""
    _, g, _ = jet4
    e1, e2, V = frames
    R = apply_J(g / np.linalg.norm(g, axis=1, keepdims=True))
    det = np.abs(np.linalg.det(np.stack([e1, e2, V], axis=1) @ np.stack([e1, V, R], axis=2)))
    return np.minimum(det, np.sum(e2 * R, axis=1))


def sphere_forms_4d(fam, tags, z1, z2, h_rel: float = 1e-4, lam=None) -> dict:
    """The 3-form certificates' values at ``(z1, z2)`` on the pieces
    ``tags`` from ``levi.jet``'s 33-point Cartesian jets of ``gamma`` at
    steps ``h_rel`` and ``2 h_rel``: ``contact``, ``page`` and ``span``, each
    ``[2, N]``, and ``binding``, ``beta(d/d theta1)`` at ``(c1, 0)`` and
    ``(c2, 0)`` at step ``h_rel``.  With ``lam`` the forms are those of
    ``alpha = -d^C exp(lam (gamma - 1))``, composed by :func:`exp_jet`."""
    from concavia.levi import jet

    gamma, par = fam.fol.gamma, fam.model.params
    frames = sphere_frames(fam.model, tags, z1, z2)
    out = {"contact": [], "page": [], "span": []}
    for h in (h_rel, 2.0 * h_rel):
        jet4 = jet(gamma, z1, z2, h)
        if lam is not None:
            jet4 = exp_jet(jet4, lam, 1.0)
        out["contact"].append(contact_volumes(jet4, frames))
        out["page"].append(page_forms(jet4, frames, tags))
        out["span"].append(frame_spans(jet4, frames))
    out = {k: np.array(v) for k, v in out.items()}
    r = np.array([par.c1, par.c2])
    _, g, _ = jet(gamma, r, np.zeros(2), h_rel)
    out["binding"] = r * g[:, 0]
    return out


def clear_of_knots(fam, reach: float = 1e-3) -> np.ndarray:
    """The points of ``fam.top_slice`` whose profile abscissa lies at least
    ``reach`` from every corner and from every knot of ``f2``'s spline and
    of ``htilde``.  A centred stencil closer than that straddles a corner or
    a jump of the profile's third derivative (up to about 5e3 in ``f2``'s
    last interval) and measures the jump: at ``f2``'s knot 0.0847 the
    contact term reads -163 at ``h_rel = 1e-4`` and -322 at ``2e-4``,
    where both sides' closed form is -4.988."""
    top, model = fam.top_slice, fam.model
    x = np.log(np.where(top.tags == "S", top.r1, top.r2))
    knots = {"H1": [model.y_star], "H2": model.f2.meta["spline"]["breakpoints"],
             "S": model.htilde.ppoly.x}
    return np.array([np.min(np.abs(np.asarray(knots[t]) - v)) >= reach
                     for t, v in zip(top.tags.tolist(), x)])


# ---------------------------------------------------------------------------
# The polar stencil of a torus-invariant field, and the exponential composed
# exactly from a jet
# ---------------------------------------------------------------------------

def _polar_step(r1, r2, h_rel):
    """Raveled radii and the polar stencil's step ``h_rel * max(1, r1, r2)``."""
    r1, r2 = (np.asarray(r, dtype=float).ravel() for r in (r1, r2))
    return r1, r2, h_rel * np.maximum(1.0, np.maximum(r1, r2))


def polar_stencil(r1, r2, h_rel: float = 1e-5):
    """The radii ``(R1, R2)`` at which the polar stencil reads its function:
    ``(r1 + i m h, r2 + j m h)`` for ``i, j in {-1, 0, 1}``, ``m = 1, 2`` and
    ``h = h_rel * max(1, r1, r2)``, 17 per point, stacked shift by shift.  A
    ring crossing an axis reads the function at the mirrored radius."""
    r1, r2, h = _polar_step(r1, r2, h_rel)
    ring = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]  # row-major, no centre
    shifts = [(0, 0)] + [(m * i, m * j) for m in (1, 2) for i, j in ring]
    return (np.concatenate([r1 + i * h for i, _ in shifts]),
            np.concatenate([r2 + j * h for _, j in shifts]))


def polar_diff(u, r1, r2, h_rel: float = 1e-5):
    """Radial jets ``(u, u_r1, u_r2, u_r1r1, u_r2r2, u_r1r2)`` at steps ``h``
    and ``2h``, as a pair, from the values ``u`` of a function of ``(|z1|,
    |z2|)`` on ``polar_stencil(r1, r2, h_rel)``; a scalar ``u`` is broadcast."""
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


def polar_lift(pj, r1, r2):
    """A radial jet of :func:`polar_diff` as the exact 4-D jet ``(value, grad, hess)`` at the
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



# ---------------------------------------------------------------------------
# The finite-difference lambda: the polar stencil's closed form, the oracle of
# family.find_collar_lambda's exact jets
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


def stencil_roots(gamma, r1, r2, h_rel: float, tol: float = 1e-8) -> np.ndarray:
    """Each point's root ``max(0, -det A / c)`` of :func:`_rank_one_terms`,
    read from ``gamma``'s polar stencil at the real points ``(r1, r2)`` at
    steps ``h`` and ``2h``: ``[2, N]``, NaN where a ring leaves ``gamma``'s
    domain."""
    R1, R2 = polar_stencil(r1, r2, h_rel)
    roots = []
    for pj in polar_diff(gamma(R1 + 0j, R2 + 0j), r1, r2, h_rel):
        _, g, H = polar_lift(pj, r1, r2)
        det, c = _rank_one_terms(_levi_entries(H), _levi_entries(g[:, :, None] * g[:, None, :]),
                                 tol)
        with np.errstate(invalid="ignore"):
            roots.append(np.where(np.isnan(det + c), np.nan, np.maximum(0.0, -det / c)))
    return np.array(roots)
