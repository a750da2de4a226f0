"""Scalar nested-difference reference for ``concavia.levi``'s jets.

``grad4``, ``d_c`` and ``neg_ddc`` difference a field point by point along
single directions and share no code with ``levi.jet``; the bridge-factor
tests, the composition identity and the acceptance battery's contact-volume
oracle compare the package against them.  Conventions are ``levi``'s: ``J``
by ``levi.apply_J`` and two-forms in the 1/2 convention.
"""

import math

import numpy as np

from concavia._numerics import GOLD, SILVER, kronecker
from concavia.certs import Certificate
from concavia.levi import apply_J

#: 1 / the bronze mean, a third Kronecker step beside ``GOLD`` and ``SILVER``
BRONZE = (math.sqrt(13.0) - 3.0) / 2.0


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
