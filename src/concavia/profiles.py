"""Radial-profile calculus for rotationally invariant hypersurfaces.

A profile describes a surface ``{|z2| = p(|z1|)}`` (or a graph the other way
around) through the log-transform ``L(x) = log p(e^x)``, because every
classification statement used downstream — contact sign, characteristic
foliation slope, convexity — is a statement about ``L``:

* slope of the characteristic foliation: ``r p'/p = L'(log r)``,
* the complex tangencies give the negative (resp. positive) standard contact
  structure iff ``L`` is strictly convex (resp. concave).

The module also builds the model curves: ``f1 = c1 + eps1 |z2|^2`` (convex
log-profile), ``f2 = c2 - eps2 |z2|^2`` with a strictly concave extension
driving its log-slope below -1, and their pushforwards ``h1``, ``h2`` to the
quotient-annulus frame, where both become convex with slopes of opposite
signs — the configuration that makes the connecting convex join feasible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import brentq
from .certs import Certificate
from .convexjoin import SplineC2, extend_concave
from .errors import BranchError, DomainError, FeasibilityError

__all__ = [
    "Profile",
    "ContactTag",
    "ContactClass",
    "eval_profile",
    "second_derivative_identity_check",
    "classify_contact",
    "make_f1",
    "make_f2",
    "pushforward_h1",
    "pushforward_h2",
]

_DOMAIN_SLACK = 1e-12
# log-slope that f2's concave extension reaches at x = log(1/rho1)
_F2_END_SLOPE = -1.05


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """C^2 log-profile ``L`` on ``[x_lo, x_hi]`` with derivative oracles."""

    x_lo: float
    x_hi: float
    L_fn: object
    dL_fn: object
    d2L_fn: object
    meta: dict = field(default_factory=dict, compare=False)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            lo = hi = float(x)
        else:
            # fmin/fmax skip NaN, which passes the check
            lo = np.fmin.reduce(x, axis=None, initial=math.inf)
            hi = np.fmax.reduce(x, axis=None, initial=-math.inf)
        if lo < self.x_lo - _DOMAIN_SLACK or hi > self.x_hi + _DOMAIN_SLACK:
            raise DomainError(
                f"x outside profile domain [{self.x_lo}, {self.x_hi}]")
        return x

    def L(self, x):
        x = self._check(x)
        out = self.L_fn(x)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def dL(self, x):
        x = self._check(x)
        out = self.dL_fn(x)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def d2L(self, x):
        x = self._check(x)
        out = self.d2L_fn(x)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def grid(self, n: int, margin: float = 0.0) -> np.ndarray:
        return np.linspace(self.x_lo + margin, self.x_hi - margin, n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callables(cls, x_lo, x_hi, L, dL, d2L, meta=None) -> "Profile":
        return cls(float(x_lo), float(x_hi), L, dL, d2L, dict(meta or {}))

    @classmethod
    def from_spline(cls, spline: SplineC2, meta=None) -> "Profile":
        m = dict(meta or {})
        m.setdefault("kind", "spline")
        m["spline"] = spline.to_dict()
        return cls(spline.x_lo, spline.x_hi, spline.f, spline.df, spline.d2f, m)

    @classmethod
    def piecewise(cls, x_lo, x_switch, germ_L, germ_dL, germ_d2L,
                  spline: SplineC2, meta=None) -> "Profile":
        """Closed-form germ for ``x <= x_switch``, spline beyond."""

        def _dispatch(g, s):
            def f(x):
                if not isinstance(x, float):  # a float skips the 0-d array
                    x = np.asarray(x, dtype=float)
                    if x.ndim:
                        m = x <= x_switch   # NaN goes to the spline
                        if m.all():         # one side: no masks to gather by
                            return g(x)
                        if not m.any():
                            return s(x)
                        out = np.empty_like(x)
                        out[m] = g(x[m])
                        out[~m] = s(x[~m])
                        return out
                return g(x) if x <= x_switch else s(x)
            return f

        m = dict(meta or {})
        m.setdefault("kind", "piecewise")
        m["x_switch"] = x_switch
        m["spline"] = spline.to_dict()
        return cls(float(x_lo), spline.x_hi,
                   _dispatch(germ_L, spline.f),
                   _dispatch(germ_dL, spline.df),
                   _dispatch(germ_d2L, spline.d2f), m)

    def to_dict(self) -> dict:
        out = {"x_lo": self.x_lo, "x_hi": self.x_hi}
        for key in ("kind", "x_switch", "spline", "params", "conditions"):
            if key in self.meta:
                out[key] = self.meta[key]
        return out


class ContactTag(enum.Enum):
    PositiveContact = "PositiveContact"
    NegativeContact = "NegativeContact"
    LeviFlat = "LeviFlat"
    Indefinite = "Indefinite"


@dataclass(frozen=True)
class ContactClass:
    tag: ContactTag
    margin: float


# ---------------------------------------------------------------------------
# Pointwise calculus
# ---------------------------------------------------------------------------

def eval_profile(p: Profile, r):
    """``(p(r), p'(r), p''(r))`` from the log-profile by the chain rule."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("profile evaluation needs r > 0")
    x = np.log(r)
    val = np.exp(p.L(x))
    d1, d2 = p.dL(x), p.d2L(x)
    first = val * d1 / r
    second = val * (d2 - d1 + d1 * d1) / (r * r)
    if val.ndim == 0:
        return float(val), float(first), float(second)
    return val, first, second


def second_derivative_identity_check(p: Profile, grid) -> Certificate:
    """Check that ``L''`` matches the slope's radial derivative in sign.

    Two independent right-hand sides are compared against ``L''(x)``:
    the quotient form ``r * d/dr[r p'/p]`` assembled from the evaluated
    ``(p, p', p'')`` triple, and a central finite difference of the slope.
    """
    xs = np.asarray(grid, dtype=float)
    r = np.exp(xs)
    lhs = p.d2L(xs)
    val, first, second = eval_profile(p, r)
    quotient = (first * val + r * second * val - r * first * first) / (val * val)
    rhs_alg = r * quotient
    # Centered difference of the slope in x; sign(d slope/dx) = sign(d/dr)
    # since r > 0.  The step adapts to the distance to the domain boundary
    # so thin-branch profiles stay evaluable.
    h = np.minimum(1e-6, 0.49 * np.minimum(xs - p.x_lo, p.x_hi - xs))
    h = np.maximum(h, 1e-13)
    rhs_fd = (p.dL(xs + h) - p.dL(xs - h)) / (2 * h)

    alg_err = np.abs(lhs - rhs_alg) / np.maximum(1.0, np.abs(lhs))
    zero_band = np.abs(lhs) < 1e-9
    sign_ok = zero_band | (np.sign(lhs) == np.sign(rhs_fd)) | (np.abs(rhs_fd) < 1e-7)
    ok = bool(np.all(alg_err < 1e-7) and np.all(sign_ok))

    details = {"max_algebraic_err": float(alg_err.max()),
               "algebraic_tol": 1e-7,
               "n_points": int(xs.size)}
    if bool(np.all(zero_band)):
        details["note"] = "LeviFlat"
        margin = 0.0
    else:
        margin = float(np.abs(lhs).min())
    worst = None
    if not ok:
        bad = ~sign_ok | (alg_err >= 1e-9)
        i = int(np.argmax(bad))
        worst = (float(xs[i]),)
    return Certificate(
        name="second_derivative_identity",
        grid=f"{xs.size} points in [{xs.min():.6g}, {xs.max():.6g}]",
        margin=margin, passed=ok, worst_point=worst, details=details)


def classify_contact(p: Profile, grid, tol: float = 1e-9) -> ContactClass:
    """Contact type of the rotationally invariant surface from ``sign(L'')``."""
    xs = np.asarray(grid, dtype=float)
    if xs.size < 32:
        raise ValueError("classify_contact needs a grid of at least 32 points")
    d2 = p.d2L(xs)
    if np.all(np.abs(d2) < tol):
        return ContactClass(ContactTag.LeviFlat, float(np.abs(d2).max()))
    if np.all(d2 > tol):
        return ContactClass(ContactTag.NegativeContact, float(d2.min()))
    if np.all(d2 < -tol):
        return ContactClass(ContactTag.PositiveContact, float(-d2.max()))
    return ContactClass(ContactTag.Indefinite, 0.0)


# ---------------------------------------------------------------------------
# Model curves
# ---------------------------------------------------------------------------

def _quad_log_germ(c: float, eps: float, sgn: int):
    """Callable triple for ``L(x) = log(c + sgn*eps*e^{2x})``."""
    def L(x):
        return np.log(c + sgn * eps * np.exp(2 * np.asarray(x, dtype=float)))

    def dL(x):
        e = eps * np.exp(2 * np.asarray(x, dtype=float))
        return 2 * sgn * e / (c + sgn * e)

    def d2L(x):
        e = eps * np.exp(2 * np.asarray(x, dtype=float))
        d = c + sgn * e   # squared by a product: a float64 scalar's ** goes through pow
        return 4 * sgn * e * c / (d * d)

    return L, dL, d2L


def make_f1(params, eps1: float, x_lo: float = -8.0) -> Profile:
    """Convex model curve ``|z1| = c1 + eps1 |z2|^2`` as a log-profile.

    Domain ``[x_lo, log(1/rho1)]`` in ``x = log |z2|``.  Records the three
    defining conditions (germ shape, strict log-convexity, positive end
    slope) with their margins in ``meta['conditions']``.
    """
    if eps1 <= 0:
        raise FeasibilityError("eps1 > 0", f"got {eps1}")
    x_hi = math.log(1.0 / params.rho1)
    top = params.c1 + eps1 / params.rho1 ** 2
    if not top < params.rho2:
        raise FeasibilityError(
            "c1 + eps1/rho1^2 < rho2",
            f"max of f1 is {top:.6g} >= rho2 = {params.rho2}")
    L, dL, d2L = _quad_log_germ(params.c1, eps1, +1)
    end_slope = float(dL(x_hi))
    xs = np.linspace(x_lo, x_hi, 512)
    meta = {
        "kind": "f1",
        "params": {"c1": params.c1, "eps1": eps1},
        "conditions": {
            "germ_quadratic": True,
            "log_convexity_margin": float(np.min(d2L(xs))),
            "end_slope": end_slope,
            "range_margin": params.rho2 - top,
        },
    }
    if not (meta["conditions"]["log_convexity_margin"] > 0 and end_slope > 0):
        raise FeasibilityError("f1 conditions", str(meta["conditions"]))
    return Profile.from_callables(x_lo, x_hi, L, dL, d2L, meta)


def make_f2(params, eps2: float, x_lo: float = -8.0, x_switch: float = -0.3,
            knots: int = 16) -> Profile:
    """Concave model curve: germ ``c2 - eps2 |z2|^2`` plus a steep extension.

    The germ alone cannot reach log-slope below -1 while keeping ``f2 > 1``
    at this scale, so beyond ``x_switch`` a strictly concave C^2 extension
    (full C^2 contact at the switch) drives the slope to ``_F2_END_SLOPE`` by
    ``x_end = log(1/rho1)`` while staying above ``f2 = 1``.
    """
    if eps2 <= 0:
        raise FeasibilityError("eps2 > 0", f"got {eps2}")
    x_end = math.log(1.0 / params.rho1)
    L, dL, d2L = _quad_log_germ(params.c2, eps2, -1)
    ext = extend_concave(x_switch, float(L(x_switch)), float(dL(x_switch)),
                         float(d2L(x_switch)), _F2_END_SLOPE, x_end,
                         floor=0.0, knots=knots)
    prof = Profile.piecewise(
        x_lo, x_switch, L, dL, d2L, ext,
        meta={"kind": "f2",
              "params": {"c2": params.c2, "eps2": eps2,
                         "x_switch": x_switch, "target_slope": _F2_END_SLOPE}})
    xs = prof.grid(512)
    conds = {
        "germ_quadratic": True,
        "log_concavity_margin": float(-np.max(prof.d2L(xs))),
        "end_slope": float(prof.dL(x_end)),
        "end_slope_margin": float(-1.0 - prof.dL(x_end)),
        "value_range": (float(np.exp(prof.L(xs).min())),
                        float(np.exp(prof.L(xs).max()))),
    }
    prof.meta["conditions"] = conds
    if not (conds["log_concavity_margin"] > 0 and conds["end_slope_margin"] > 0):
        raise FeasibilityError("f2 conditions", str(conds))
    if not (1.0 < conds["value_range"][0] and conds["value_range"][1] < params.rho2):
        raise FeasibilityError("f2 range in (1, rho2)", str(conds["value_range"]))
    return prof


# ---------------------------------------------------------------------------
# Pushforwards to the quotient-annulus frame
# ---------------------------------------------------------------------------

def _invert_increasing(fn, lo: float, hi: float):
    """Vectorized inverse of a strictly increasing scalar function."""
    def inv(X):
        X = np.asarray(X, dtype=float)
        flat = np.atleast_1d(X)
        out = np.empty_like(flat)
        f_lo, f_hi = fn(lo), fn(hi)
        for i, target in enumerate(flat):
            t = min(max(target, f_lo), f_hi)  # clamp roundoff at the ends
            out[i] = brentq(lambda y: fn(y) - t, lo, hi, xtol=1e-14)
        return out[0] if X.ndim == 0 else out
    return inv


def pushforward_h1(f1: Profile, y_lo: float = -2.0) -> Profile:
    """Graph transform of ``f1`` under ``(w1, w2) = (z1, 1/z2)``.

    ``|z1| = f1(|z2|)`` becomes ``|w2| = h1(|w1|)`` with log-profile
    ``Lh1(X) = -L1^{-1}(X)``, computed by monotone root finding; derivatives
    come from the inverse function theorem.  Restricted to ``y >= y_lo``
    to stay where ``L1'`` is usefully positive.
    """
    y_lo = max(y_lo, f1.x_lo)
    y_hi = f1.x_hi
    d_end = min(float(f1.dL(y_lo)), float(f1.dL(y_hi)))
    if d_end <= 0:
        raise DomainError(
            f"pushforward_h1 needs L1' > 0 on [{y_lo}, {y_hi}], min is {d_end}")
    inv = _invert_increasing(lambda y: f1.L(y), y_lo, y_hi)

    def Lh(X):
        return -inv(X)

    def dLh(X):
        return -1.0 / f1.dL(inv(X))

    def d2Lh(X):
        y = inv(X)
        return f1.d2L(y) / f1.dL(y) ** 3

    X_lo, X_hi = float(f1.L(y_lo)), float(f1.L(y_hi))
    return Profile.from_callables(
        X_lo, X_hi, Lh, dLh, d2Lh,
        meta={"kind": "h1", "source_domain": (y_lo, y_hi)})


def pushforward_h2(f2: Profile, branch_margin: float = 1e-3) -> Profile:
    """Graph transform of ``f2`` under ``(w1, w2) = (z1 z2, 1/z2)``.

    Parametrically, ``X = L2(y) + y`` and ``Lh2(X) = -y``; the map is a graph
    only on the branch where ``L2' < -1`` (so ``X`` is strictly decreasing
    in ``y``), which holds near the top of the domain by construction of
    ``f2``.  Raises ``BranchError`` if the requested branch leaves that
    region.
    """
    y_hi = f2.x_hi
    if float(f2.dL(y_hi)) >= -1.0:
        raise BranchError(
            f"L2'({y_hi:.6g}) = {float(f2.dL(y_hi)):.6g} >= -1: no graph branch")
    if float(f2.dL(y_hi)) >= -1.0 - branch_margin:
        raise BranchError("branch margin excludes the endpoint; reduce branch_margin")
    # The slope decreases strictly (f2 concave); bisect the exact crossing of
    # -1 - branch_margin.  The branch is typically a thin collar at the top.
    if float(f2.dL(f2.x_lo)) < -1.0 - branch_margin:
        y_lo = f2.x_lo
    else:
        y_lo = brentq(lambda y: float(f2.dL(y)) + 1.0 + branch_margin,
                      f2.x_lo, y_hi, xtol=1e-14)

    def x_of_y(y):
        return f2.L(y) + y

    # X decreasing in y on the branch
    X_lo, X_hi = float(x_of_y(y_hi)), float(x_of_y(y_lo))
    inv_desc = _invert_increasing(lambda t: x_of_y(y_lo + y_hi - t), y_lo, y_hi)

    def y_of_X(X):
        return y_lo + y_hi - inv_desc(X)

    def Lh(X):
        return -y_of_X(X)

    def dLh(X):
        d = f2.dL(y_of_X(X))
        return -1.0 / (d + 1.0)

    def d2Lh(X):
        y = y_of_X(X)
        return f2.d2L(y) / (f2.dL(y) + 1.0) ** 3

    return Profile.from_callables(
        X_lo, X_hi, Lh, dLh, d2Lh,
        meta={"kind": "h2", "branch": (y_lo, y_hi), "branch_margin": branch_margin})

