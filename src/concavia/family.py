"""The model sphere, its nested collar family, and the main sign sweeps.

This module assembles the piecewise sphere ``M1 = H1 u H2 u S`` from the
wall profiles and the convex seam join, embeds it as the top slice of a
one-parameter family of nested spheres, defines the level function ``gamma``
of that family, and runs the global verdicts: strict transverse convexity of
the level sets, contact positivity along the binding circles, page
nondegeneracy, and the frame-spanning condition.

Coordinate conventions, fixed once:

* ``q1 = log |z1|`` and ``q2 = log |z2|`` (log radii in the chart at hand).
  Wall pieces are presented in the inner chart; seam/dome points in the strip
  chart, whose first coordinate equals the covering-annulus modulus, so the
  dome is the graph ``q2 = -htilde(q1)`` there.  Both presentations are
  holomorphic charts, hence every Levi-form sign computed per point is
  chart-independent.
* Orientation: ``M1`` is oriented as the boundary of the compact piece it
  bounds, i.e. co-oriented by the normal pointing into the non-compact side
  (the side swept by the interior slices, where ``gamma < 1``).  Frames are
  listed normal-first.  "Negative contact" is certified as ``alpha ^ d alpha
  < 0`` in this orientation; flipping the co-orientation flips the sign
  uniformly, since the 3-form is alternating.
* ``u = exp(lambda * (gamma - 1))`` maps the collar into ``(0, 1]`` with
  ``u = 1`` exactly on ``M1``; it is a positive multiple of
  ``exp(lambda*gamma)``, so plurisubharmonicity certificates transfer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .atlas import ChartPoint, Params, in_complement_C, validate_params
from .certs import Certificate
from .convexjoin import EndpointData, JoinProblem, Sign, SplineC2, feasible, solve
from .errors import (
    BranchError,
    DomainError,
    FeasibilityError,
    FoliationError,
    OutOfFoliation,
    VerificationError,
)
from .levi import ScalarField, apply_J, exp_jet, find_lambda, jet, jet_d_c, jet_neg_ddc
from .profiles import (
    ContactTag,
    Profile,
    classify_contact,
    make_f1,
    make_f2,
    pushforward_h1,
    pushforward_h2,
)

__all__ = [
    "Knobs",
    "default_knobs",
    "SphereModel",
    "FamilySpec",
    "build_M1",
    "sample_M1",
    "build_family",
    "gamma_field",
    "normalized_potential",
    "pseudoconcavity_check",
    "compatibility_check",
    "verification_grid",
    "run_verification",
]

#: tolerance for the two C^1 seam matches of the join
SEAM_TOL = 1e-9
#: strict nesting floor along rays
NESTING_FLOOR = 1e-6
#: log-radius margin kept between check grids and the two seam corners
CORNER_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# Build configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Knobs:
    """Shape parameters of the construction that are free within the chain.

    ``eps1``/``eps2`` are the quadratic coefficients of the two wall germs,
    ``x_switch``/``x_lo`` delimit the steep extension of the right wall,
    ``knots`` sizes every spline, ``depth_frac`` requests the dome depth as a
    fraction of the radial budget ``log(rho1/rho0)``, and ``branch_margin``
    is the slope clearance below -1 required of the pushed-forward right
    wall.
    """

    eps1: float = 0.004
    eps2: float = 0.005
    x_switch: float = -0.3
    x_lo: float = -8.0
    knots: int = 16
    depth_frac: float = 0.30
    branch_margin: float = 1e-3


def default_knobs() -> Knobs:
    return Knobs()


# ---------------------------------------------------------------------------
# The sphere model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereModel:
    """The assembled piecewise sphere and its build certificates.

    ``f1``/``f2`` are the wall profiles in the inner chart, ``h1``/``h2``
    their graph transforms to the gluing frame, ``htilde`` the convex join
    spline between the transformed endpoints, and ``h`` the join wrapped as
    a profile.  ``depth`` is the measured peak height of the dome above the
    band bottom.  ``certificates`` is filled during the build; the build
    fails rather than returning a model with a failing certificate.
    """

    params: Params
    knobs: Knobs
    f1: Profile
    f2: Profile
    h1: Profile
    h2: Profile
    htilde: SplineC2
    h: Profile
    depth: float
    certificates: dict = field(default_factory=dict, repr=False)

    @property
    def y_star(self) -> float:
        """Log radius of the band bottom, ``log(1/rho1)``."""
        return math.log(1.0 / self.params.rho1)

    @property
    def budget(self) -> float:
        return math.log(self.params.rho1 / self.params.rho0)

    @property
    def window(self) -> tuple[float, float]:
        """Dome abscissa range in the gluing frame."""
        return self.htilde.x_lo, self.htilde.x_hi

    @property
    def corners(self) -> dict:
        """Log-radius coordinates of the seam corners and binding radii."""
        return {
            "left": (self.htilde.x_lo, self.y_star),
            "right": (self.htilde.x_hi, self.y_star),
            "binding_radii": (self.params.c1, self.params.c2),
        }

    def summary(self) -> dict:
        s = {
            "window": list(self.window),
            "depth": self.depth,
            "y_star": self.y_star,
            "certificates": {k: c.to_dict() for k, c in sorted(self.certificates.items())},
        }
        return s


def _seam_residuals(htilde: SplineC2, h1: Profile, h2: Profile) -> dict:
    x1, x2 = htilde.x_lo, htilde.x_hi
    return {
        "left_value": abs(float(htilde.f(x1)) - float(h1.L(x1))),
        "left_slope": abs(float(htilde.df(x1)) - float(h1.dL(x1))),
        "right_value": abs(float(htilde.f(x2)) - float(h2.L(x2))),
        "right_slope": abs(float(htilde.df(x2)) - float(h2.dL(x2))),
    }


def _profile_conditions_cert(name: str, prof: Profile) -> Certificate:
    conds = dict(prof.meta.get("conditions", {}))
    margins = []
    for key, val in conds.items():
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            if key.endswith(("margin", "slope")):
                margins.append(abs(val) if key == "end_slope" else float(val))
    margin = min(margins) if margins else float("inf")
    return Certificate(
        name=name, grid=f"domain [{prof.x_lo:.6g}, {prof.x_hi:.6g}]",
        margin=margin, passed=margin > 0, details=conds)


def build_M1(params: Params, knobs: Knobs | None = None) -> SphereModel:
    """Assemble the sphere from two walls and a convex seam join.

    Raises :class:`FeasibilityError` naming the binding constraint when the
    shape knobs cannot satisfy the construction (for instance when the right
    wall cannot reach log-slope below -1 with the requested margin, reported
    as ``"endpoint slope"``), and :class:`VerificationError` if an assembled
    model fails one of its own certificates.
    """
    knobs = knobs or default_knobs()
    y_star = math.log(1.0 / params.rho1)
    budget = math.log(params.rho1 / params.rho0)

    f1 = make_f1(params, knobs.eps1, x_lo=knobs.x_lo)
    f2 = make_f2(params, knobs.eps2, x_lo=knobs.x_lo, x_switch=knobs.x_switch,
                 knots=knobs.knots)
    h1 = pushforward_h1(f1)
    try:
        h2 = pushforward_h2(f2, branch_margin=knobs.branch_margin)
    except BranchError as err:
        raise FeasibilityError("endpoint slope", str(err)) from err

    left = EndpointData(h1.x_hi, float(h1.L(h1.x_hi)), float(h1.dL(h1.x_hi)))
    right = EndpointData(h2.x_lo, float(h2.L(h2.x_lo)), float(h2.dL(h2.x_lo)))
    floor = math.log(params.rho0) + 0.1 * budget
    problem = JoinProblem(left, right, Sign.CONVEX,
                          bounds=(lambda x: floor, None))
    ok, slope_diag = feasible(problem)
    htilde = solve(problem, knots=knobs.knots, target_depth=knobs.depth_frac * budget)
    h = Profile.from_spline(htilde, meta={"kind": "seam"})

    xs = np.linspace(htilde.x_lo, htilde.x_hi, 4001)
    depth = float(np.max(-htilde.f(xs) - y_star))

    model = SphereModel(params=params, knobs=knobs, f1=f1, f2=f2,
                        h1=h1, h2=h2, htilde=htilde, h=h, depth=depth)
    certs = model.certificates

    certs["wall1_shape"] = _profile_conditions_cert("wall1_shape", f1)
    certs["wall2_shape"] = _profile_conditions_cert("wall2_shape", f2)

    sd = dict(slope_diag)
    sl, sr, ch = left.deriv, right.deriv, sd.get("chord", float("nan"))
    certs["seam_slopes"] = Certificate(
        name="seam_slopes", grid="2 endpoints",
        margin=min(ch - sl, sr - ch), passed=bool(ok),
        details={"left_slope": sl, "right_slope": sr, **sd})

    jd = dict(htilde.diagnostics)
    certs["seam_join"] = Certificate(
        name="seam_join", grid=f"{knobs.knots} knots",
        margin=float(jd.get("eps_mid", 0.0)), passed=jd.get("eps_mid", 0.0) > 0,
        details=jd)

    res = _seam_residuals(htilde, h1, h2)
    worst = max(res.values())
    certs["seam_C1"] = Certificate(
        name="seam_C1", grid="2 seams, value+slope",
        margin=SEAM_TOL - worst, passed=worst < SEAM_TOL, details=res)

    cls = classify_contact(h, h.grid(512))
    certs["seam_contact"] = Certificate(
        name="seam_contact", grid="512 points",
        margin=cls.margin, passed=cls.tag is ContactTag.NegativeContact,
        details={"tag": cls.tag.value})

    certs["clearances"] = _clearance_cert(model)
    certs["membership"] = _membership_cert(model)

    bad = [k for k, c in certs.items() if not c.passed]
    if bad:
        raise VerificationError(f"model certificates failed: {bad}",
                                certificate=certs[bad[0]])
    return model


def _clearance_cert(model: SphereModel) -> Certificate:
    """Margins separating the sphere from the removed band and corner tori."""
    p = model.params
    X1, X2 = model.window
    y_star = model.y_star
    peak = y_star + model.depth
    lz1, lz2 = math.log(p.zeta1), math.log(p.zeta2)
    # wall/dome moduli versus the removed band (log radii)
    gaps = {
        "wall1_above_band": math.log(p.c1) - lz2,
        "dome_above_band": X1 - lz2,
        "wall2_below_band": lz1 - math.log(p.c2 if p.c2 > 1 else 1.0),
        "dome_wrap_below_band": lz1 - (X2 - y_star),
        "dome_under_strip_top": math.log(1.0 / p.rho0) - peak,
    }
    # corner tori of the gluing region: moduli (a, 1/c) and (c*b, 1/c)
    q2_tori = math.log(1.0 / p.c)
    gaps["torus_a_gap"] = max(X1 - math.log(p.a), q2_tori - peak)
    gaps["torus_b_gap"] = max(math.log(p.c * p.b) - X2, q2_tori - peak)
    # the b-torus compared with the top of the right wall
    gaps["torus_b_wall_gap"] = max(q2_tori - y_star,
                                   abs(math.log(p.c * p.b) - y_star - (X2 - y_star)))
    margin = min(gaps.values())
    return Certificate(
        name="clearances", grid="band + 2 corner tori",
        margin=margin, passed=margin > 0, details=gaps)


def _membership_cert(model: SphereModel, n: int = 400) -> Certificate:
    p = model.params
    lz1, lz2 = math.log(p.zeta1), math.log(p.zeta2)
    samples = sample_M1(model, n)
    bad = 0
    worst = None
    dist = float("inf")
    for pt, tag in samples:
        if not in_complement_C(p, pt):
            bad += 1
            worst = (tag, pt.z1, pt.z2)
        q = math.log(abs(pt.z1))
        dist = min(dist, max(lz1 - q, q - lz2))
    return Certificate(
        name="membership", grid=f"{len(samples)} samples",
        margin=dist if bad == 0 else float(-bad),
        passed=bad == 0 and dist > 0, worst_point=worst,
        details={"violations": bad, "min_band_distance": dist})


# ---------------------------------------------------------------------------
# Quasi-uniform sampling of the sphere
# ---------------------------------------------------------------------------

_GOLD1 = (math.sqrt(5.0) - 1.0) / 2.0
_GOLD2 = math.sqrt(2.0) - 1.0


def _piece_weight(xs: np.ndarray, r1: np.ndarray, r2: np.ndarray,
                  dr1: np.ndarray, dr2: np.ndarray) -> np.ndarray:
    """Revolution-area density ``r1 r2 |curve'|`` along a piece."""
    return r1 * r2 * np.hypot(dr1, dr2)


def _inverse_cdf(xs: np.ndarray, dens: np.ndarray, m: int) -> np.ndarray:
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(xs))])
    targets = (np.arange(m) + 0.5) / m * cum[-1]
    return np.interp(targets, cum, xs)


def _seam_band_boost(xs: np.ndarray, w: np.ndarray, ends: tuple) -> np.ndarray:
    """Multiply the last (and/or first) decile of mass by 4 for oversampling."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))])
    total = cum[-1]
    boost = np.ones_like(w)
    if "hi" in ends:
        x_q = np.interp(0.9 * total, cum, xs)
        boost[xs >= x_q] = 4.0
    if "lo" in ends:
        x_q = np.interp(0.1 * total, cum, xs)
        boost[xs <= x_q] = 4.0
    return w * boost


def sample_M1(model: SphereModel, n: int) -> list[tuple[ChartPoint, str]]:
    """Quasi-uniform area-weighted samples of the sphere with piece tags.

    Samples are drawn piece by piece proportionally to the revolution area,
    by inverse-CDF placement along the profile curve; the decile of mass
    adjacent to each seam corner is oversampled four-fold.  Angles follow a
    two-dimensional golden-ratio sequence, so the output is deterministic.
    """
    if n < 100:
        raise DomainError(f"sample_M1 needs n >= 100, got {n}")
    p = model.params
    grids = {}
    dens = {}
    # walls: parametrized by x = log|z2|
    for tag, prof, ends in (("H1", model.f1, ("hi",)), ("H2", model.f2, ("hi",))):
        xs = np.linspace(prof.x_lo, prof.x_hi, 4001)
        r2 = np.exp(xs)
        r1 = np.exp(prof.L(xs))
        w = _piece_weight(xs, r1, r2, r1 * prof.dL(xs), r2)
        grids[tag] = xs
        dens[tag] = (w, _seam_band_boost(xs, w, ends))
    # seam: parametrized by the gluing-frame abscissa X
    X1, X2 = model.window
    Xs = np.linspace(X1, X2, 4001)
    rw = np.exp(Xs)
    r2s = np.exp(-model.htilde.f(Xs))
    wS = _piece_weight(Xs, rw, r2s, rw, -r2s * model.htilde.df(Xs))
    grids["S"] = Xs
    dens["S"] = (wS, _seam_band_boost(Xs, wS, ("lo", "hi")))

    areas = {t: float(np.trapezoid(dens[t][0], grids[t])) for t in grids}
    total = sum(areas.values())
    counts = {t: max(8, round(n * areas[t] / total)) for t in grids}
    counts["H1"] += n - sum(counts.values())  # absorb rounding in the largest piece

    out: list[tuple[ChartPoint, str]] = []
    j = 0
    for tag in ("H1", "H2", "S"):
        xs = _inverse_cdf(grids[tag], dens[tag][1], counts[tag])
        for x in xs:
            th1 = 2.0 * math.pi * ((j * _GOLD1) % 1.0)
            th2 = 2.0 * math.pi * ((j * _GOLD2) % 1.0)
            j += 1
            if tag == "S":
                z1 = np.exp(x) * np.exp(1j * th1)
                z2 = np.exp(-float(model.htilde.f(x))) * np.exp(1j * th2)
                out.append((ChartPoint.v_prime(p, z1, z2), tag))
            else:
                prof = model.f1 if tag == "H1" else model.f2
                r1 = float(np.exp(prof.L(x)))
                z1 = r1 * np.exp(1j * th1)
                z2 = math.exp(x) * np.exp(1j * th2)
                out.append((ChartPoint.v(p, z1, z2), tag))
    return out


# ---------------------------------------------------------------------------
# The interpolating family and its level function
# ---------------------------------------------------------------------------

def _broadcast_curve(fn):
    """Wrap a user parameter curve so scalar-valued curves vectorize."""
    def wrapped(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(fn(t), dtype=float)
        return out if out.shape == t.shape else np.broadcast_to(out, t.shape)
    return wrapped


class _Foliation:
    """Closed-form nested slices interpolating walls and dome.

    Slice ``tau`` pushes the left wall affinely from the outer edge
    ``|z1| = rho2`` toward the built wall, the right wall from the wrap
    circle ``|z1| = 1`` outward, and hangs a dome of scaled depth from an
    attachment height ``y_cut(tau)`` that rises to the band bottom at
    ``tau = 1``.  Outside the dome window the dome continues with fixed
    mild slopes, which keeps the whole field strictly increasing in ``tau``.
    """

    #: total descent of the attachment height below the band bottom
    SM = 0.002
    #: dome depth fraction as tau -> 0
    D_FLOOR = 0.45
    #: root bracket for the level parameter, wider than (0, 1]
    TAU_LO, TAU_HI = 0.02, 1.25
    #: continuation slopes left/right of the dome window
    EXT_L, EXT_R = 3.0, -3.0

    def __init__(self, model: SphereModel, curves: dict | None = None):
        self.model = model
        p = model.params
        self.rho2 = p.rho2
        self.c1_0, self.c2_0 = p.c1, p.c2
        self.eps1 = model.knobs.eps1
        self.y_star = model.y_star
        self.X1, self.X2 = model.window
        self.span = self.X2 - self.X1
        self.D1 = model.depth
        f2 = model.f2
        self._f2_lo, self._f2_hi = f2.x_lo, f2.x_hi
        self._f2_L, self._f2_dhi = f2.L, float(f2.dL(f2.x_hi))
        self._ht_f = model.htilde.f
        self._custom = curves is not None
        if curves is None:
            self._c1 = lambda t: self.rho2 - (self.rho2 - self.c1_0) * np.asarray(t, float)
            self._c2 = lambda t: 1.0 + (self.c2_0 - 1.0) * np.asarray(t, float)
        else:
            self._c1 = _broadcast_curve(curves["c1"])
            self._c2 = _broadcast_curve(curves["c2"])

    # parameter curves ----------------------------------------------------
    def c1(self, t):
        return self._c1(t)

    def c2(self, t):
        return self._c2(t)

    def g1(self, t):
        """Left-wall interpolation factor; equals tau for the linear curves."""
        return (self.rho2 - self._c1(t)) / (self.rho2 - self.c1_0)

    def g2(self, t):
        return (self._c2(t) - 1.0) / (self.c2_0 - 1.0)

    # geometry ------------------------------------------------------------
    def y_cut(self, t):
        return self.y_star - self.SM * (1.0 - np.asarray(t, float))

    def f1c(self, r2):
        return self.c1_0 + self.eps1 * np.asarray(r2, float) ** 2

    def f2c_x(self, x):
        """Right wall as a function of ``log|z2|``, C^1-extended above its
        domain end with the end slope (the clamp alone would kink the field
        exactly on the top slice)."""
        x = np.asarray(x, float)
        core = self._f2_L(np.clip(x, self._f2_lo, self._f2_hi))
        return np.exp(core + self._f2_dhi * np.maximum(x - self._f2_hi, 0.0))

    def wall1(self, t, r2):
        return self.rho2 - self.g1(t) * (self.rho2 - self.f1c(r2))

    def wall2(self, t, q2):
        return 1.0 + self.g2(t) * (self.f2c_x(q2) - 1.0)

    def Xl(self, t):
        return np.log(self.wall1(t, np.exp(self.y_cut(t))))

    def Xr(self, t):
        yc = self.y_cut(t)
        return np.log(self.wall2(t, yc)) + yc

    def phat(self, s):
        sc = np.clip(s, 0.0, 1.0)
        return (-self._ht_f(self.X1 + sc * self.span) - self.y_star) / self.D1

    def D(self, t):
        return self.D1 * (self.D_FLOOR + (1.0 - self.D_FLOOR) * np.asarray(t, float))

    def dish(self, t, q1):
        t = np.asarray(t, float)
        q1 = np.asarray(q1, float)
        xl, xr = self.Xl(t), self.Xr(t)
        s = (q1 - xl) / (xr - xl)
        return self.y_cut(t) + np.where(
            s < 0.0, self.EXT_L * (q1 - xl),
            np.where(s > 1.0, self.EXT_R * (q1 - xr), self.D(t) * self.phat(s)))

    def _invert_factor(self, g, fac):
        """Invert a monotone interpolation factor back to the level ``tau``.

        Identity for the default linear curves; bisection otherwise.
        Out-of-bracket factors map to levels outside the validity window so
        the sector conditions reject them.
        """
        if not self._custom:
            return fac
        lo = np.full(fac.shape, 0.25 * self.TAU_LO)
        hi = np.full(fac.shape, self.TAU_HI)
        with np.errstate(invalid="ignore"):
            below = fac < g(lo)
            above = fac > g(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = g(mid) < fac
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        t = 0.5 * (lo + hi)
        return np.where(below, 0.0, np.where(above, self.TAU_HI + 1.0, t))

    # the level function --------------------------------------------------
    def gamma(self, z1, z2):
        """Level of the slice through ``(z1, z2)``; NaN outside the collar."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        scalar = z1.ndim == 0 and z2.ndim == 0
        z1, z2 = np.broadcast_arrays(np.atleast_1d(z1), np.atleast_1d(z2))
        shape = z1.shape
        z1 = z1.ravel()
        z2 = z2.ravel()
        r1 = np.abs(z1)
        r2 = np.abs(z2)
        q1 = np.log(r1)
        with np.errstate(divide="ignore"):
            q2 = np.log(r2)
        out = np.full(r1.shape, np.nan)

        t1 = self._invert_factor(
            self.g1, (self.rho2 - r1) / (self.rho2 - self.f1c(r2)))
        v1 = (t1 > self.TAU_LO) & (t1 <= self.TAU_HI) & (q2 <= self.y_cut(t1) + 1e-12)
        out[v1] = t1[v1]

        den2 = self.f2c_x(q2) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            fac2 = (r1 - 1.0) / den2
        t2 = self._invert_factor(self.g2, fac2)
        v2 = ((t2 > self.TAU_LO) & (t2 <= self.TAU_HI)
              & (q2 <= self.y_cut(t2) + 1e-12) & ~v1)
        out[v2] = t2[v2]

        rest = ~(v1 | v2) & np.isfinite(q2)
        if np.any(rest):
            qq1 = q1[rest]
            qq2 = q2[rest]
            lo = np.full(qq1.shape, self.TAU_LO)
            hi = np.full(qq1.shape, self.TAU_HI)
            ok = (self.dish(lo, qq1) <= qq2) & (self.dish(hi, qq1) >= qq2)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                up = self.dish(mid, qq1) < qq2
                lo = np.where(up, mid, lo)
                hi = np.where(up, hi, mid)
            tau = 0.5 * (lo + hi)
            sig = (qq1 - self.Xl(tau)) / (self.Xr(tau) - self.Xl(tau))
            ok &= (sig > -0.05) & (sig < 1.05)
            vals = out[rest]
            vals[:] = np.where(ok, tau, np.nan)
            out[rest] = vals
        out = out.reshape(shape)
        return float(out[()] if out.ndim == 0 else out.flat[0]) if scalar else out


@dataclass(frozen=True)
class FamilySpec:
    """A nested one-parameter family of spheres over ``tau in (0, 1]``.

    ``model`` is the top slice; ``taus`` the verified slice grid;
    ``fol`` the closed-form interpolation whose level function the
    collar checks use.  Certificates: per-slice validity, parameter-curve
    monotonicity, ray nesting, top-slice equality, and level consistency.
    """

    model: SphereModel
    n_tau: int
    taus: tuple
    fol: _Foliation = field(repr=False)
    certificates: dict = field(default_factory=dict, repr=False)

    #: half-open parameter range, top slice included
    tau_range: tuple = (0.0, 1.0)

    def curve(self, tau: float) -> dict:
        """Parameter curves of the slice through ``tau``."""
        fol = self.fol
        g1, g2 = float(fol.g1(tau)), float(fol.g2(tau))
        e1 = self.model.knobs.eps1 * g1
        e2 = self.model.knobs.eps2 * g2
        r2b = math.exp(fol.y_cut(tau))
        c1t, c2t = float(fol.c1(tau)), float(fol.c2(tau))
        return {
            "c1": c1t, "c2": c2t, "eps1": e1, "eps2": e2,
            "end_slope1": 2.0 * e1 * r2b ** 2 / (c1t + e1 * r2b ** 2),
            "end_slope2": -2.0 * e2 * r2b ** 2 / (c2t - e2 * r2b ** 2),
        }


def _nesting_rays(fol: _Foliation, taus) -> list[tuple[str, float, np.ndarray]]:
    """64 radial sweeps: 28 per wall plus 8 through the dome cap.

    Returns ``(ray name, floor, radial coordinates per tau)`` triples where
    the radial coordinate must be strictly increasing (walls: toward the
    built sphere; dome: attachment height).
    """
    taus = np.asarray(taus, float)
    rays = []
    q2_top = float(fol.y_cut(taus.min())) - 1e-3
    for q2 in np.linspace(-5.5, q2_top, 28):
        r = fol.wall1(taus, math.exp(q2))
        rays.append((f"wall1 q2={q2:.4f}", float(fol.rho2), -r))
    for q2 in np.linspace(-5.5, q2_top, 28):
        r = fol.wall2(taus, q2)
        rays.append((f"wall2 q2={q2:.4f}", 1.0, r))
    xl = float(fol.Xl(taus.min())) + 2e-3
    xr = float(fol.Xr(taus.min())) - 2e-3
    for q1 in np.linspace(xl, xr, 8):
        h = fol.dish(taus, q1)
        rays.append((f"dome q1={q1:.4f}", 0.0, h))
    return rays


def _slice_shape_cert(fol: _Foliation, taus, params: Params) -> Certificate:
    lz1, lz2 = math.log(params.zeta1), math.log(params.zeta2)
    q2_strip_top = math.log(1.0 / params.rho0)
    t_grid = sorted(set(taus) | {0.5 * (a + b) for a, b in zip(taus, taus[1:])})
    gaps = {k: float("inf") for k in (
        "wall1_in_range", "wall2_in_range", "wall_separation",
        "wall1_above_band", "wall2_below_band", "cap_window",
        "cap_above_band", "peak_headroom")}
    for t in t_grid:
        yc = float(fol.y_cut(t))
        q2g = np.linspace(-6.0, yc, 129)
        r1a = fol.wall1(t, np.exp(q2g))
        r1b = fol.wall2(t, q2g)
        gaps["wall1_in_range"] = min(gaps["wall1_in_range"],
                                     float(np.min(r1a - 1.0)),
                                     float(np.min(fol.rho2 - r1a)))
        gaps["wall2_in_range"] = min(gaps["wall2_in_range"],
                                     float(np.min(r1b - 1.0)),
                                     float(np.min(fol.rho2 - r1b)))
        gaps["wall_separation"] = min(gaps["wall_separation"],
                                      float(np.min(r1a) - np.max(r1b)))
        gaps["wall1_above_band"] = min(gaps["wall1_above_band"],
                                       float(np.min(np.log(r1a))) - lz2)
        gaps["wall2_below_band"] = min(gaps["wall2_below_band"],
                                       lz1 - float(np.max(np.log(r1b))))
        xl, xr = float(fol.Xl(t)), float(fol.Xr(t))
        gaps["cap_window"] = min(gaps["cap_window"], xr - xl)
        gaps["cap_above_band"] = min(gaps["cap_above_band"], xl - lz2)
        gaps["peak_headroom"] = min(gaps["peak_headroom"],
                                    q2_strip_top - (yc + float(fol.D(t))))
    margin = min(gaps.values())
    return Certificate(
        name="slice_validity", grid=f"{len(t_grid)} levels x 129 points",
        margin=margin, passed=margin > 0, details=gaps)


def build_family(params: Params, n_tau: int, knobs: Knobs | None = None,
                 curves: dict | None = None) -> FamilySpec:
    """Build the nested family; every slice is itself a valid sphere.

    Strict nesting is checked along 64 radial rays; any touching pair of
    slices raises :class:`FoliationError` naming the pair and the ray.
    Slice validity is certified in closed form (graph ranges, wall
    separation, cap window, band avoidance); the top slice reproduces
    ``build_M1`` exactly.
    """
    if n_tau < 8:
        raise DomainError(f"build_family needs n_tau >= 8, got {n_tau}")
    knobs = knobs or default_knobs()
    model = build_M1(params, knobs)
    fol = _Foliation(model, curves)
    taus = tuple((i + 1) / n_tau for i in range(n_tau))
    fam = FamilySpec(model=model, n_tau=n_tau, taus=taus, fol=fol)
    certs = fam.certificates

    # nesting along rays (checked first: degenerate curves fail fast)
    min_gap = float("inf")
    worst = None
    for name, _, radial in _nesting_rays(fol, taus):
        gaps = np.diff(radial)
        k = int(np.argmin(gaps))
        if gaps[k] < min_gap:
            min_gap = float(gaps[k])
            worst = (name, taus[k], taus[k + 1])
        if gaps[k] < NESTING_FLOOR:
            raise FoliationError(
                f"slices tau={taus[k]:.6g} and tau={taus[k + 1]:.6g} meet "
                f"along ray '{name}' (gap {gaps[k]:.3g} < {NESTING_FLOOR:g})")
    certs["nesting"] = Certificate(
        name="nesting", grid=f"64 rays x {n_tau} slices",
        margin=min_gap, passed=min_gap >= NESTING_FLOOR,
        worst_point=worst, details={"floor": NESTING_FLOOR})

    # parameter-curve monotonicity
    tgrid = np.linspace(taus[0], 1.0, 64)
    d_c1 = np.diff(fol.c1(tgrid))
    d_c2 = np.diff(fol.c2(tgrid))
    mono = min(float(np.min(-d_c1)), float(np.min(d_c2)))
    certs["curve_monotone"] = Certificate(
        name="curve_monotone", grid="64 parameter samples",
        margin=mono, passed=mono > 0,
        details={"c1_direction": "decreasing", "c2_direction": "increasing"})

    # per-slice validity: each level set is an embedded piecewise-graph
    # sphere (walls in range and separated, cap window open, band avoided,
    # peak under the strip top), checked in closed form on every slice and
    # the midpoints between slices
    certs["slice_validity"] = _slice_shape_cert(fol, taus, params)

    # top-slice equality with the built model
    r2g = np.exp(np.linspace(knobs.x_lo, model.y_star, 257))
    e_w1 = float(np.max(np.abs(fol.wall1(1.0, r2g) - np.exp(model.f1.L(np.log(r2g))))))
    Xg = np.linspace(model.window[0], model.window[1], 257)
    e_dome = float(np.max(np.abs(fol.dish(1.0, Xg) - (-model.htilde.f(Xg)))))
    q2g = np.linspace(knobs.x_lo, model.y_star, 257)
    e_w2 = float(np.max(np.abs(fol.wall2(1.0, q2g) - np.exp(model.f2.L(q2g)))))
    res = max(e_w1, e_w2, e_dome)
    certs["top_slice_equality"] = Certificate(
        name="top_slice_equality", grid="3 x 257 points",
        margin=1e-10 - res, passed=res < 1e-10,
        details={"wall1": e_w1, "wall2": e_w2, "dome": e_dome})

    # level consistency: gamma returns tau on each slice
    worst_dev = 0.0
    for t in taus[:: max(1, n_tau // 8)] + (1.0,):
        for q2 in (-1.5, -0.2, float(fol.y_cut(t)) - 0.004):
            z1 = fol.wall1(t, math.exp(q2)) * np.exp(0.9j)
            worst_dev = max(worst_dev, abs(fol.gamma(z1, math.exp(q2) + 0j) - t))
            z1b = fol.wall2(t, q2) * np.exp(-1.7j)
            worst_dev = max(worst_dev, abs(fol.gamma(z1b, math.exp(q2) + 0j) - t))
        for s in (0.1, 0.5, 0.9):
            q1 = float(fol.Xl(t)) + s * (float(fol.Xr(t)) - float(fol.Xl(t)))
            q2 = float(fol.dish(t, q1))
            worst_dev = max(worst_dev, abs(fol.gamma(np.exp(q1 + 0.3j),
                                                     np.exp(q2 - 1.1j)) - t))
    certs["level_consistency"] = Certificate(
        name="level_consistency", grid="9 slices x 9 points",
        margin=1e-8 - worst_dev, passed=worst_dev < 1e-8,
        details={"max_deviation": worst_dev})

    bad = [k for k, c in certs.items() if not c.passed]
    if bad:
        raise VerificationError(f"family certificates failed: {bad}",
                                certificate=certs[bad[0]])
    return fam


def gamma_field(fam: FamilySpec) -> ScalarField:
    """The family's level function as a scalar field.

    Scalar evaluation outside the swept collar raises
    :class:`OutOfFoliation`; array evaluation returns NaN there so sweeps
    can mask.
    """
    fol = fam.fol

    def fn(z1, z2):
        val = fol.gamma(z1, z2)
        if np.ndim(val) == 0 and isinstance(val, float) and math.isnan(val):
            raise OutOfFoliation(f"point (|z1|={abs(z1):.6g}, |z2|={abs(z2):.6g}) "
                                 "is outside the collar")
        return val

    return ScalarField(fn=fn, name="gamma")


def normalized_potential(fam: FamilySpec, lam: float) -> ScalarField:
    """``exp(lam * (gamma - 1))``: the collar's potential scaled into (0, 1].

    A positive multiple of ``exp(lam * gamma)``, so it inherits strict
    plurisubharmonicity; it equals 1 exactly on the top slice.
    """
    fol = fam.fol

    def fn(z1, z2):
        return np.exp(lam * (fol.gamma(z1, z2) - 1.0))

    return ScalarField(fn=fn, name=f"u(lambda={lam:g})")


def verification_grid(fam: FamilySpec, density: int = 1) -> list[tuple]:
    """Multi-sector point grid for the plurisubharmonicity search.

    Covers both walls at several depths and levels, the dome cap away from
    its corners, and points adjacent to the binding plane.  ``density``
    scales the per-sector counts; the lambda grid is the union of densities 1
    and 2 (62 + 191 points).
    """
    fol = fam.fol
    pts = []
    k = 0

    def ang(j):
        return np.exp(2j * math.pi * ((j * _GOLD1) % 1.0))

    t_vals = np.linspace(0.1, 1.0, 4 * density + 1)
    for t in t_vals:
        yc = float(fol.y_cut(t))
        for q2 in np.linspace(-2.0, yc - 3e-3, 3 * density + 1):
            r2 = math.exp(q2)
            pts.append((float(fol.wall1(t, r2)) * ang(k), r2 * ang(k + 1)))
            pts.append((float(fol.wall2(t, q2)) * ang(k + 2), r2 * ang(k + 3)))
            k += 4
        xl, xr = float(fol.Xl(t)), float(fol.Xr(t))
        for s in np.linspace(0.05, 0.95, 3 * density + 1):
            q1 = xl + s * (xr - xl)
            q2 = float(fol.dish(t, q1))
            pts.append((math.exp(q1) * ang(k), math.exp(q2) * ang(k + 1)))
            k += 2
    for t in (0.3, 1.0):
        pts.append((float(fol.wall1(t, 1e-4)) * ang(k), 1e-4 + 0j))
        k += 1
    return pts


# ---------------------------------------------------------------------------
# Frames and the two global sweeps
# ---------------------------------------------------------------------------

def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _angular_frames(z1: complex, z2: complex) -> tuple[np.ndarray, np.ndarray]:
    e1 = _unit(np.array([-z1.imag, z1.real, 0.0, 0.0]))
    e2 = _unit(np.array([0.0, 0.0, -z2.imag, z2.real]))
    return e1, e2


def _profile_tangent(model: SphereModel, z1: complex, z2: complex,
                     piece: str) -> np.ndarray:
    """Unit tangent of the profile curve, oriented along the page from the
    left binding circle toward the right one."""
    r1, r2 = abs(z1), abs(z2)
    u1, u2 = z1 / r1, z2 / r2
    if piece == "H1":
        dq = (float(model.f1.dL(math.log(r2))), 1.0)
    elif piece == "H2":
        q2 = math.log(r2)
        dq = (-float(model.f2.dL(q2)), -1.0)   # descending toward the binding
    elif piece == "S":
        q1 = math.log(r1)
        dq = (1.0, -float(model.htilde.df(q1)))
    else:
        raise DomainError(f"unknown piece tag {piece!r}")
    w = np.array([u1.real * dq[0] * r1, u1.imag * dq[0] * r1,
                  u2.real * dq[1] * r2, u2.imag * dq[1] * r2])
    return _unit(w)


def _oriented_curvature(model: SphereModel, z1: complex, piece: str,
                        q2: float) -> float:
    """Transverse log-curvature of the local profile, signed so that the
    value is positive exactly when the piece classifies as negative contact
    in the fixed co-orientation (left wall: +L'', right wall: -L'', seam:
    +htilde'')."""
    if piece == "H1":
        return float(model.f1.d2L(q2))
    if piece == "H2":
        return -float(model.f2.d2L(q2))
    return float(model.htilde.d2f(math.log(abs(z1))))


def _normalize_grid(model: SphereModel, grid) -> list[tuple[complex, complex, str]]:
    """Accept sample_M1 output or raw triples; drop corner-adjacent points."""
    X1, X2 = model.window
    y_star = model.y_star
    out = []
    for item in grid:
        if isinstance(item, tuple) and isinstance(item[0], ChartPoint):
            pt, tag = item
            z1, z2 = pt.z1, pt.z2
        else:
            z1, z2, tag = item
        if tag == "S":
            q = math.log(abs(z1))
            if min(q - X1, X2 - q) < CORNER_MARGIN:
                continue
        else:
            if y_star - math.log(abs(z2)) < CORNER_MARGIN:
                continue
        out.append((complex(z1), complex(z2), tag))
    return out


def _potential_jet(fam: FamilySpec, lam: float, z1, z2):
    """Jet of ``u = exp(lam * (gamma - 1))``, composed exactly from one jet of
    ``gamma``.

    ``alpha = -d^C u = lam u beta`` with ``beta = -d^C gamma``, so ``alpha ^
    d alpha = (lam u)^2 beta ^ d beta``: the sweeps' signs cannot depend on
    ``lam``, and differencing the exponential itself would let them.
    """
    return exp_jet(jet(fam.fol.gamma, z1, z2), lam, 1.0)


def _sample_frames(model: SphereModel, samples):
    """Angular frames ``e1``, ``e2`` and profile tangents ``V`` as ``[N, 4]``
    arrays, one row per normalized sample."""
    rows = [(*_angular_frames(z1, z2), _profile_tangent(model, z1, z2, tag))
            for z1, z2, tag in samples]
    return tuple(np.array(col) for col in zip(*rows))


def _contact_volumes(fam: FamilySpec, lam: float, samples):
    """``alpha ^ d alpha`` on each sample's oriented tangent frame.

    ``samples`` are normalized triples (see :func:`_normalize_grid`).
    """
    z1 = np.array([s[0] for s in samples])
    z2 = np.array([s[1] for s in samples])
    _, g, H = _potential_jet(fam, lam, z1, z2)
    nu = -g / np.linalg.norm(g, axis=1, keepdims=True)  # outward from the compact side
    e1, e2, e3 = _sample_frames(fam.model, samples)
    swap = (np.linalg.det(np.stack([nu, e1, e2, e3], axis=2)) < 0)[:, None]
    e2, e3 = np.where(swap, e3, e2), np.where(swap, e2, e3)
    al = [-jet_d_c(g, v) for v in (e1, e2, e3)]
    da = [jet_neg_ddc(H, e2, e3), jet_neg_ddc(H, e1, e3), jet_neg_ddc(H, e1, e2)]
    return al[0] * da[0] - al[1] * da[1] + al[2] * da[2]


def pseudoconcavity_check(fam: FamilySpec, lam: float, grid) -> Certificate:
    """Certify the sphere's contact sign: ``alpha ^ d alpha`` constant
    negative in the fixed orientation, agreeing with the per-piece profile
    classification at every sample.

    ``alpha = -d^C u`` for the potential ``u = exp(lam * (gamma - 1))`` of
    the family ``fam``.  ``grid`` is a list of model samples (as produced by
    :func:`sample_M1`); samples closer than the corner margin to a seam
    corner are skipped.
    """
    model = fam.model
    samples = _normalize_grid(model, grid)
    vals = _contact_volumes(fam, lam, samples)
    tags = np.array([tag for _, _, tag in samples])
    kappa = np.array([_oriented_curvature(model, z1, tag, math.log(abs(z2)))
                      for z1, z2, tag in samples])
    agree = int(np.sum((kappa > 0) & (vals < 0)))
    per_piece = {t: vals[tags == t] for t in ("H1", "H2", "S")}
    i = int(np.argmax(vals))
    passed = bool(np.all(vals < 0)) and agree == len(samples)
    return Certificate(
        name="pseudoconcavity",
        grid=f"{len(samples)} samples "
             f"(H1 {len(per_piece['H1'])}, H2 {len(per_piece['H2'])}, S {len(per_piece['S'])})",
        margin=float(-vals[i]),
        passed=passed, worst_point=(samples[i][0], samples[i][1]),
        details={
            "min_abs_volume": float(np.min(np.abs(vals))),
            "classification_agreements": agree,
            "disagreements": len(samples) - agree,
            "per_piece_max": {t: (float(np.max(v)) if v.size else None)
                              for t, v in per_piece.items()},
        })


def compatibility_check(fam: FamilySpec, lam: float, grid) -> Certificate:
    """Certify the open-book compatibility of the contact form
    ``alpha = -d^C u``, ``u = exp(lam * (gamma - 1))``.

    Three sub-certificates: (i) the binding pairing ``alpha(d/d theta1)``
    is constant and nonzero on each binding circle (opposite signs across
    the two circles, as the two boundary components of a page); (ii) the
    page 2-form ``d alpha`` is positive on every measured page tangent
    plane in the plane's natural orientation — the cap's page plane is
    nearly a complex line and carries its complex orientation, while the
    wall pages are almost totally real and carry the fibration
    co-orientation (frame positive when preceded by the outward normal and
    the theta2 direction); nondegeneracy of ``d alpha`` on pages follows
    from (iii), which is how the certificate should be read — the two
    recorded orientations are not a single global convention; (iii) the
    triple (binding direction, page direction, Reeb direction) spans the
    tangent space at every off-binding sample, with the theta2-component
    of the Reeb direction positive.
    """
    model = fam.model
    p_par = model.params
    samples = _normalize_grid(model, grid)

    # (i) binding circles
    circle = np.exp(2j * math.pi * np.arange(32) / 32)
    z1 = np.concatenate([p_par.c1 * circle, p_par.c2 * circle])
    _, g, _ = _potential_jet(fam, lam, z1, np.zeros_like(z1))
    zero = np.zeros(z1.shape)
    b1, b2 = np.split(-jet_d_c(g, np.stack([-z1.imag, z1.real, zero, zero], axis=1)), 2)
    bind_ok = (np.all(b1 < 0) or np.all(b1 > 0)) and \
        (np.all(b2 < 0) or np.all(b2 > 0)) and \
        (float(np.sign(b1[0])) != float(np.sign(b2[0])))
    cert_bind = Certificate(
        name="binding_pairing", grid="2 circles x 32 samples",
        margin=float(min(np.min(np.abs(b1)), np.min(np.abs(b2)))),
        passed=bool(bind_ok),
        details={"sign_c1": float(np.sign(b1[0])), "sign_c2": float(np.sign(b2[0])),
                 "range_c1": [float(b1.min()), float(b1.max())],
                 "range_c2": [float(b2.min()), float(b2.max())]})

    # (ii) pages and (iii) span, on off-binding samples
    z1 = np.array([s[0] for s in samples])
    z2 = np.array([s[1] for s in samples])
    tags = np.array([tag for _, _, tag in samples])
    _, g, H = _potential_jet(fam, lam, z1, z2)
    e1, e2, V = _sample_frames(model, samples)
    # Page-plane orientation: the traversal vector V runs from the left
    # binding toward the right one.  On the wall pieces that is the
    # fibration-positive direction; on the cap the complex orientation of
    # the (nearly complex) page plane reverses it.
    W = np.where((tags == "S")[:, None], -V, V)
    page_arr = jet_neg_ddc(H, e1, W)
    k = int(np.argmin(page_arr))
    R = apply_J(g / np.linalg.norm(g, axis=1, keepdims=True))
    # (e1, e2, V) is an orthonormal tangent frame: angular directions are
    # exactly orthogonal to the radial profile tangent
    basis = np.stack([e1, e2, V], axis=1)
    det_arr = np.abs(np.linalg.det(basis @ np.stack([e1, V, R], axis=2)))
    th2_arr = np.sum(e2 * R, axis=1)
    piece_ranges = {}
    for t in ("H1", "S", "H2"):
        sel = page_arr[tags == t]
        if sel.size:
            piece_ranges[t] = [float(sel.min()), float(sel.max())]
    cert_pages = Certificate(
        name="page_area_form", grid=f"{len(samples)} off-binding samples",
        margin=float(page_arr[k]), passed=bool(np.all(page_arr > 0)),
        worst_point=(samples[k][0], samples[k][1]),
        details={"max": float(page_arr.max()),
                 "per_piece_range": piece_ranges,
                 "orientation": "fibration on walls, complex on cap"})
    cert_span = Certificate(
        name="frame_span", grid=f"{len(samples)} off-binding samples",
        margin=float(min(det_arr.min(), th2_arr.min())),
        passed=bool(np.all(det_arr > 0) and np.all(th2_arr > 0)),
        details={"min_abs_det": float(det_arr.min()),
                 "min_theta2_component": float(th2_arr.min())})

    return Certificate.merge("compatibility", [cert_bind, cert_pages, cert_span])


# ---------------------------------------------------------------------------
# End-to-end report
# ---------------------------------------------------------------------------

def run_verification(params: Params, knobs: Knobs | None = None, *,
                     n_tau: int = 16, n_samples: int = 240,
                     lambda_max: float = 1e4) -> tuple[bool, dict]:
    """Run the full pipeline and assemble a deterministic report.

    Returns ``(all_passed, report)`` where the report carries the params,
    knobs, found ``lambda`` and every certificate.  The report content is a
    pure function of its inputs (no timestamps, no randomness), so repeated
    runs serialize identically.
    """
    knobs = knobs or default_knobs()
    fam = build_family(params, n_tau, knobs)
    model = fam.model
    gam = gamma_field(fam)
    grid = verification_grid(fam, 1) + verification_grid(fam, 2)
    lam, cert_lam = find_lambda(gam, grid, lambda_max=lambda_max)
    # level-function regularity, read off find_lambda's jet of gamma
    lo, hi = cert_lam.details["gradient_norm_range"]
    cert_reg = Certificate(
        name="gamma_regularity", grid=f"{len(grid)} grid points",
        margin=lo - 1e-6, passed=lo > 1e-6,
        details={"min_gradient_norm": lo, "max_gradient_norm": hi})
    samples = sample_M1(model, n_samples)
    cert_pc = pseudoconcavity_check(fam, lam, samples)
    cert_cp = compatibility_check(fam, lam, samples)

    certs = {
        "find_lambda": cert_lam,
        "gamma_regularity": cert_reg,
        "pseudoconcavity": cert_pc,
        "compatibility": cert_cp,
    }
    ok = all(c.passed for c in certs.values()) \
        and all(c.passed for c in model.certificates.values()) \
        and all(c.passed for c in fam.certificates.values())
    report = {
        "params": params.to_dict(),
        "knobs": asdict(knobs),
        "lambda": lam,
        "model": model.summary(),
        "family": {k: c.to_dict() for k, c in sorted(fam.certificates.items())},
        "checks": {k: c.to_dict() for k, c in sorted(certs.items())},
        "passed": ok,
    }
    return ok, report
