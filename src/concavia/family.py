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

The construction knobs are the frozen :class:`Knobs`, whose defaults are
the numpy-free :data:`concavia.config.KNOB_DEFAULTS`.  The model samples'
golden/silver angle factors depend on the sample count alone and are built
once per process and count, as read-only arrays; the profile abscissas,
the radii and every certificate are computed per model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from ._numerics import GOLD, SILVER, kronecker, sample_table
from .atlas import Chart, ChartPoint, Params
from .certs import Certificate
from .config import KNOB_DEFAULTS, RUN_DEFAULTS
from .convexjoin import EndpointData, JoinProblem, SplineC2, solve
from .errors import (
    BranchError,
    DomainError,
    FeasibilityError,
    FoliationError,
    VerificationError,
)
from .levi import (ScalarField, apply_J, exp_jet, find_lambda, jet_d_c, jet_neg_ddc,
                   lambda_from_values, polar_diff, polar_lift, polar_stencil)
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
    "normalized_potential",
    "pseudoconcavity_check",
    "compatibility_check",
    "verification_grid",
    "find_collar_lambda",
    "run_verification",
]

#: tolerance for the two C^1 seam matches of the join
SEAM_TOL = 1e-9
#: strict nesting floor along rays
NESTING_FLOOR = 1e-6
#: log-radius margin kept between check grids and the two seam corners
CORNER_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# The sphere model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Knobs:
    """Shape parameters of the construction that are free within the chain.

    ``eps1``/``eps2`` are the quadratic coefficients of the two wall germs,
    ``x_switch``/``x_lo`` delimit the steep extension of the right wall,
    ``knots`` sizes every spline, ``depth_frac`` requests the dome depth as a
    fraction of the radial budget ``log(rho1/rho0)``, and ``branch_margin``
    is the slope clearance below -1 required of the pushed-forward right
    wall.  The defaults are :data:`concavia.config.KNOB_DEFAULTS`, in field
    order, where the numpy-free CLI front end reads them.
    """

    eps1: float = KNOB_DEFAULTS["eps1"]
    eps2: float = KNOB_DEFAULTS["eps2"]
    x_switch: float = KNOB_DEFAULTS["x_switch"]
    x_lo: float = KNOB_DEFAULTS["x_lo"]
    knots: int = KNOB_DEFAULTS["knots"]
    depth_frac: float = KNOB_DEFAULTS["depth_frac"]
    branch_margin: float = KNOB_DEFAULTS["branch_margin"]


def default_knobs() -> Knobs:
    return Knobs()


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
    def window(self) -> tuple[float, float]:
        """Dome abscissa range in the gluing frame."""
        return self.htilde.x_lo, self.htilde.x_hi

    @cached_property
    def density_tables(self) -> dict[str, tuple]:
        """Per piece tag, for :func:`_sample_arrays`: the 4,001-point abscissa grid,
        the seam-boosted area density on it and the piece's revolution area."""
        curves = {}
        # walls: parametrized by x = log|z2|
        for tag, prof in (("H1", self.f1), ("H2", self.f2)):
            xs = np.linspace(prof.x_lo, prof.x_hi, 4001)
            r2 = np.exp(xs)
            r1 = np.exp(prof.L(xs))
            curves[tag] = (xs, _piece_weight(xs, r1, r2, r1 * prof.dL(xs), r2), ("hi",))
        # seam: parametrized by the gluing-frame abscissa X
        X1, X2 = self.window
        Xs = np.linspace(X1, X2, 4001)
        rw = np.exp(Xs)
        r2s = np.exp(-self.htilde.f(Xs))
        curves["S"] = (Xs, _piece_weight(Xs, rw, r2s, rw, -r2s * self.htilde.df(Xs)),
                       ("lo", "hi"))
        return {tag: (xs, _seam_band_boost(xs, w, ends), float(np.trapezoid(w, xs)))
                for tag, (xs, w, ends) in curves.items()}

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


def build_M1(params: Params, knobs: Knobs | None = None) -> SphereModel:
    """Assemble the sphere from two walls and a convex seam join.

    Each construction constraint is stated once, as the error that stops the
    build: :func:`make_f1` and :func:`make_f2` raise
    :class:`FeasibilityError` for a wall that is not strictly log-convex
    (log-concave), misses its end slope or leaves its range; a right wall
    that cannot reach log-slope below -1 with the requested margin is
    reported as ``"endpoint slope"``; and :func:`solve` raises
    :class:`Infeasible` unless ``left.deriv < chord < right.deriv``.

    The model's certificates are the facts that can fail on a built model:
    ``seam_C1``, ``seam_contact``, ``clearances`` and ``membership``.  A
    failing one raises :class:`VerificationError`.  ``seam_C1`` (absolute
    ``SEAM_TOL``) restates :func:`solve`'s end-jet check (``1e-9 * max(1,
    |v|, |d|)``, 2e-8 at the right end, where ``|d| = 20``) 20 times
    tighter; the left residuals are 0 since the join is seeded with them.
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
    problem = JoinProblem(left, right, floor=floor)
    htilde = solve(problem, knots=knobs.knots, target_depth=knobs.depth_frac * budget)
    h = Profile.from_spline(htilde, meta={"kind": "seam"})

    xs = np.linspace(htilde.x_lo, htilde.x_hi, 4001)
    depth = float(np.max(-htilde.f(xs) - y_star))

    model = SphereModel(params=params, knobs=knobs, f1=f1, f2=f2,
                        h1=h1, h2=h2, htilde=htilde, h=h, depth=depth)
    certs = model.certificates

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
    """The model's ``n`` samples (:func:`_sample_arrays`) against the
    removed band ``zeta1 < |z1| < zeta2``: the margin is the least
    log-radius distance to the band, or minus the count of samples inside
    it, the last of which is the worst point."""
    p = model.params
    lz1, lz2 = math.log(p.zeta1), math.log(p.zeta2)
    tags, z1, z2 = _sample_arrays(model, n)
    r1 = np.hypot(z1.real, z1.imag)   # the bits of Python's abs
    q = _libm(math.log, r1)
    # the samples lie in V and V' only, where in_complement_C is the band
    # test on |z1|
    inside = (p.zeta1 < r1) & (r1 < p.zeta2)
    bad = int(np.count_nonzero(inside))
    worst = None
    if bad:
        i = np.flatnonzero(inside)[-1]
        worst = (str(tags[i]), complex(z1[i]), complex(z2[i]))
    dist = float(np.min(np.maximum(lz1 - q, q - lz2)))
    return Certificate(
        name="membership", grid=f"{tags.size} samples",
        margin=dist if bad == 0 else float(-bad),
        passed=bad == 0 and dist > 0, worst_point=worst,
        details={"violations": bad, "min_band_distance": dist})


# ---------------------------------------------------------------------------
# Quasi-uniform sampling of the sphere
# ---------------------------------------------------------------------------

def _piece_weight(xs: np.ndarray, r1: np.ndarray, r2: np.ndarray,
                  dr1: np.ndarray, dr2: np.ndarray) -> np.ndarray:
    """Revolution-area density ``r1 r2 |curve'|`` along a piece."""
    return r1 * r2 * np.hypot(dr1, dr2)


def _libm(fn, x) -> np.ndarray:
    """``fn``, ``math.exp`` or ``math.log``, elementwise.  numpy's exp and
    log differ from libm's in the last bit on some arguments; the sweeps
    that took ``math`` point by point keep its bits, and every sample
    downstream with them."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


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


@sample_table
def _sample_angles(n: int) -> np.ndarray:
    """``n`` rows of unit factors ``(e^{i th1}, e^{i th2})`` at golden/silver
    Kronecker angles, the angles of :func:`_sample_arrays`."""
    return np.exp(2j * np.pi * kronecker(n, (GOLD, SILVER)))


def _sample_arrays(model: SphereModel, n: int) -> tuple[np.ndarray, ...]:
    """Quasi-uniform area-weighted samples of the sphere: piece tags, ``z1``
    and ``z2`` arrays.

    Samples are drawn piece by piece proportionally to the revolution area,
    by inverse-CDF placement along the profile curve; the decile of mass
    adjacent to each seam corner is oversampled four-fold.  Angles follow a
    golden/silver Kronecker sequence, so the output is deterministic.  Wall
    samples must lie in the ``V`` chart and seam samples in ``V'``; the
    first that does not raises the ``DomainError`` of :class:`ChartPoint`.
    """
    if n < 100:
        raise DomainError(f"sample_M1 needs n >= 100, got {n}")
    p = model.params
    tables = model.density_tables
    total = sum(area for _, _, area in tables.values())
    counts = {t: max(8, round(n * area / total)) for t, (_, _, area) in tables.items()}
    counts["H1"] += n - sum(counts.values())  # absorb rounding in the largest piece

    pts = []
    angles = _sample_angles(n)
    j = 0
    for tag, (grid, dens, _) in tables.items():
        xs = _inverse_cdf(grid, dens, counts[tag])
        e1, e2 = angles[j:j + xs.size].T
        j += xs.size
        if tag == "S":
            pts.append(ChartPoint.v_prime(p, np.exp(xs) * e1,
                                          np.exp(-model.htilde.f(xs)) * e2))
        else:
            prof = model.f1 if tag == "H1" else model.f2
            pts.append(ChartPoint.v(p, np.exp(prof.L(xs)) * e1, _libm(math.exp, xs) * e2))
    z1, z2 = (np.concatenate(z) for z in zip(*((pt.z1, pt.z2) for pt in pts)))
    return np.repeat(list(tables), list(counts.values())), z1, z2


def sample_M1(model: SphereModel, n: int) -> list[tuple[ChartPoint, str]]:
    """The samples of :func:`_sample_arrays` as ``(ChartPoint, tag)`` pairs,
    in the ``V`` chart on the walls and ``V'`` on the seam."""
    tags, z1, z2 = _sample_arrays(model, n)
    return [(ChartPoint(Chart.V_PRIME if t == "S" else Chart.V, a, b), t)
            for t, a, b in zip(tags.tolist(), z1.tolist(), z2.tolist())]


# ---------------------------------------------------------------------------
# The interpolating family and its level function
# ---------------------------------------------------------------------------

def _crossing(F, lo, hi, f_lo, f_hi):
    """Adjacent floats ``a < b`` with ``F(a) < 0 <= F(b)``, one pair per point.

    ``F(t, i)`` evaluates an increasing function of the points with indices
    ``i`` at levels ``t``; ``f_lo <= 0 <= f_hi`` are its values at the bracket
    ``lo``, ``hi``.  Four clipped secant steps estimate the root ``x``, and
    ``[x - d, x + d]`` with ``d = 4|F(x)| / slope + 1024 ulp`` replaces the
    bracket wherever ``F`` changes sign across it; where it does not, ``d``
    grows by 16, 256 and 4096 on those points alone, and only then is all of
    ``[lo, hi]`` kept; each window test reads both ends in one ``F`` call.
    Bisection on ``F(mid) < 0`` then runs until the midpoint rounds to an
    end, dropping the points that got there, and returns as soon as no
    point is left.  Where ``F`` is monotone in floating point this is the
    pair a bisection of ``[lo, hi]`` reaches.  It serves the dish levels of
    :meth:`_Foliation.gamma` alone: a wall's level is read in closed form.
    """
    def straddles(a, b, i):
        f_a, f_b = np.split(F(np.concatenate([a, b]), np.concatenate([i, i])), 2)
        return (f_a < 0.0) & (f_b >= 0.0)

    idx = np.arange(lo.size)
    x0, y0, x1, y1 = lo, f_lo, hi, f_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            x = np.clip(x1 - y1 * (x1 - x0) / (y1 - y0), lo, hi)
            x = np.where(np.isnan(x), x1, x)   # 0/0: the step has stalled
            x0, y0, x1, y1 = x1, y1, x, F(x, idx)
        # float F has plateaus near the root, where the last secant is flat
        slope = (y1 - y0) / (x1 - x0)
        slope = np.where(slope > 0.0, slope, (f_hi - f_lo) / (hi - lo))
        d = 4.0 * np.abs(y1) / slope + 1024.0 * np.spacing(x1)
        a = np.clip(x1 - d, lo, hi)
        b = np.clip(x1 + d, lo, hi)
        keep = straddles(a, b, idx)
        # one point bisecting all of [lo, hi] keeps the loop running about
        # 55 steps for every point, so a miss first retries a wider window
        miss = idx[~keep]
        for grow in (16.0, 256.0, 4096.0):
            if not miss.size:
                break
            am = np.clip(x1[miss] - grow * d[miss], lo[miss], hi[miss])
            bm = np.clip(x1[miss] + grow * d[miss], lo[miss], hi[miss])
            hit = straddles(am, bm, miss)
            a[miss[hit]], b[miss[hit]] = am[hit], bm[hit]
            keep[miss[hit]] = True
            miss = miss[~hit]
    lo, hi = np.where(keep, a, lo), np.where(keep, b, hi)
    while True:
        a, b = lo[idx], hi[idx]
        mid = 0.5 * (a + b)
        live = (mid != a) & (mid != b)
        if not live.any():
            return lo, hi
        idx, mid = idx[live], mid[live]
        up = F(mid, idx) < 0.0
        lo[idx[up]] = mid[up]
        hi[idx[~up]] = mid[~up]


class _Foliation:
    """Closed-form nested slices interpolating walls and dome.

    Slice ``tau`` pushes the left wall affinely from the outer edge
    ``|z1| = rho2`` toward the built wall, the right wall from the wrap
    circle ``|z1| = 1`` outward, and hangs a dome of scaled depth from an
    attachment height ``y_cut(tau)`` that rises to the band bottom at
    ``tau = 1``.  Outside the dome window the dome continues with fixed
    mild slopes, which keeps the whole field strictly increasing in ``tau``.
    The walls move along the parameter curves ``c1``, ``c2``, linear in
    ``tau`` from ``rho2`` and ``1`` at ``tau = 0`` to the built ``c1``,
    ``c2`` at ``tau = 1``.
    """

    #: total descent of the attachment height below the band bottom
    SM = 0.002
    #: dome depth fraction as tau -> 0
    D_FLOOR = 0.45
    #: root bracket for the level parameter, wider than (0, 1]
    TAU_LO, TAU_HI = 0.02, 1.25
    #: continuation slopes left/right of the dome window
    EXT_L, EXT_R = 3.0, -3.0

    def __init__(self, model: SphereModel):
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
        self._f2_L, self._f2_dhi = f2.L_fn, float(f2.dL(f2.x_hi))
        self._ht_f = model.htilde.f

    # the parameter curves, linear in tau
    def c1(self, t):
        return self.rho2 - (self.rho2 - self.c1_0) * np.asarray(t, float)

    def c2(self, t):
        return 1.0 + (self.c2_0 - 1.0) * np.asarray(t, float)

    def g1(self, t):
        """Left-wall interpolation factor: ``tau`` up to the last bits, which
        the ``nesting``, ``slice_validity`` and ``top_slice_equality`` margins
        read."""
        return (self.rho2 - self.c1(t)) / (self.rho2 - self.c1_0)

    def g2(self, t):
        return (self.c2(t) - 1.0) / (self.c2_0 - 1.0)

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
        # the clip keeps the profile's domain, so its check is skipped
        core = self._f2_L(np.clip(x, self._f2_lo, self._f2_hi))
        return np.exp(core + self._f2_dhi * np.maximum(x - self._f2_hi, 0.0))

    def wall1(self, t, r2):
        return self.rho2 - self.g1(t) * (self.rho2 - self.f1c(r2))

    def wall2(self, t, q2):
        return 1.0 + self.g2(t) * (self.f2c_x(q2) - 1.0)

    def cap(self, t):
        """``(y_cut, xl, xr)`` at ``t``: the attachment height and the dome
        window's ends in ``log|z1|``, from one ``y_cut``."""
        yc = self.y_cut(t)
        return yc, np.log(self.wall1(t, np.exp(yc))), np.log(self.wall2(t, yc)) + yc

    def phat(self, s):
        sc = np.clip(s, 0.0, 1.0)
        return (-self._ht_f(self.X1 + sc * self.span) - self.y_star) / self.D1

    def D(self, t):
        return self.D1 * (self.D_FLOOR + (1.0 - self.D_FLOOR) * np.asarray(t, float))

    def dish(self, t, q1):
        t = np.asarray(t, float)
        q1 = np.asarray(q1, float)
        yc, xl, xr = self.cap(t)
        s = (q1 - xl) / (xr - xl)
        return yc + np.where(
            s < 0.0, self.EXT_L * (q1 - xl),
            np.where(s > 1.0, self.EXT_R * (q1 - xr), self.D(t) * self.phat(s)))

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

        # on a wall the level is the interpolation factor: the curves are linear
        t1 = (self.rho2 - r1) / (self.rho2 - self.f1c(r2))
        v1 = (t1 > self.TAU_LO) & (t1 <= self.TAU_HI) & (q2 <= self.y_cut(t1) + 1e-12)
        out[v1] = t1[v1]

        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = (r1 - 1.0) / (self.f2c_x(q2) - 1.0)
        v2 = ((t2 > self.TAU_LO) & (t2 <= self.TAU_HI)
              & (q2 <= self.y_cut(t2) + 1e-12) & ~v1)
        out[v2] = t2[v2]

        rest = ~(v1 | v2) & np.isfinite(q2)
        if np.any(rest):
            qq1 = q1[rest]
            qq2 = q2[rest]
            lo = np.full(qq1.shape, self.TAU_LO)
            hi = np.full(qq1.shape, self.TAU_HI)
            d_lo, d_hi = self.dish(lo, qq1), self.dish(hi, qq1)
            ok = (d_lo <= qq2) & (d_hi >= qq2)
            p1, p2 = qq1[ok], qq2[ok]
            a, b = _crossing(lambda t, j: self.dish(t, p1[j]) - p2[j],
                             lo[ok], hi[ok], d_lo[ok] - p2, d_hi[ok] - p2)
            tau = 0.5 * (a + b)
            _, xl, xr = self.cap(tau)
            sig = (p1 - xl) / (xr - xl)
            vals = np.full(qq1.shape, np.nan)
            vals[ok] = np.where((sig > -0.05) & (sig < 1.05), tau, np.nan)
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


def _nesting_rays(fol: _Foliation, taus) -> tuple[list[str], np.ndarray]:
    """64 radial sweeps: 28 per wall plus 8 through the dome cap.

    Returns the ray names and a ``[64, len(taus)]`` array of each ray's
    radial coordinate per tau, which must be strictly increasing along every
    row (walls: toward the built sphere; dome: attachment height).
    """
    taus = np.asarray(taus, float)
    _, xl, xr = fol.cap(taus.min())
    q2 = np.linspace(-5.5, float(fol.y_cut(taus.min())) - 1e-3, 28)
    q1 = np.linspace(float(xl) + 2e-3, float(xr) - 2e-3, 8)
    names = ([f"wall1 q2={v:.4f}" for v in q2] + [f"wall2 q2={v:.4f}" for v in q2]
             + [f"dome q1={v:.4f}" for v in q1])
    radial = np.concatenate([-fol.wall1(taus, _libm(math.exp, q2)[:, None]),
                             fol.wall2(taus, q2[:, None]),
                             fol.dish(taus, q1[:, None])])
    return names, radial


def _nesting_cert(fol: _Foliation, taus: tuple) -> Certificate:
    """Each ray's smallest gap between consecutive slices; the first ray in
    :func:`_nesting_rays` order whose gap is below the floor, or NaN, raises
    :class:`FoliationError`."""
    names, radial = _nesting_rays(fol, taus)
    gaps = np.diff(radial, axis=1)
    ks = np.argmin(gaps, axis=1)   # a NaN gap wins its row
    low = gaps[np.arange(len(names)), ks]
    bad = np.flatnonzero(~(low >= NESTING_FLOOR))
    if bad.size:
        i = bad[0]
        k = ks[i]
        raise FoliationError(
            f"slices tau={taus[k]:.6g} and tau={taus[k + 1]:.6g} meet "
            f"along ray '{names[i]}' (gap {low[i]:.3g} < {NESTING_FLOOR:g})")
    i = int(np.argmin(low))
    min_gap = float(low[i])
    worst = (names[i], taus[ks[i]], taus[ks[i] + 1]) if min_gap < math.inf else None
    return Certificate(
        name="nesting", grid=f"{len(names)} rays x {len(taus)} slices",
        margin=min_gap, passed=min_gap >= NESTING_FLOOR,
        worst_point=worst, details={"floor": NESTING_FLOOR})


def _min_over_levels(*per_level) -> float:
    """The smallest value over levels; NaN if any level's value is NaN."""
    return float(np.min(np.concatenate(per_level)))


def _slice_shape_cert(fol: _Foliation, taus, params: Params) -> Certificate:
    lz1, lz2 = math.log(params.zeta1), math.log(params.zeta2)
    q2_strip_top = math.log(1.0 / params.rho0)
    t_grid = sorted(set(taus) | {0.5 * (a + b) for a, b in zip(taus, taus[1:])})
    t = np.array(t_grid)
    yc, xl, xr = fol.cap(t)
    # one column per level; a column's NaN makes that level's value NaN
    q2g = np.linspace(-6.0, yc, 129)
    r1a = fol.wall1(t, np.exp(q2g))
    r1b = fol.wall2(t, q2g)
    gaps = {
        "wall1_in_range": _min_over_levels(np.min(r1a - 1.0, axis=0),
                                           np.min(fol.rho2 - r1a, axis=0)),
        "wall2_in_range": _min_over_levels(np.min(r1b - 1.0, axis=0),
                                           np.min(fol.rho2 - r1b, axis=0)),
        "wall_separation": _min_over_levels(np.min(r1a, axis=0)
                                            - np.max(r1b, axis=0)),
        "wall1_above_band": _min_over_levels(np.min(np.log(r1a), axis=0) - lz2),
        "wall2_below_band": _min_over_levels(lz1 - np.max(np.log(r1b), axis=0)),
        "cap_window": _min_over_levels(xr - xl),
        "cap_above_band": _min_over_levels(xl - lz2),
        "peak_headroom": _min_over_levels(q2_strip_top - (yc + fol.D(t))),
    }
    margin = float(np.min(list(gaps.values())))   # NaN-propagating, unlike min()
    return Certificate(
        name="slice_validity", grid=f"{len(t_grid)} levels x 129 points",
        margin=margin, passed=margin > 0, details=gaps)


def _level_points(fol: _Foliation, slices) -> tuple[np.ndarray, ...]:
    """Levels and points of the level-consistency check: 9 per slice, both
    walls at three heights and then the dish at three abscissae."""
    ts = np.array(slices)[:, None]
    yc, xl, xr = fol.cap(ts)
    q2 = np.concatenate([np.full(ts.shape, -1.5), np.full(ts.shape, -0.2), yc - 0.004],
                        axis=1)
    r2 = _libm(math.exp, q2)
    q1 = xl + np.array([0.1, 0.5, 0.9]) * (xr - xl)
    walls = np.stack([fol.wall1(ts, r2) * np.exp(0.9j),
                      fol.wall2(ts, q2) * np.exp(-1.7j)], axis=2)
    z1 = np.concatenate([walls.reshape(ts.size, 6), np.exp(q1 + 0.3j)], axis=1)
    z2 = np.concatenate([np.repeat(r2 + 0j, 2, axis=1),
                         np.exp(fol.dish(ts, q1) - 1.1j)], axis=1)
    return np.repeat(ts, 9), z1.ravel(), z2.ravel()


def _family_levels(fam: FamilySpec) -> tuple[np.ndarray, ...]:
    """:func:`_level_points` on every ``(n_tau // 8)``-th slice and the top
    one, each slice once."""
    slices = fam.taus[:: max(1, fam.n_tau // 8)]
    if 1.0 not in slices:
        slices += (1.0,)
    return _level_points(fam.fol, slices)


def _assemble_family(params: Params, n_tau: int, knobs: Knobs,
                     model: SphereModel | None) -> FamilySpec:
    """The family with every certificate but ``level_consistency``, which
    reads ``gamma``; nothing is raised for a failing certificate yet."""
    if n_tau < 8:
        raise DomainError(f"build_family needs n_tau >= 8, got {n_tau}")
    if model is None:
        model = build_M1(params, knobs)
    fol = _Foliation(model)
    taus = tuple((i + 1) / n_tau for i in range(n_tau))
    fam = FamilySpec(model=model, n_tau=n_tau, taus=taus, fol=fol)
    certs = fam.certificates

    # nesting along rays (checked first: touching slices fail fast)
    certs["nesting"] = _nesting_cert(fol, taus)

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
    return fam


def _certify_levels(fam: FamilySpec, t: np.ndarray, values: np.ndarray) -> FamilySpec:
    """Add ``level_consistency`` from ``gamma``'s ``values`` at the
    :func:`_family_levels` points of levels ``t``, then raise
    :class:`VerificationError` on the first failing family certificate."""
    certs = fam.certificates
    _, worst_dev = Certificate.sup_error(np.abs(values - t))
    certs["level_consistency"] = Certificate(
        name="level_consistency", grid=f"{t.size // 9} slices x 9 points",
        margin=1e-8 - worst_dev, passed=worst_dev < 1e-8,
        details={"max_deviation": worst_dev})

    bad = [k for k, c in certs.items() if not c.passed]
    if bad:
        raise VerificationError(f"family certificates failed: {bad}",
                                certificate=certs[bad[0]])
    return fam


def build_family(params: Params, n_tau: int, knobs: Knobs | None = None) -> FamilySpec:
    """Build the nested family; every slice is itself a valid sphere.

    Strict nesting is checked along 64 radial rays; any touching pair of
    slices raises :class:`FoliationError` naming the pair and the first such
    ray.  Slice validity is certified in closed form (graph ranges, wall
    separation, cap window, band avoidance); the top slice reproduces
    ``build_M1`` exactly; ``gamma`` returns ``tau`` on 9 points of every
    ``(n_tau // 8)``-th slice and the top one, read in one call.  A failing
    certificate raises :class:`VerificationError`.  The slices interpolate
    along the linear parameter curves of :class:`_Foliation`.
    :func:`run_verification` reads the level points in its one ``gamma``
    call instead.
    """
    fam = _assemble_family(params, n_tau, knobs or default_knobs(), None)
    t, z1, z2 = _family_levels(fam)
    return _certify_levels(fam, t, fam.fol.gamma(z1, z2))


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
    scales the per-sector counts; :func:`find_collar_lambda` uses the union of
    densities 1 and 2 (62 + 191 points).  Points lie on the real slice: a
    torus-invariant ``gamma`` needs one point per orbit.
    """
    fol = fam.fol
    m = 3 * density + 1
    t = np.linspace(0.1, 1.0, 4 * density + 1)
    yc, xl, xr = fol.cap(t)
    q2 = np.linspace(-2.0, yc - 3e-3, m)   # [m, levels], as is q1
    r2 = _libm(math.exp, q2)
    q1 = xl + np.linspace(0.05, 0.95, m)[:, None] * (xr - xl)
    walls = np.stack([fol.wall1(t, r2), r2, fol.wall2(t, q2), r2])
    dish = np.stack([_libm(math.exp, q1), _libm(math.exp, fol.dish(t, q1))])
    # per level, (|z1|, |z2|) of both walls at each height, then of each dish point
    z = np.concatenate([walls.T.reshape(t.size, 4 * m),
                        dish.T.reshape(t.size, 2 * m)], axis=1).reshape(-1, 2) + 0j
    return list(zip(z[:, 0], z[:, 1])) + [(complex(fol.wall1(t_axis, 1e-4)), 1e-4 + 0j)
                                          for t_axis in (0.3, 1.0)]


def _lambda_grid(fam: FamilySpec) -> list[tuple]:
    """The lambda grid: :func:`verification_grid` at densities 1 and 2."""
    return verification_grid(fam, 1) + verification_grid(fam, 2)


def find_collar_lambda(fam: FamilySpec, lambda_max: float) -> tuple[float, Certificate]:
    """:func:`find_lambda` for the family's ``gamma`` on the lambda grid, the
    union of :func:`verification_grid` at densities 1 and 2."""
    return find_lambda(fam.fol.gamma, _lambda_grid(fam), lambda_max=lambda_max)


# ---------------------------------------------------------------------------
# Frames and the two global sweeps
# ---------------------------------------------------------------------------

def _unit_rows(V: np.ndarray) -> np.ndarray:
    """Rows of ``V`` scaled to unit length.  The stacked ``matmul`` forms each
    row's dot product as ``np.linalg.norm`` does for one vector, so a row gets
    the same bits as on its own; ``np.linalg.norm(V, axis=1)`` sums
    differently."""
    return V / np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0]


def _piece_abscissa(model: SphereModel, tags, z1, z2) -> tuple[np.ndarray, ...]:
    """Tags, ``|z1|``, ``|z2|`` (the real slice of each torus orbit) and
    profile abscissas, ``log|z2|`` on the walls and ``log|z1|`` on the seam,
    of the samples ``(tags, z1, z2)`` (see :func:`_sample_arrays`) farther
    than ``CORNER_MARGIN`` from a seam corner.  ``np.hypot`` and ``math.log``
    keep the bits of Python's ``abs`` and ``math.log``."""
    for tag in set(tags.tolist()) - {"H1", "H2", "S"}:
        raise DomainError(f"unknown piece tag {tag!r}")
    r1, r2 = np.hypot(z1.real, z1.imag), np.hypot(z2.real, z2.imag)
    cap = tags == "S"
    x = _libm(math.log, np.where(cap, r1, r2))
    X1, X2 = model.window
    keep = ~(np.where(cap, np.minimum(x - X1, X2 - x), model.y_star - x) < CORNER_MARGIN)
    return tags[keep], r1[keep], r2[keep], x[keep]


def _sample_frames(model: SphereModel, pieces):
    """Angular frames ``e1``, ``e2`` and profile tangents ``V`` as ``[N, 4]``
    arrays at the real slice of the orbits of the samples whose
    :func:`_piece_abscissa` is ``pieces``, where the
    angular directions are the constant ``dy1`` and ``dy2``.  ``V`` is the
    unit tangent of the profile curve, oriented along the page from the left
    binding circle toward the right one."""
    tags, r1, r2, x = pieces
    zero = np.zeros(x.shape)
    e1, e2 = (np.repeat(np.eye(4)[[k]], x.size, axis=0) for k in (1, 3))
    # log-radius direction (dq1, dq2) of the profile, per piece
    dq1, dq2 = np.ones(x.shape), np.ones(x.shape)
    h1, h2, cap = tags == "H1", tags == "H2", tags == "S"
    dq1[h1] = model.f1.dL(x[h1])
    dq1[h2] = -model.f2.dL(x[h2])   # descending toward the binding
    dq2[h2] = -1.0
    dq2[cap] = -model.htilde.df(x[cap])
    V = _unit_rows(np.stack([dq1 * r1, zero, dq2 * r2, zero], axis=1))
    return e1, e2, V


def _oriented_curvature(model: SphereModel, pieces) -> np.ndarray:
    """Transverse log-curvature of each sample's local profile, from the
    samples' :func:`_piece_abscissa` ``pieces``, signed so
    that the value is positive exactly when the piece classifies as negative
    contact in the fixed co-orientation (left wall: +L'', right wall: -L'',
    seam: +htilde'')."""
    tags, _, _, x = pieces
    out = np.empty(x.shape)
    h1, h2, cap = tags == "H1", tags == "H2", tags == "S"
    out[h1] = model.f1.d2L(x[h1])
    out[h2] = -model.f2.d2L(x[h2])
    out[cap] = model.htilde.d2f(x[cap])
    return out


def _normalize_grid(grid) -> tuple[np.ndarray, ...]:
    """The sweeps' list input, :func:`sample_M1` pairs or ``(z1, z2, tag)``
    triples, as the ``(tags, z1, z2)`` arrays of :func:`_sample_arrays`."""
    z1, z2, tags = zip(*((item[0].z1, item[0].z2, item[1])
                         if isinstance(item[0], ChartPoint) else item for item in grid))
    return np.array(tags, dtype=str), np.array(z1, dtype=complex), np.array(z2, dtype=complex)


@dataclass(frozen=True)
class _SampleJet:
    """The :func:`_piece_abscissa` of a sample set, with ``gamma``'s
    jets at steps ``h`` and ``2h`` and the frames (:func:`_sample_frames`)
    there, and ``gamma``'s radial jet at step ``h`` at the two binding points
    ``(c_j, 0)``: the ``lam``-free part of the 3-form sweeps.
    :func:`_sample_jet_from` builds it from ``gamma``'s values on
    :func:`_sample_stencil`.  The sweeps compose ``u = exp(lam * (gamma -
    1))`` exactly from the jets, so ``alpha ^ d alpha = (lam u)^2 beta ^ d
    beta``, ``beta = -d^C gamma``, keeps its sign at every ``lam``."""

    pieces: tuple
    jets: tuple
    frames: tuple
    binding: tuple


def _binding_radii(fam: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """``(|z1|, |z2|)`` of one point per binding circle, ``(c_j, 0)``."""
    return np.array([fam.model.params.c1, fam.model.params.c2]), np.zeros(2)


def _sample_stencil(fam: FamilySpec, pieces) -> tuple[np.ndarray, np.ndarray]:
    """The radii at which a :class:`_SampleJet` reads ``gamma``: the polar
    stencil of the samples with :func:`_piece_abscissa` ``pieces``, then
    that of the binding points."""
    _, r1, r2, _ = pieces
    return tuple(np.concatenate(rr) for rr in zip(polar_stencil(r1, r2),
                                                  polar_stencil(*_binding_radii(fam))))


def _sample_jet_from(fam: FamilySpec, pieces, u) -> _SampleJet:
    """The :class:`_SampleJet` of the samples with :func:`_piece_abscissa`
    ``pieces`` from ``gamma``'s values ``u`` on their
    :func:`_sample_stencil`."""
    _, r1, r2, _ = pieces
    u_s, u_b = np.split(np.asarray(u), [17 * r1.size])
    return _SampleJet(pieces,
                      tuple(polar_lift(pj, r1, r2) for pj in polar_diff(u_s, r1, r2)),
                      _sample_frames(fam.model, pieces),
                      polar_diff(u_b, *_binding_radii(fam))[0])


def _sample_jet(fam: FamilySpec, grid) -> _SampleJet:
    """``grid`` (list input, see :func:`_normalize_grid`) prepared for the
    sweeps, with one ``gamma`` call; a :class:`_SampleJet` is returned as it
    is."""
    if isinstance(grid, _SampleJet):
        return grid
    pieces = _piece_abscissa(fam.model, *_normalize_grid(grid))
    R1, R2 = _sample_stencil(fam, pieces)
    return _sample_jet_from(fam, pieces, fam.fol.gamma(R1 + 0j, R2 + 0j))


def _contact_volumes(fam: FamilySpec, lam: float, grid) -> np.ndarray:
    """``alpha ^ d alpha`` on each sample's oriented tangent frame from the
    jets at ``h`` and ``2h``, ``[2, N]``.  ``grid`` is as for
    :func:`_sample_jet`."""
    sweep = _sample_jet(fam, grid)
    out = []
    for jet_f in sweep.jets:
        _, g, H = exp_jet(jet_f, lam, 1.0)
        nu = -g / np.linalg.norm(g, axis=1, keepdims=True)  # outward from the compact side
        e1, e2, e3 = sweep.frames
        swap = (np.linalg.det(np.stack([nu, e1, e2, e3], axis=2)) < 0)[:, None]
        e2, e3 = np.where(swap, e3, e2), np.where(swap, e2, e3)
        al = [-jet_d_c(g, v) for v in (e1, e2, e3)]
        da = [jet_neg_ddc(H, e2, e3), jet_neg_ddc(H, e1, e3), jet_neg_ddc(H, e1, e2)]
        out.append(al[0] * da[0] - al[1] * da[1] + al[2] * da[2])
    return np.array(out)


def pseudoconcavity_check(fam: FamilySpec, lam: float, grid) -> Certificate:
    """Certify the sphere's contact sign: ``alpha ^ d alpha`` constant
    negative in the fixed orientation, agreeing with the per-piece profile
    classification at every sample.

    ``alpha = -d^C u`` for the potential ``u = exp(lam * (gamma - 1))`` of
    the family ``fam``.  ``grid`` is a list of model samples (as produced by
    :func:`sample_M1`), or their :class:`_SampleJet`; samples closer than
    the corner margin to a seam corner are skipped.
    """
    model = fam.model
    sweep = _sample_jet(fam, grid)
    vals, vals_2h = _contact_volumes(fam, lam, sweep)
    tags, r1, r2, _ = sweep.pieces
    kappa = _oriented_curvature(model, sweep.pieces)
    agree = int(np.sum((kappa > 0) & (vals < 0)))
    per_piece = {t: vals[tags == t] for t in ("H1", "H2", "S")}
    i = int(np.argmax(vals))
    passed = bool(np.all(vals < 0)) and agree == tags.size
    return Certificate(
        name="pseudoconcavity",
        grid=f"{tags.size} samples "
             f"(H1 {len(per_piece['H1'])}, H2 {len(per_piece['H2'])}, S {len(per_piece['S'])})",
        margin=float(-vals[i]),
        passed=passed, worst_point=(complex(r1[i]), complex(r2[i])),
        details={
            "method": "radial_stencil",
            "error_estimate": float(abs(vals[i] - vals_2h[i])),
            "min_abs_volume": float(np.min(np.abs(vals))),
            "classification_agreements": agree,
            "disagreements": tags.size - agree,
            "per_piece_max": {t: (float(np.max(v)) if v.size else None)
                              for t, v in per_piece.items()},
        })


def compatibility_check(fam: FamilySpec, lam: float, grid) -> Certificate:
    """Certify the open-book compatibility of the contact form
    ``alpha = -d^C u``, ``u = exp(lam * (gamma - 1))``.

    Three sub-certificates: (i) the binding pairing ``alpha(d/d theta1) =
    lam u r1 gamma_r1`` is nonzero with opposite signs on the two binding
    circles, the two boundary components of a page, read at one point
    ``(c_j, 0)`` per circle since ``gamma`` is torus-invariant; (ii) the
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
    of the Reeb direction positive.  ``grid`` is as for
    :func:`pseudoconcavity_check`.
    """
    sweep = _sample_jet(fam, grid)

    # (i) binding circles, from gamma's radial jet at (c_j, 0); the ring
    # through r2 = 0 reads gamma at |z2| = mh
    u, g1 = sweep.binding[:2]
    b1, b2 = (lam * np.exp(lam * (u - 1.0)) * _binding_radii(fam)[0] * g1).tolist()
    cert_bind = Certificate(
        name="binding_pairing", grid="2 circles, one point each",
        margin=float(np.min(np.abs([b1, b2]))), passed=b1 * b2 < 0,
        details={"sign_c1": float(np.sign(b1)), "sign_c2": float(np.sign(b2)),
                 "value_c1": b1, "value_c2": b2})

    # (ii) pages and (iii) span, on off-binding samples
    tags, r1, r2, _ = sweep.pieces
    (_, g, H), (_, _, H_2h) = (exp_jet(jet_f, lam, 1.0) for jet_f in sweep.jets)
    e1, e2, V = sweep.frames
    # Page-plane orientation: the traversal vector V runs from the left
    # binding toward the right one.  On the wall pieces that is the
    # fibration-positive direction; on the cap the complex orientation of
    # the (nearly complex) page plane reverses it.
    W = np.where((tags == "S")[:, None], -V, V)
    page_arr, page_2h = jet_neg_ddc(H, e1, W), jet_neg_ddc(H_2h, e1, W)
    k = int(np.argmin(page_arr))
    R = apply_J(g / np.linalg.norm(g, axis=1, keepdims=True))
    # (e1, e2, V) is an orthonormal tangent frame: angular directions are
    # exactly orthogonal to the radial profile tangent
    basis = np.stack([e1, e2, V], axis=1)
    det_arr = np.abs(np.linalg.det(basis @ np.stack([e1, V, R], axis=2)))
    th2_arr = np.sum(e2 * R, axis=1)
    piece_ranges = {t: [float(page_arr[tags == t].min()), float(page_arr[tags == t].max())]
                    for t in ("H1", "S", "H2") if np.any(tags == t)}
    cert_pages = Certificate(
        name="page_area_form", grid=f"{tags.size} off-binding samples",
        margin=float(page_arr[k]), passed=bool(np.all(page_arr > 0)),
        worst_point=(complex(r1[k]), complex(r2[k])),
        details={"method": "radial_stencil",
                 "error_estimate": float(abs(page_arr[k] - page_2h[k])),
                 "max": float(page_arr.max()),
                 "per_piece_range": piece_ranges,
                 "orientation": "fibration on walls, complex on cap"})
    cert_span = Certificate(
        name="frame_span", grid=f"{tags.size} off-binding samples",
        margin=float(min(det_arr.min(), th2_arr.min())),
        passed=bool(np.all(det_arr > 0) and np.all(th2_arr > 0)),
        details={"min_abs_det": float(det_arr.min()),
                 "min_theta2_component": float(th2_arr.min())})

    return Certificate.merge("compatibility", [cert_bind, cert_pages, cert_span])


# ---------------------------------------------------------------------------
# End-to-end report
# ---------------------------------------------------------------------------

def run_verification(params: Params, knobs: Knobs | None = None,
                     model: SphereModel | None = None, *,
                     n_tau: int = RUN_DEFAULTS["n_tau"],
                     n_samples: int = RUN_DEFAULTS["n_samples"],
                     lambda_max: float = RUN_DEFAULTS["lambda_max"]) -> tuple[bool, dict]:
    """Run the full pipeline and assemble a deterministic report.

    Returns ``(all_passed, report)`` where the report carries the params,
    knobs, found ``lambda`` and every certificate.  The report content is a
    pure function of its inputs (no timestamps, no randomness), so repeated
    runs serialize identically.  ``model``, if given, is
    ``build_M1(params, knobs)`` built by the caller.

    ``gamma`` is read in one call on every point the run needs, gathered as
    soon as the family is assembled: the level-consistency points, then the
    polar stencils of the lambda grid, of the ``n_samples`` model samples
    (:func:`_sample_arrays`) and of the two binding points.  ``gamma`` is
    elementwise, so the certificates are bit for bit those of
    :func:`build_family`, :func:`find_collar_lambda`,
    :func:`pseudoconcavity_check` and :func:`compatibility_check` called on
    their own, and so is the error raised: a failing family certificate
    first, then :func:`find_lambda`'s errors.  A bad argument (``n_tau <
    8``, ``n_samples < 100``) raises its ``DomainError`` before ``gamma`` is
    read.
    """
    knobs = knobs or default_knobs()
    fam = _assemble_family(params, n_tau, knobs, model)
    model = fam.model
    t, z1, z2 = _family_levels(fam)
    grid = _lambda_grid(fam)
    pieces = _piece_abscissa(model, *_sample_arrays(model, n_samples))
    Z1, Z2 = zip((z1, z2), polar_stencil(*(np.abs([p[i] for p in grid]) for i in (0, 1))),
                 _sample_stencil(fam, pieces))
    u = fam.fol.gamma(np.concatenate(Z1), np.concatenate(Z2))
    u_level, u_lam, u_samples = np.split(u, np.cumsum([z.size for z in Z1])[:-1])
    _certify_levels(fam, t, u_level)
    lam, cert_lam = lambda_from_values(u_lam, grid, lambda_max=lambda_max)
    sweep = _sample_jet_from(fam, pieces, u_samples)
    cert_pc = pseudoconcavity_check(fam, lam, sweep)
    cert_cp = compatibility_check(fam, lam, sweep)

    certs = {
        "find_lambda": cert_lam,
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
