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

from ._numerics import GOLD, SILVER, crossing, kronecker, sample_table
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
from .levi import ROUNDING_ULPS, LogJet, ScalarField, log_lambda
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
    "levi_field",
    "run_verification",
]

#: tolerance for the two C^1 seam matches of the join
SEAM_TOL = 1e-9
#: strict nesting floor along rays
NESTING_FLOOR = 1e-6


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
        return {
            "window": list(self.window),
            "depth": self.depth,
            "y_star": self.y_star,
            "certificates": {k: c.to_dict() for k, c in sorted(self.certificates.items())},
        }


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
            a, b = crossing(lambda t, j: self.dish(t, p1[j]) - p2[j],
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
    monotonicity, ray nesting, top-slice equality, and the foliation's
    speed on the lambda lattice.
    """

    model: SphereModel
    n_tau: int
    taus: tuple
    fol: _Foliation = field(repr=False)
    certificates: dict = field(default_factory=dict, repr=False)

    @cached_property
    def top_slice(self) -> _TopSlice:
        """The closed forms of the 3-form certificates (:func:`_top_slice`),
        computed once for both sweeps."""
        return _top_slice(self)

    @cached_property
    def lambda_jets(self) -> tuple[np.ndarray, LogJet]:
        """``_lambda_jets(self, 2)``, computed once for the ``foliation``
        certificate and :func:`find_collar_lambda`."""
        return _lambda_jets(self, 2)


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


def _build_family(params: Params, n_tau: int, knobs: Knobs,
                  model: SphereModel | None) -> FamilySpec:
    """:func:`build_family` on ``model``, built here if it is ``None``."""
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

    certs["foliation"] = _foliation_cert(fam)

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
    ``build_M1`` exactly; the slices cross the lambda lattice at positive
    speed in ``tau`` (:func:`_foliation_cert`).  A failing certificate
    raises :class:`VerificationError`.  The slices interpolate along the
    linear parameter curves of :class:`_Foliation`.
    """
    return _build_family(params, n_tau, knobs or default_knobs(), None)


def normalized_potential(fam: FamilySpec, lam: float) -> ScalarField:
    """``exp(lam * (gamma - 1))``, the collar's potential (module docstring),
    for the bench's probes and the tests."""
    fol = fam.fol

    def fn(z1, z2):
        return np.exp(lam * (fol.gamma(z1, z2) - 1.0))

    return ScalarField(fn=fn, name=f"u(lambda={lam:g})")


#: the grid's points beside the binding plane: the left wall at these levels,
#: at ``|z2| = AXIS_RADIUS``
AXIS_LEVELS = (0.3, 1.0)
AXIS_RADIUS = 1e-4


def _lattice(fol: _Foliation, density: int) -> tuple[np.ndarray, ...]:
    """:func:`verification_grid`'s levels ``t`` and, per level, its ``m = 3
    density + 1`` wall heights ``q2`` and dish abscissae ``q1``, each ``[m,
    levels]``."""
    m = 3 * density + 1
    t = np.linspace(0.1, 1.0, 4 * density + 1)
    yc, xl, xr = fol.cap(t)
    q2 = np.linspace(-2.0, yc - 3e-3, m)
    q1 = xl + np.linspace(0.05, 0.95, m)[:, None] * (xr - xl)
    return t, q2, q1


def verification_grid(fam: FamilySpec, density: int = 1) -> list[tuple]:
    """Multi-sector point grid for the plurisubharmonicity search.

    Covers both walls at several depths and levels, the dome cap away from
    its corners, and points adjacent to the binding plane.  ``density``
    scales the per-sector counts (:func:`_lattice`).  Points lie on the real
    slice: a torus-invariant ``gamma`` needs one point per orbit.  Only the
    bench's probes and the tests read this list; the commands take
    ``gamma``'s exact jets on its lattice (:func:`_lambda_jets`).
    """
    fol = fam.fol
    t, q2, q1 = _lattice(fol, density)
    m = q2.shape[0]
    r2 = _libm(math.exp, q2)
    walls = np.stack([fol.wall1(t, r2), r2, fol.wall2(t, q2), r2])
    dish = np.stack([_libm(math.exp, q1), _libm(math.exp, fol.dish(t, q1))])
    # per level, (|z1|, |z2|) of both walls at each height, then of each dish point
    z = np.concatenate([walls.T.reshape(t.size, 4 * m),
                        dish.T.reshape(t.size, 2 * m)], axis=1).reshape(-1, 2) + 0j
    return list(zip(z[:, 0], z[:, 1])) + [(complex(fol.wall1(t_axis, AXIS_RADIUS)),
                                           AXIS_RADIUS + 0j) for t_axis in AXIS_LEVELS]


# ---------------------------------------------------------------------------
# gamma's exact jets in log coordinates
# ---------------------------------------------------------------------------

# Each piece's jet is taken at a given level t <= 1 and profile abscissa, so
# no level is solved for.  The factors of t are placed so that at t = 1, on
# M1, each expression rounds as its t-free form does: the 3-form
# certificates read these jets there.

def _wall1_jet(fol: _Foliation, t, q2) -> LogJet:
    """The left wall, ``gamma = (rho2 - r1) / b`` with ``b = rho2 -
    f1c(r2)``, at ``r1 = wall1(t, r2)``: with ``beta = 2 eps1 r2^2 / b``,
    ``g1 = h11 = -r1 / b``, ``g2 = t beta``, ``h12 = g1 beta`` and ``h22 =
    2 g2 (1 + beta)``, so ``N = g1 g2 (g2 + 2 g1)``."""
    r2 = np.exp(q2)
    b = fol.rho2 - fol.f1c(r2)
    r1 = fol.wall1(t, r2)
    g1 = -r1 / b
    beta = 2.0 * fol.eps1 * r2 * r2 / b
    g2 = t * beta
    h12, h22 = g1 * beta, 2.0 * g2 * (1.0 + beta)
    return LogJet(r1, r2, g1, g2, g1, h12, h22, g1 * h22 - h12 * h12,
                g1 * g2 * (g2 + 2.0 * g1), g1 * g2 * (1.0 - g1 / t), -g1)


def _wall2_jet(fol: _Foliation, t, q2) -> LogJet:
    """The right wall, ``gamma = (r1 - 1) / (F - 1)`` with ``F = exp(L(q2))``
    of ``f2``'s germ or spline, at ``r1 = 1 + t (F - 1)``: with ``e = F /
    r1`` and ``d = g1 e L'``, ``g1 = h11 = r1 / (F - 1)``, ``g2 = -t d``,
    ``h12 = -g1 d`` and ``h22 = t (2 d^2 - g1 e (L'' + L'^2))``, so ``N = t
    g1^3 e ((t - 1) L'^2 / r1 - L'')``."""
    f2 = fol.model.f2
    F = np.exp(f2.L_fn(q2))
    dL, d2L = f2.dL_fn(q2), f2.d2L_fn(q2)
    r1 = 1.0 + fol.g2(t) * (F - 1.0)
    g1, e = r1 / (F - 1.0), F / r1
    g2 = -t * g1 * e * dL
    h12 = -g1 * g1 * e * dL
    h22 = t * (2.0 * (g1 * e * dL) ** 2 - g1 * e * (d2L + dL * dL))
    return LogJet(r1, np.exp(q2), g1, g2, g1, h12, h22, g1 * h22 - h12 * h12,
                t * g1 * g1 * g1 * e * ((t - 1.0) * dL * dL / r1 - d2L),
                g1 * g1 * e * dL * (g1 - t), g1)


def _dish_jet(fol: _Foliation, t, q1) -> LogJet:
    """The dish, where ``gamma`` solves ``G(gamma, q1) = q2`` with ``G =
    dish``.  With ``A = G_q1``, ``B = G_tau`` and ``C = G_tau_tau``,
    implicit differentiation gives ``g1 = -A/B``, ``g2 = 1/B``, ``h22 =
    -C/B^3``, ``det = (A_q1 C - B_q1^2) / B^4``, ``N = -A_q1 / B^3`` and
    ``P = (A B_q1 - A_q1 B) / B^3``.  ``C`` reads the window ends' second
    tau-derivatives, and at ``t = 1``, where ``y_cut`` is the end of
    ``f2``'s domain, it takes ``f2``'s ``L''`` from inside the domain: the
    one-sided jet of the slices ``t <= 1``.  ``kappa`` is the ratio of
    ``B``'s terms' magnitudes to ``|B|``."""
    yc, xl, xr = fol.cap(t)
    w = xr - xl
    s = np.clip((q1 - xl) / w, 0.0, 1.0)
    X = fol.X1 + s * fol.span
    ht, span, D1, SM = fol.model.htilde, fol.span, fol.D1, fol.SM
    ph = (-ht.f(X) - fol.y_star) / D1            # phat and its s-derivatives
    ph1 = -ht.df(X) * span / D1
    ph2 = -ht.d2f(X) * span * span / D1
    D, dD = fol.D(t), D1 * (1.0 - fol.D_FLOOR)
    # the window's ends are xl = log W1 and xr = log W2 + yc, with W1 =
    # wall1(tau, e^yc) = rho2 - tau (rho2 - f1c(e^yc)), W2 = wall2(tau, yc) =
    # 1 + tau (F(yc) - 1) and yc' = SM
    rc, f2 = _libm(math.exp, yc), fol.model.f2
    F, dL, d2L = np.exp(f2.L_fn(yc)), f2.dL_fn(yc), f2.d2L_fn(yc)
    W1, W2 = fol.wall1(t, rc), fol.wall2(t, yc)
    dxl = (2.0 * fol.eps1 * rc * rc * SM * t - (fol.rho2 - fol.f1c(rc))) / W1
    dlw2 = (F - 1.0 + F * dL * SM * t) / W2      # (log W2)'
    dxr = dlw2 + SM
    d2xl = 4.0 * fol.eps1 * rc * rc * SM * (1.0 + t * SM) / W1 - dxl * dxl
    d2xr = F * SM * (2.0 * dL + t * SM * (d2L + dL * dL)) / W2 - dlw2 * dlw2
    dw = dxr - dxl
    st = -(dxl + s * dw) / w                     # s_tau and s_tau_tau
    stt = -(d2xl + s * (d2xr - d2xl) + 2.0 * st * dw) / w
    A, Aq = D * ph1 / w, D * ph2 / (w * w)
    terms = (SM, dD * ph, D * ph1 * st)
    B = terms[0] + terms[1] + terms[2]
    Bq = (dD * ph1 + D * ph2 * st) / w - D * ph1 * dw / (w * w)
    C = 2.0 * dD * ph1 * st + D * ph2 * st * st + D * ph1 * stt
    B3 = B * B * B
    g1, g2 = -A / B, 1.0 / B
    kappa = (abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])) / np.abs(B)
    return LogJet(np.exp(q1), np.exp(yc + D * ph), g1, g2,
                -(C * g1 * g1 + 2.0 * Bq * g1 + Aq) / B, -(C * g1 + Bq) * g2 / B, -C / B3,
                (Aq * C - Bq * Bq) / (B3 * B), -Aq / B3, (A * Bq - Aq * B) / B3, kappa)


# ---------------------------------------------------------------------------
# Closed-form lambda and Levi form of exp(lambda * gamma)
# ---------------------------------------------------------------------------

def _lambda_jets(fam: FamilySpec, density: int) -> tuple[np.ndarray, LogJet]:
    """``gamma``'s levels and jets at the points of ``verification_grid(fam,
    density)`` by piece: the left wall with the two axis points, the right
    wall, then the dish."""
    fol = fam.fol
    t, q2, q1 = _lattice(fol, density)
    t = np.broadcast_to(t, q2.shape).ravel()
    t1 = np.concatenate([t, AXIS_LEVELS])
    q21 = np.concatenate([q2.ravel(), np.full(len(AXIS_LEVELS), math.log(AXIS_RADIUS))])
    jets = (_wall1_jet(fol, t1, q21), _wall2_jet(fol, t, q2.ravel()), _dish_jet(fol, t, q1.ravel()))
    return np.concatenate([t1, t, t]), LogJet(*(np.concatenate(a) for a in zip(*jets)))


def _foliation_cert(fam: FamilySpec) -> Certificate:
    """The slices' speed in ``tau`` at the lambda lattice's points, in log
    radius per unit tau: ``-1/g1 = (rho2 - f1c)/r1`` on the left wall,
    ``1/g1 = (F - 1)/r1`` on the right one, ``1/g2 = dish_tau`` on the
    dish.  Positive speeds make ``gamma`` C^2 there (implicit function
    theorem); a NaN fails."""
    t, j = fam.lambda_jets
    n = (t.size - len(AXIS_LEVELS)) // 3
    ends = [t.size - 2 * n, t.size - n]
    speed = np.concatenate([-1.0 / j.g1[:ends[0]], 1.0 / j.g1[ends[0]:ends[1]],
                            1.0 / j.g2[ends[1]:]])
    i = int(np.argmin(speed))   # a NaN speed wins
    pieces = {"wall1": "log|z1|", "wall2": "log|z1|", "dish": "log|z2|"}
    details = {k: {"min": float(np.min(v)), "unit": f"{u} per tau"}
               for (k, u), v in zip(pieces.items(), np.split(speed, ends))}
    return Certificate(
        name="foliation", grid=f"{t.size} points: verification_grid(fam, 2)",
        margin=float(speed[i]), passed=bool(speed[i] > 0),
        worst_point=(list(pieces)[np.searchsorted(ends, i, "right")], float(t[i]),
                     complex(j.r1[i]), complex(j.r2[i])),
        details={**details, "method": "closed_form"})


def find_collar_lambda(fam: FamilySpec, lambda_max: float) -> tuple[float, Certificate]:
    """Closed-form ``lam`` making ``exp(lam * gamma)`` strictly psh on the
    lambda grid: :func:`~concavia.levi.log_lambda` on ``gamma``'s exact jets
    at the levels of ``verification_grid(fam, 2)`` (:func:`_lambda_jets`),
    so no ``gamma`` is read."""
    return log_lambda(fam.lambda_jets[1], lambda_max, "verification_grid(fam, 2)")


def levi_field(fam: FamilySpec, lam: float, density: int) -> tuple[np.ndarray, ...]:
    """Radii ``r1``, ``r2`` and least Levi eigenvalue of ``u = exp(lam
    (gamma - 1))`` at the real points of ``verification_grid(fam, density)``,
    in :func:`_lambda_jets`' piece order, from ``gamma``'s exact jets at the
    lattice's levels: no ``gamma`` is read.  The radii are the jets', whose
    ``np.exp`` differs from the list's ``math.exp`` in the last bit at a few
    points.

    With ``g`` and ``H`` the jets in ``x_j = log|z_j|``, the Levi form is
    ``L_jk = lam u (H + lam g g^T)_jk / (4 r_j r_k)``; its least eigenvalue
    is taken as determinant over the larger eigenvalue, with ``det(H + lam g
    g^T) = det H + lam N``, so it does not cancel where it is small.
    """
    t, j = _lambda_jets(fam, density)
    s = 0.25 * lam * np.exp(lam * (t - 1.0))
    a = s * (j.h11 + lam * j.g1 * j.g1) / (j.r1 * j.r1)
    c = s * (j.h22 + lam * j.g2 * j.g2) / (j.r2 * j.r2)
    b = s * (j.h12 + lam * j.g1 * j.g2) / (j.r1 * j.r2)
    det = s * s * (j.det + lam * j.N) / (j.r1 * j.r1 * j.r2 * j.r2)
    return j.r1, j.r2, det / ((a + c) / 2.0 + np.hypot((a - c) / 2.0, b))


# ---------------------------------------------------------------------------
# The sphere's 3-form certificates, in closed form on the top slice
# ---------------------------------------------------------------------------

#: the model samples whose area-uniform abscissas (:func:`_sample_arrays`'s
#: placement) each piece's closed-form grid starts from
SPHERE_POINTS = 240


def _sphere_abscissas(model: SphereModel) -> dict[str, np.ndarray]:
    """Per piece, the profile abscissas of the closed-form grid, ``log|z2|``
    on the walls and ``log|z1|`` on the seam, ascending: the area-uniform
    placement of :data:`SPHERE_POINTS` samples and every point where a
    piece's profile changes formula or ends at a corner, namely the left
    wall's corner ``y_star``, the knots of ``f2``'s spline (from the germ's
    end to the corner) and the breakpoints of ``htilde`` (both corners
    included)."""
    tables = model.density_tables
    total = sum(area for _, _, area in tables.values())
    knots = {"H1": [model.y_star], "H2": model.f2.meta["spline"]["breakpoints"],
             "S": model.htilde.ppoly.x}
    out = {}
    for tag, (grid, dens, area) in tables.items():
        m = max(8, round(SPHERE_POINTS * area / total))
        x = np.sort(np.concatenate([_inverse_cdf(grid, dens, m), knots[tag]]))
        out[tag] = x[np.concatenate([[True], x[1:] != x[:-1]])]
    return out


@dataclass(frozen=True)
class _TopSlice:
    """The 3-form certificates' values on the top slice ``M1``, per grid
    point in piece order: the contact term ``beta ^ d beta``, the page form
    ``d beta`` and the frame span, and ``ulps``, the relative rounding bound
    of the first two; and the binding pairing ``beta(d/d theta1)`` at ``(c1,
    0)`` and ``(c2, 0)`` with its own ``binding_ulps``.

    ``beta = -d^C gamma``.  The potential ``u = exp(lambda (gamma - 1))``
    has ``alpha = -d^C u = lambda u beta``, and on the tangent space of
    ``M1``, where ``u = 1`` and ``dgamma = 0``, ``alpha ^ d alpha =
    lambda^2 beta ^ d beta`` and ``d alpha = lambda d beta``: every sign
    holds at every ``lambda``, and the values read no ``lambda``.

    The values are those of ``gamma``'s jet at the real point ``(r1, 0,
    r2, 0)``, gradient ``(g1/r1, 0, g2/r2, 0)``, on the frame of the angular
    directions ``dy1``, ``dy2`` and the level curve's unit tangent ``V =
    (g2/r2, 0, -g1/r1, 0) / |grad gamma|``, which runs along the page from
    the left binding circle toward the right one since ``gamma`` grows
    outward.  The torus acts by isometries commuting with ``J``, so they
    hold on the whole orbit.  With ``N`` and ``P`` of the piece jets:
    ``beta ^ d beta = -N / (2 r1^2 r2^2 |grad gamma|)`` in either
    orientation of ``(dy1, dy2, V)`` led by ``-grad gamma``; ``d beta(dy1,
    W) = -P / (2 r1^2 r2 |grad gamma|)`` with ``W = V`` on the walls and
    ``-V`` on the cap; and the frame ``(dy1, V, J grad gamma)`` spans with
    determinant and ``theta2``-component ``g2 / (r2 |grad gamma|)``.
    """

    tags: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    contact: np.ndarray
    page: np.ndarray
    span: np.ndarray
    ulps: np.ndarray
    binding: np.ndarray
    binding_ulps: np.ndarray
    grid: str


def _top_slice(fam: FamilySpec) -> _TopSlice:
    """The :class:`_TopSlice` of ``fam`` on the :func:`_sphere_abscissas`
    of its model."""
    fol = fam.fol
    xs = _sphere_abscissas(fam.model)
    jets = (_wall1_jet(fol, 1.0, xs["H1"]), _wall2_jet(fol, 1.0, xs["H2"]),
            _dish_jet(fol, 1.0, xs["S"]))
    tags = np.repeat(["H1", "H2", "S"], [x.size for x in xs.values()])
    r1, r2, g1, g2, _, _, _, _, N, P, kappa = (np.concatenate(a) for a in zip(*jets))
    g = np.hypot(g1 / r1, g2 / r2)
    # the binding circles, r2 = 0, on the left wall and on f2's germ
    ends = [piece(fol, 1.0, np.array([-np.inf])) for piece in (_wall1_jet, _wall2_jet)]
    ulp = ROUNDING_ULPS * np.finfo(float).eps
    knots = len(fam.model.f2.meta["spline"]["breakpoints"]), fam.model.htilde.ppoly.x.size
    return _TopSlice(
        tags, r1, r2, -N / (2.0 * r1 * r1 * r2 * r2 * g),
        np.where(tags == "S", P, -P) / (2.0 * r1 * r1 * r2 * g), g2 / r2 / g, ulp * kappa,
        np.array([e.g1[0] for e in ends]), ulp * np.array([e.kappa[0] for e in ends]),
        f"{tags.size} points (H1 {xs['H1'].size}, H2 {xs['H2'].size}, S {xs['S'].size}): "
        f"area-uniform abscissas, the left wall's corner, f2's {knots[0]} spline knots "
        f"and htilde's {knots[1]} breakpoints")


def pseudoconcavity_check(fam: FamilySpec) -> Certificate:
    """Certify the sphere's contact sign: ``beta ^ d beta``, ``beta = -d^C
    gamma``, negative at every point of the closed-form grid, in the
    orientation led by the outward normal ``-grad gamma`` (see
    :class:`_TopSlice`); it reads neither ``lambda`` nor ``gamma``."""
    top = fam.top_slice
    vals = top.contact
    i = int(np.argmax(vals))
    per_piece = {t: vals[top.tags == t] for t in ("H1", "H2", "S")}
    return Certificate(
        name="pseudoconcavity", grid=top.grid,
        margin=float(-vals[i]), passed=bool(np.all(vals < 0)),
        worst_point=(complex(top.r1[i]), complex(top.r2[i])),
        details={
            "method": "closed_form",
            "error_estimate": float(top.ulps[i] * abs(vals[i])),
            "min_abs_volume": float(np.min(np.abs(vals))),
            "per_piece_max": {t: float(np.max(v)) for t, v in per_piece.items()},
        })


def compatibility_check(fam: FamilySpec) -> Certificate:
    """Certify the open-book compatibility of the contact form ``beta =
    -d^C gamma`` from the closed forms of :class:`_TopSlice`; it reads
    neither ``lambda`` nor ``gamma``.

    Three sub-certificates: (i) the binding pairing ``beta(d/d theta1) =
    r1 gamma_r1`` is nonzero with opposite signs on the two binding
    circles, the two boundary components of a page: ``-c1 / (rho2 - c1)``
    at ``(c1, 0)`` and ``c2 / (c2 - 1)`` at ``(c2, 0)``; (ii) the page
    2-form ``d beta`` is positive on every page tangent plane in the
    plane's natural orientation — the cap's page plane is nearly a complex
    line and carries its complex orientation, while the wall pages are
    almost totally real and carry the fibration co-orientation (frame
    positive when preceded by the outward normal and the theta2
    direction); nondegeneracy of ``d beta`` on pages follows from (iii),
    which is how the certificate should be read — the two recorded
    orientations are not a single global convention; (iii) the triple
    (binding direction, page direction, Reeb direction) spans the tangent
    space at every off-binding point, with the theta2-component of the
    Reeb direction positive.
    """
    top = fam.top_slice
    b1, b2 = top.binding.tolist()
    cert_bind = Certificate(
        name="binding_pairing", grid="2 circles, one point each",
        margin=min(abs(b1), abs(b2)), passed=b1 * b2 < 0,
        details={"method": "closed_form",
                 "error_estimate": float(np.max(top.binding_ulps * np.abs(top.binding))),
                 "sign_c1": float(np.sign(b1)), "sign_c2": float(np.sign(b2)),
                 "value_c1": b1, "value_c2": b2})

    tags, page, span = top.tags, top.page, top.span
    k = int(np.argmin(page))
    grid = f"{tags.size} off-binding points"
    cert_pages = Certificate(
        name="page_area_form", grid=grid,
        margin=float(page[k]), passed=bool(np.all(page > 0)),
        worst_point=(complex(top.r1[k]), complex(top.r2[k])),
        details={"method": "closed_form",
                 "error_estimate": float(top.ulps[k] * abs(page[k])),
                 "max": float(page.max()),
                 "per_piece_range": {t: [float(page[tags == t].min()),
                                         float(page[tags == t].max())]
                                     for t in ("H1", "S", "H2")},
                 "orientation": "fibration on walls, complex on cap"})
    low = float(np.min(span))
    cert_span = Certificate(
        name="frame_span", grid=grid, margin=low, passed=bool(np.all(span > 0)),
        details={"min_abs_det": float(np.min(np.abs(span))), "min_theta2_component": low})

    return Certificate.merge("compatibility", [cert_bind, cert_pages, cert_span])


# ---------------------------------------------------------------------------
# End-to-end report
# ---------------------------------------------------------------------------

def run_verification(params: Params, knobs: Knobs | None = None,
                     model: SphereModel | None = None, *,
                     n_tau: int = RUN_DEFAULTS["n_tau"],
                     lambda_max: float = RUN_DEFAULTS["lambda_max"]) -> tuple[bool, dict]:
    """Run the full pipeline and assemble a deterministic report.

    Returns ``(all_passed, report)`` where the report carries the params,
    knobs, found ``lambda`` and every certificate.  The report content is a
    pure function of its inputs (no timestamps, no randomness), so repeated
    runs serialize identically.  ``model``, if given, is
    ``build_M1(params, knobs)`` built by the caller.

    No ``gamma`` is read and no level is solved for: the ``foliation``
    certificate and :func:`find_collar_lambda` share ``gamma``'s exact jets
    on the lambda lattice, and the 3-form checks read the closed forms of
    the top slice.  A failing family certificate is raised before
    :func:`find_collar_lambda`'s errors.
    """
    knobs = knobs or default_knobs()
    fam = _build_family(params, n_tau, knobs, model)
    model = fam.model
    lam, cert_lam = find_collar_lambda(fam, lambda_max)
    cert_pc = pseudoconcavity_check(fam)
    cert_cp = compatibility_check(fam)

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
