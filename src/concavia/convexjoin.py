"""Strictly convex C^2 interpolation on an interval, above an optional floor.

The central primitive behind the curved hypersurface pieces: join two end
jets ``(value, deriv)`` by a strictly convex function that stays above an
optional constant floor (the seam dome), or extend a concave germ until its
slope drops below a target (the end of ``f2``).

Strategy: parametrize the second derivative as a strictly positive piecewise
linear *density* on the interval (so strict convexity is structural), then
integrate twice and solve the linear endpoint-matching system exactly.  The
density shape is two end "walls" over a thin constant middle; wall widths are
set from a chord-depth target, so the dish depth below the chord is a control
knob rather than an accident.  All arithmetic is closed-form, which makes
repeated solves bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import PPoly
from .errors import CorridorViolation, FeasibilityError, Infeasible

__all__ = [
    "EndpointData",
    "JoinProblem",
    "SplineC2",
    "feasible",
    "solve",
    "extend_concave",
]

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class EndpointData:
    x: float
    value: float
    deriv: float

    def __post_init__(self):
        for v in (self.x, self.value, self.deriv):
            if not math.isfinite(v):
                raise ValueError("EndpointData fields must be finite")


@dataclass(frozen=True)
class JoinProblem:
    """Join ``left`` to ``right`` by a strictly convex C^2 function that
    stays above ``floor`` when one is given."""

    left: EndpointData
    right: EndpointData
    floor: float | None = None

    def __post_init__(self):
        if not self.left.x < self.right.x:
            raise ValueError("JoinProblem needs left.x < right.x")


@dataclass(frozen=True)
class SplineC2:
    """A C^2 piecewise-cubic with strictly signed second derivative.

    ``margin`` is the structural minimum of ``|f''|`` on the domain.
    """

    ppoly: PPoly
    x_lo: float
    x_hi: float
    second_sign: int
    margin: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_d1", self.ppoly.derivative())
        object.__setattr__(self, "_d2", self.ppoly.derivative(2))

    def f(self, x):
        return self.ppoly(x)

    def df(self, x):
        return self._d1(x)

    def d2f(self, x):
        return self._d2(x)

    def to_dict(self) -> dict:
        return {
            "breakpoints": self.ppoly.x.tolist(),
            "coefficients": self.ppoly.c.tolist(),
            "x_lo": self.x_lo,
            "x_hi": self.x_hi,
            "second_sign": self.second_sign,
            "margin": self.margin,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "SplineC2":
        pp = PPoly(np.asarray(blob["coefficients"]), np.asarray(blob["breakpoints"]))
        return cls(pp, blob["x_lo"], blob["x_hi"], blob["second_sign"], blob["margin"])


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def feasible(problem: JoinProblem) -> tuple[bool, dict]:
    """Slope-chord feasibility of the join, with named diagnostics.

    A convex join needs ``left.deriv < chord < right.deriv`` strictly.  The
    diagnostic dict carries the chord, both margins, and the name of the
    violated inequality if any.
    """
    l, r = problem.left, problem.right
    chord = (r.value - l.value) / (r.x - l.x)
    m_left, m_right = chord - l.deriv, r.deriv - chord
    violated = None
    if m_left <= 0:
        violated = "left.deriv < chord"
    elif m_right <= 0:
        violated = "chord < right.deriv"
    diag = {
        "chord": chord,
        "margin_left": m_left,
        "margin_right": m_right,
        "violated": violated,
    }
    return violated is None, diag


# ---------------------------------------------------------------------------
# Convex join
# ---------------------------------------------------------------------------

def _integrate_density(breaks: np.ndarray, values: np.ndarray,
                       x_lo: float, v_lo: float, d_lo: float) -> PPoly:
    """Second antiderivative of a PL density, seeded with a linear jet."""
    slopes = np.diff(values) / np.diff(breaks)
    dens = PPoly(np.vstack([slopes, values[:-1]]), breaks)
    c = dens.antiderivative(2).c.copy()
    # antiderivative(2) vanishes to first order at breaks[0] == x_lo; add the
    # linear seed piecewise so the representation stays a plain PPoly.
    c[-1, :] += v_lo + d_lo * (breaks[:-1] - x_lo)
    c[-2, :] += d_lo
    return PPoly(c, breaks)

def _wall_density(x_lo: float, x_hi: float, h_l: float, h_r: float,
                  eps_mid: float, A: float, B: float, knots: int):
    """PL density: eps_mid base + left wall of height A + right wall B."""
    # sorted, adjacent duplicates dropped: np.unique's grid without the
    # numpy.ma import that its implementation makes
    grid = np.sort(np.concatenate([
        np.linspace(x_lo, x_hi, max(4, knots)),
        np.array([x_lo + h_l, x_hi - h_r]),
    ]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    vals = np.full_like(grid, eps_mid)
    left = grid <= x_lo + h_l
    vals[left] += A * (1.0 - (grid[left] - x_lo) / h_l)
    right = grid >= x_hi - h_r
    vals[right] += B * (1.0 - (x_hi - grid[right]) / h_r)
    return grid, vals


def solve(problem: JoinProblem, knots: int = 16, target_depth: float | None = None) -> SplineC2:
    """Solve the join: a strictly convex C^2 piecewise cubic, above an
    optional floor.

    ``target_depth`` (optional) prescribes how far below the chord the middle
    of the solution should sit; it is capped by the tangent envelope and
    halved automatically when the floor or the positivity of the density
    demands it.  A join that misses its right end jet by more than ``1e-9``
    relative raises ``FeasibilityError("end jet")``, or, after halvings for
    the floor, ``CorridorViolation`` naming the last attempt that kept it.
    """
    ok, diag = feasible(problem)
    if not ok:
        raise Infeasible(diag["violated"],
                         f"chord={diag['chord']:.6g}, "
                         f"margins=({diag['margin_left']:.3g}, {diag['margin_right']:.3g})")

    left, right, floor = problem.left, problem.right, problem.floor
    x_l, v_l, d_l = left.x, left.value, left.deriv
    x_r, v_r, d_r = right.x, right.value, right.deriv
    span = x_r - x_l
    chord = diag["chord"]
    mass = d_r - d_l                       # integral of F''
    moment = v_r - v_l - d_l * span        # integral of (x_r - xi) F''

    # Depth of the tangent-envelope dish below the chord: the deepest any
    # convex interpolant can go.  Used to cap the requested depth.
    xi_star = span * (chord - d_r) / (d_l - d_r)
    depth_max = xi_star * (chord - d_l)
    depth = 0.4 * depth_max if target_depth is None else float(target_depth)
    depth = min(depth, 0.9 * depth_max)
    if depth <= 0:
        depth = 0.4 * depth_max

    # Exact a-priori screen: every convex interpolant lies below the chord.
    # A floor the chord does not clear can never be met, and the tightest
    # point is reported exactly.
    if floor is not None:
        xs = np.linspace(x_l, x_r, 1024)
        gap = v_l + chord * (xs - x_l) - floor
        i = int(np.argmin(gap))
        if gap[i] <= 0:
            raise CorridorViolation(
                f"lower bound excludes every admissible join "
                f"(tightest at x={xs[i]:.6g}, gap={abs(gap[i]):.3g})")

    tight = lost = heights = None
    for n in range(_MAX_HALVINGS + 1):
        h_l = min(3.0 * depth / (chord - d_l), 0.45 * span)
        h_r = min(3.0 * depth / (d_r - chord), 0.45 * span)
        eps_mid = 1e-3 * mass / span

        # Masses/moments (about the right end) of the three density pieces:
        # the eps_mid base and the two unit walls.
        s0 = eps_mid * span
        t0 = eps_mid * span * span / 2.0
        sL, tL = h_l / 2.0, (h_l / 2.0) * (span - h_l / 3.0)
        sR, tR = h_r / 2.0, (h_r / 2.0) * (h_r / 3.0)

        det = sL * tR - sR * tL
        rhs_s, rhs_t = mass - s0, moment - t0
        A = (rhs_s * tR - rhs_t * sR) / det
        B = (sL * rhs_t - tL * rhs_s) / det

        if A < 0 or B < 0 or not math.isfinite(A) or not math.isfinite(B):
            heights = f"A={A:.3g}, B={B:.3g} at depth={depth:.3g}"
            depth *= 0.5
            continue

        grid, vals = _wall_density(x_l, x_r, h_l, h_r, eps_mid, A, B, knots)
        F = _integrate_density(grid, vals, x_l, v_l, d_l)

        # Tall, narrow walls lose the end jet to rounding; halving narrows them.
        miss = max(abs(F(x_r) - v_r), abs(F.derivative()(x_r) - d_r))
        if not miss <= 1e-9 * max(1.0, abs(v_r), abs(d_r)):
            if tight is None:
                raise FeasibilityError("end jet", f"missed by {miss:.3g} at depth={depth:.3g}")
            lost = f"; the next halving misses the end jet by {miss:.3g}"
            break

        if floor is not None:
            xs = np.linspace(x_l, x_r, 10 * max(4, knots))
            gap = F(xs) - floor
            i = int(np.argmin(gap))
            if gap[i] <= 0:
                tight = (n, xs[i], gap[i])
                depth *= 0.5
                continue

        diags = {
            "depth": depth,
            "depth_max": depth_max,
            "wall_widths": (h_l, h_r),
            "wall_heights": (A + eps_mid, B + eps_mid),
            "eps_mid": eps_mid,
            "chord": chord,
        }
        return SplineC2(F, x_l, x_r, +1, eps_mid, diags)

    if tight is not None:
        raise CorridorViolation(
            f"cannot meet lower bound after {tight[0]} depth halvings "
            f"(tightest at x={tight[1]:.6g}, gap={tight[2]:.3g}){lost or ''}")
    raise Infeasible("wall heights",
                     f"no positive wall solution after {_MAX_HALVINGS} halvings: {heights}")


# ---------------------------------------------------------------------------
# Concave germ extension
# ---------------------------------------------------------------------------

def extend_concave(x_switch: float, value: float, deriv: float, second: float,
                   target_slope: float, x_end: float, floor: float,
                   knots: int = 16) -> SplineC2:
    """Concave C^2 extension of a germ jet until the slope reaches a target.

    Matches ``(value, deriv, second)`` at ``x_switch`` (full C^2 contact with
    the germ), is strictly concave on ``[x_switch, x_end]``, reaches
    derivative ``target_slope`` exactly at ``x_end``, and stays above
    ``floor``.  The end value sits halfway across the feasible window
    ``(floor, tangent value)``.

    The density of ``-G''`` is a junction wedge (continuity with the germ's
    curvature) over a thin base, plus an end ramp whose width is solved in
    closed form from the moment condition.
    """
    if not x_end > x_switch:
        raise ValueError("extend_concave needs x_end > x_switch")
    if second >= 0:
        raise FeasibilityError("germ concavity", f"second={second} at x_switch")
    if target_slope >= deriv:
        raise FeasibilityError(
            "target_slope < germ slope at x_switch",
            f"target_slope={target_slope} >= deriv={deriv}")
    span = x_end - x_switch
    v_tan = value + deriv * span
    if floor >= v_tan:
        raise FeasibilityError(
            "floor below tangent value at x_end",
            f"floor={floor} >= tangent={v_tan:.6g}: floor reached before slope target")

    w0 = -second
    mass = deriv - target_slope
    v_end = floor + 0.5 * (v_tan - floor)
    moment = value + deriv * span - v_end  # = 0.5 * (v_tan - floor)

    h_d = span / 8.0
    last = None
    for _ in range(_MAX_HALVINGS + 1):
        base = min(1e-3 * mass / span, 0.5 * w0)
        wedge_mass = (w0 - base) * h_d / 2.0
        wedge_moment = (w0 - base) * (h_d / 2.0) * (span - h_d / 3.0)
        c0 = wedge_moment + base * span * span / 2.0
        m_ramp = mass - wedge_mass - base * span
        if m_ramp <= 0:
            raise FeasibilityError(
                "curvature mass", f"junction wedge already exceeds the slope drop "
                f"({wedge_mass + base * span:.3g} > {mass:.3g})")
        h_r = 3.0 * (moment - c0) / m_ramp
        # The ramp may overlap the junction wedge (densities superpose) but
        # must not reach the junction itself, or C^2 contact is lost.
        if 0.0 < h_r <= 0.98 * span:
            break
        last = h_r
        h_d *= 0.5
    else:
        raise FeasibilityError(
            "curvature placement",
            f"end ramp width {last:.3g} outside (0, {0.98 * span:.3g}] after halvings")
    H = 2.0 * m_ramp / h_r

    grid, vals = _wall_density(x_switch, x_end, h_d, h_r, base, w0 - base, H, knots)
    G = _integrate_density(grid, -vals, x_switch, value, deriv)
    diags = {
        "junction_wedge": (w0, h_d),
        "base": base,
        "ramp": (H, h_r),
        "end_value": v_end,
        "tangent_value": v_tan,
        "floor": floor,
    }
    return SplineC2(G, x_switch, x_end, -1, base, diags)
