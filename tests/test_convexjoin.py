import json
import math

import numpy as np
import pytest

from concavia import convexjoin, family, profiles
from concavia._numerics import PPoly
from concavia.atlas import default_params, validate_params
from concavia.convexjoin import (
    EndpointData,
    JoinProblem,
    SplineC2,
    extend_concave,
    feasible,
    solve,
)
from concavia.errors import CorridorViolation, FeasibilityError, Infeasible


def _dense(F, n=4001):
    return np.linspace(F.x_lo, F.x_hi, n)


# ---------------------------------------------------------------------------
# feasible
# ---------------------------------------------------------------------------

def test_feasible_symmetric_v():
    ok, diag = feasible(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1)))
    assert ok and diag["violated"] is None
    assert diag["chord"] == 0.0


def test_feasible_decreasing_derivs_convex():
    ok, diag = feasible(JoinProblem(EndpointData(0, 0, 1), EndpointData(1, 0, -1)))
    assert not ok
    assert diag["violated"] == "left.deriv < chord"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_quadratic_recoverable_case():
    # x^2 is an exact witness; the solver output must satisfy the same
    # constraints with a strictly positive second derivative.
    F = solve(JoinProblem(EndpointData(0, 0, 0), EndpointData(1, 1, 2)))
    assert F.f(0.0) == pytest.approx(0.0, abs=1e-10)
    assert F.df(0.0) == pytest.approx(0.0, abs=1e-10)
    assert F.f(1.0) == pytest.approx(1.0, abs=1e-10)
    assert F.df(1.0) == pytest.approx(2.0, abs=1e-10)
    assert F.d2f(_dense(F)).min() > 0
    assert F.margin > 0


def test_symmetric_problem_even_solution():
    F = solve(JoinProblem(EndpointData(-1, 1, -2), EndpointData(1, 1, 2)))
    xs = np.linspace(-1, 1, 2001)
    assert np.abs(F.f(xs) - F.f(-xs)).max() < 1e-9
    assert F.f(0.0) < 1.0
    assert F.d2f(xs).min() > 0


def test_endpoints_and_strict_sign_random_problems():
    rng = np.random.default_rng(2)
    for _ in range(25):
        x_l = rng.uniform(-2, 0)
        x_r = x_l + rng.uniform(0.3, 3.0)
        d_l = rng.uniform(-3, 1)
        d_r = d_l + rng.uniform(0.2, 4.0)
        chord = rng.uniform(d_l + 0.05 * (d_r - d_l), d_r - 0.05 * (d_r - d_l))
        v_l = rng.uniform(-1, 1)
        v_r = v_l + chord * (x_r - x_l)
        F = solve(JoinProblem(EndpointData(x_l, v_l, d_l), EndpointData(x_r, v_r, d_r)))
        assert F.f(x_l) == pytest.approx(v_l, abs=1e-10)
        assert F.df(x_l) == pytest.approx(d_l, abs=1e-10)
        assert F.f(x_r) == pytest.approx(v_r, abs=1e-10)
        assert F.df(x_r) == pytest.approx(d_r, abs=1e-10)
        # resampled at 10x the knot density: no sign flips
        assert F.d2f(_dense(F, 10 * 16)).min() > 0


def test_c2_at_interior_knots():
    F = solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1)), knots=16)
    h = 1e-9
    for k in F.ppoly.x[1:-1]:
        jump = abs(F.d2f(k + h) - F.d2f(k - h))
        assert jump < 1e-6


def test_determinism_bit_identical():
    p = JoinProblem(EndpointData(-1, 1, -2), EndpointData(1, 1, 2))
    F1, F2 = solve(p), solve(p)
    assert np.array_equal(F1.ppoly.c, F2.ppoly.c)
    assert np.array_equal(F1.ppoly.x, F2.ppoly.x)


def test_infeasible_named():
    with pytest.raises(Infeasible) as ei:
        solve(JoinProblem(EndpointData(0, 0, 1), EndpointData(1, 0, -1)))
    assert "left.deriv < chord" in str(ei.value)


def test_target_depth_controls_dish():
    p = JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1))
    deep = solve(p, target_depth=0.2)
    shallow = solve(p, target_depth=0.02)
    assert deep.f(0.5) < shallow.f(0.5) < 0


def test_corridor_respected():
    p = JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1), floor=-0.12)
    F = solve(p)
    assert F.f(_dense(F)).min() > -0.12


def test_corridor_impossible_reports_tightest():
    with pytest.raises(CorridorViolation) as ei:
        solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1), floor=0.05))
    assert "lower bound excludes every admissible join" in str(ei.value)
    assert "gap=0.05)" in str(ei.value)


def test_floor_just_under_the_chord_exhausts_the_halvings():
    # the chord clears the floor, so the screen passes, but the eps_mid base
    # alone sinks the middle about 2.5e-4 below the chord at every depth;
    # halving stops where the next depth would lose the end jet, and the
    # error names the last attempt that kept it, not the broken one
    with pytest.raises(CorridorViolation) as ei:
        solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1), floor=-1e-6))
    msg = str(ei.value)
    assert msg.startswith("cannot meet lower bound after 13 depth halvings (tightest at x=")
    assert msg.endswith("; the next halving misses the end jet by 1.1e-09")
    x = float(msg.split("x=")[1].split(",")[0])
    gap = float(msg.split("gap=")[1].split(")")[0])
    assert abs(x - 0.5) < 0.01
    assert -3e-4 < gap < -2.5e-4


@pytest.mark.parametrize("floor", [None, -1e-6])
def test_a_join_that_loses_its_end_jet_is_a_named_error(floor):
    # at depth 1e-10 the walls are 6.7e9 high and rounding takes F(1) to
    # -0.41 and F'(1) to -17.4; no shallower attempt came first
    p = JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1), floor=floor)
    with pytest.raises(FeasibilityError) as ei:
        solve(p, target_depth=1e-10)
    assert ei.value.constraint == "end jet"
    assert str(ei.value) == "infeasible: end jet (missed by 18.4 at depth=1e-10)"


def test_a_floor_the_join_clears_changes_no_bit():
    # a floor the solution clears is the same problem as no floor
    p = JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1))
    F, G = solve(p), solve(JoinProblem(p.left, p.right, floor=-1.0))
    assert _same_bits(F.ppoly.c, G.ppoly.c) and _same_bits(F.ppoly.x, G.ppoly.x)
    assert F.diagnostics == G.diagnostics


def test_spline_serialization_roundtrip():
    F = solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1)))
    G = SplineC2.from_dict(F.to_dict())
    xs = _dense(F)
    assert np.array_equal(F.f(xs), G.f(xs))
    assert G.second_sign == 1 and G.margin == F.margin


# ---------------------------------------------------------------------------
# extend_concave
# ---------------------------------------------------------------------------

def _germ_jet(c2=1.02, eps2=0.005, x_switch=-0.3):
    e = math.exp(2 * x_switch)
    v = math.log(c2 - eps2 * e)
    dv = -2 * eps2 * e / (c2 - eps2 * e)
    sv = -4 * eps2 * e * c2 / (c2 - eps2 * e) ** 2
    return x_switch, v, dv, sv


def test_extend_concave_defaults():
    x_s, v, dv, sv = _germ_jet()
    x_e = math.log(1 / 0.9)
    G = extend_concave(x_s, v, dv, sv, target_slope=-1.05, x_end=x_e, floor=0.0)
    # full C^2 contact with the germ at the junction
    assert G.f(x_s) == pytest.approx(v, abs=1e-12)
    assert G.df(x_s) == pytest.approx(dv, abs=1e-12)
    assert G.d2f(x_s) == pytest.approx(sv, abs=1e-12)
    # slope target reached exactly at the end
    assert G.df(x_e) == pytest.approx(-1.05, abs=1e-10)
    xs = _dense(G)
    assert G.d2f(xs).max() < 0
    assert G.f(xs).min() > 0.0  # stays above the floor


def test_extend_concave_slope_target_above_germ_slope():
    x_s, v, dv, sv = _germ_jet()
    with pytest.raises(FeasibilityError) as ei:
        extend_concave(x_s, v, dv, sv, target_slope=dv + 0.1,
                       x_end=math.log(1 / 0.9), floor=0.0)
    assert "target_slope" in str(ei.value)


def test_extend_concave_floor_at_germ_value():
    x_s, v, dv, sv = _germ_jet()
    with pytest.raises(FeasibilityError) as ei:
        extend_concave(x_s, v, dv, sv, target_slope=-1.05,
                       x_end=math.log(1 / 0.9), floor=v)
    assert "floor" in str(ei.value)


def test_extend_concave_deterministic():
    x_s, v, dv, sv = _germ_jet()
    x_e = math.log(1 / 0.9)
    G1 = extend_concave(x_s, v, dv, sv, -1.05, x_e, 0.0)
    G2 = extend_concave(x_s, v, dv, sv, -1.05, x_e, 0.0)
    assert np.array_equal(G1.ppoly.c, G2.ppoly.c)


def _wedge_and_ramp(x_switch, x_end, h_d, h_r, base, w0, H, knots):
    """The density of ``-G''`` as ``extend_concave`` built it inline before
    it called ``_wall_density``: a junction wedge from the germ's curvature
    ``w0`` down to ``base``, and an end ramp of height ``H`` (the oracle)."""
    grid = np.unique(np.concatenate([
        np.linspace(x_switch, x_end, max(4, knots)),
        np.array([x_switch + h_d, x_end - h_r]),
    ]))
    vals = np.full_like(grid, base)
    in_wedge = grid <= x_switch + h_d
    vals[in_wedge] += (w0 - base) * (1.0 - (grid[in_wedge] - x_switch) / h_d)
    in_ramp = grid >= x_end - h_r
    vals[in_ramp] += H * (1.0 - (x_end - grid[in_ramp]) / h_r)
    return grid, vals


def _assert_density_matches_the_oracle(G, value, deriv, knots):
    (w0, h_d), base, (H, h_r) = (G.diagnostics[k] for k in ("junction_wedge", "base", "ramp"))
    grid, vals = convexjoin._wall_density(G.x_lo, G.x_hi, h_d, h_r, base, w0 - base, H, knots)
    ref_grid, ref_vals = _wedge_and_ramp(G.x_lo, G.x_hi, h_d, h_r, base, w0, H, knots)
    assert _same_bits(grid, ref_grid) and _same_bits(vals, ref_vals)
    ref = convexjoin._integrate_density(ref_grid, -ref_vals, G.x_lo, value, deriv)
    assert _same_bits(G.ppoly.c, ref.c) and _same_bits(G.ppoly.x, ref.x)


_PERTURBED = {
    "rho0": 0.9, "rho1": 0.92, "rho2": 1.04, "s": 1.12, "c": 0.91,
    "eps": 0.007, "c1": 1.035, "c2": 1.02, "zeta1": 1.032, "zeta2": 1.034,
}


@pytest.mark.parametrize("params", ["default", "perturbed"])
def test_wall_density_is_the_f2_wedge_and_ramp(params, monkeypatch):
    par = default_params() if params == "default" else validate_params(_PERTURBED)
    calls = []

    def recording(*args, **kwargs):
        G = extend_concave(*args, **kwargs)
        calls.append((G, args[1], args[2], kwargs["knots"]))
        return G

    monkeypatch.setattr(profiles, "extend_concave", recording)
    family.build_M1(par)
    assert len(calls) == 1
    _assert_density_matches_the_oracle(*calls[0])


def test_wall_density_is_the_wedge_and_ramp_on_random_germs():
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(60):
        x_s, v, dv, sv = _germ_jet(c2=rng.uniform(1.005, 1.05), eps2=rng.uniform(1e-3, 0.03),
                                   x_switch=rng.uniform(-0.8, -0.05))
        knots = int(rng.integers(2, 33))
        try:
            G = extend_concave(x_s, v, dv, sv, rng.uniform(-1.5, -1.01),
                               math.log(1 / rng.uniform(0.8, 0.97)), 0.0, knots=knots)
        except FeasibilityError:
            continue
        _assert_density_matches_the_oracle(G, v, dv, knots)
        solved += 1
    assert solved >= 30


# ---------------------------------------------------------------------------
# PPoly against scipy.interpolate.PPoly, the reference it reproduces
# ---------------------------------------------------------------------------

def _same_bits(ours, ref):
    return np.asarray(ours, float).tobytes() == np.asarray(ref, float).tobytes()


def _scipy_integrate_density(breaks, values, x_lo, v_lo, d_lo):
    """``_integrate_density`` as computed with scipy's PPoly (the oracle)."""
    sp = pytest.importorskip("scipy.interpolate")
    slopes = np.diff(values) / np.diff(breaks)
    F = sp.PPoly(np.vstack([slopes, values[:-1]]), breaks).antiderivative(2)
    F.c[-1, :] += v_lo + d_lo * (breaks[:-1] - x_lo)
    F.c[-2, :] += d_lo
    return F


def _probes(x, rng, n=60):
    """Breakpoints (the right end included), points inside and outside the
    domain, infinities and NaN of either sign."""
    span = x[-1] - x[0]
    return np.concatenate([x, rng.uniform(x[0] - 0.2 * span, x[-1] + 0.2 * span, n),
                           [np.nan, -np.nan, np.inf, -np.inf]])


def _assert_matches_scipy(ours: PPoly, ref, rng):
    assert _same_bits(ours.x, ref.x)
    pairs = [(ours, ref)] + [(ours.derivative(nu), ref.derivative(nu)) for nu in (1, 2)]
    for P, R in pairs:
        assert _same_bits(P.c, R.c)
        v = _probes(ours.x, rng)
        with np.errstate(invalid="ignore"):
            assert _same_bits(P(v), R(v))
            assert _same_bits(P(v.reshape(-1, 1)), R(v.reshape(-1, 1)))
            for t in v[::3]:
                out = P(t)
                assert isinstance(out, float)
                assert _same_bits(out, R(t))


def test_ppoly_matches_scipy_on_random_densities():
    rng = np.random.default_rng(20171120)
    for _ in range(150):
        lo = rng.uniform(-3.0, 1.0)
        hi = lo + rng.uniform(0.05, 4.0)
        breaks = np.unique(np.concatenate([
            np.linspace(lo, hi, rng.integers(2, 24)), rng.uniform(lo, hi, 2)]))
        values = rng.uniform(1e-4, 50.0, breaks.size) * rng.choice([-1.0, 1.0])
        jet = (breaks[0], rng.normal(), rng.normal())
        ours = convexjoin._integrate_density(breaks, values, *jet)
        _assert_matches_scipy(ours, _scipy_integrate_density(breaks, values, *jet), rng)
    # coefficients as given: a constant piece among cubic ones, where 0 * inf
    # makes an infinite abscissa NaN, and a piece of negative zeros, which
    # scipy's sum from 0.0 evaluates to +0.0; probed at NaN, +-inf, the
    # breakpoints and the floats beside them
    sp = pytest.importorskip("scipy.interpolate")
    for k in (1, 2, 4):
        for _ in range(20):
            x = np.unique(rng.uniform(-2.0, 2.0, rng.integers(3, 9)))
            c = rng.normal(size=(k, x.size - 1))
            j = rng.permutation(x.size - 1)
            c[:-1, j[0]] = 0.0
            c[:, j[-1]] = -0.0
            ours, ref = PPoly(c, x), sp.PPoly(c, x)
            _assert_matches_scipy(ours, ref, rng)
            v = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                                [np.nan, np.inf, -np.inf]])
            with np.errstate(invalid="ignore"):
                assert _same_bits(ours(v), ref(v))


def test_ppoly_matches_scipy_on_the_model_splines(monkeypatch):
    sp = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(3)
    calls = []
    real = convexjoin._integrate_density

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(convexjoin, "_integrate_density", recording)
    model = family.build_M1(default_params())
    assert len(calls) >= 2   # the f2 extension and the dome join at least
    for args in calls:
        _assert_matches_scipy(real(*args), _scipy_integrate_density(*args), rng)
    # the dome as shipped
    dome = model.htilde.ppoly
    _assert_matches_scipy(dome, sp.PPoly(np.array(dome.c), np.array(dome.x)), rng)


def test_ppoly_is_immutable():
    F = solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1)))
    with pytest.raises(ValueError):
        F.ppoly.c[-1, 0] += 1.0
    with pytest.raises(ValueError):
        F.ppoly.x[0] = -1.0


def test_ppoly_rejects_bad_breakpoints():
    with pytest.raises(ValueError, match="strictly increasing"):
        PPoly(np.ones((4, 2)), [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        PPoly(np.ones((4, 3)), [0.0, 1.0, 2.0])


def test_spline_dict_round_trip_is_bit_identical():
    for F in (solve(JoinProblem(EndpointData(-1, 1, -2), EndpointData(1, 1, 2))),
              extend_concave(*_germ_jet(), -1.05, math.log(1 / 0.9), 0.0)):
        G = SplineC2.from_dict(json.loads(json.dumps(F.to_dict())))
        xs = np.concatenate([F.ppoly.x, _dense(F, 257)])
        for name in ("f", "df", "d2f"):
            assert _same_bits(getattr(F, name)(xs), getattr(G, name)(xs))
            assert all(_same_bits(getattr(F, name)(x), getattr(G, name)(x)) for x in xs[::16])
