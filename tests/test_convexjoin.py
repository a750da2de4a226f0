import json
import math

import numpy as np
import pytest

from concavia import convexjoin, family
from concavia._numerics import PPoly
from concavia.atlas import default_params
from concavia.convexjoin import (
    EndpointData,
    JoinProblem,
    Sign,
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


def test_feasible_concave_mirror():
    ok, _ = feasible(JoinProblem(EndpointData(0, 0, 1), EndpointData(1, 0, -1), Sign.CONCAVE))
    assert ok
    ok, diag = feasible(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1), Sign.CONCAVE))
    assert not ok and diag["violated"] == "chord < left.deriv"


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


def test_concave_solve_mirrors():
    F = solve(JoinProblem(EndpointData(0, 0, 1), EndpointData(1, 0, -1), Sign.CONCAVE))
    assert F.second_sign == -1
    assert F.df(0.0) == pytest.approx(1.0, abs=1e-10)
    assert F.df(1.0) == pytest.approx(-1.0, abs=1e-10)
    xs = _dense(F)
    assert F.d2f(xs).max() < 0
    assert F.f(xs).max() > 0  # bulges above the chord


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
    p = JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1),
                    bounds=(lambda x: -0.12, None))
    F = solve(p)
    assert F.f(_dense(F)).min() > -0.12


def test_corridor_impossible_reports_tightest():
    with pytest.raises(CorridorViolation) as ei:
        solve(JoinProblem(EndpointData(0, 0, -1), EndpointData(1, 0, 1),
                          bounds=(lambda x: 0.05, None)))
    assert "lower bound" in str(ei.value)
    # concave mirror: an upper bound below the chord is equally impossible
    with pytest.raises(CorridorViolation) as ei:
        solve(JoinProblem(EndpointData(0, 0, 1), EndpointData(1, 0, -1), Sign.CONCAVE,
                          bounds=(None, lambda x: -0.05)))
    assert "upper bound" in str(ei.value)


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
    # the dome as shipped: mirrored through negation by the concave solve
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
