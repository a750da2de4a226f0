import functools
import math

import numpy as np
import pytest

from concavia import _numerics
from concavia._numerics import brentq
from concavia.atlas import default_params
from concavia.convexjoin import SplineC2
from concavia.errors import BranchError, DomainError, FeasibilityError
from concavia.profiles import (
    ContactTag,
    Profile,
    _quad_log_germ,
    classify_contact,
    eval_profile,
    make_f1,
    make_f2,
    pushforward_h1,
    pushforward_h2,
    second_derivative_identity_check,
)


@pytest.fixture(scope="module")
def P():
    return default_params()


def _affine(k):
    return Profile.from_callables(
        -3, 3,
        lambda x: k * np.asarray(x, float),
        lambda x: k + 0.0 * np.asarray(x, float),
        lambda x: 0.0 * np.asarray(x, float))


def _exp_profile():
    # L(x) = e^{2x}/2: L' = e^{2x}, L'' = 2 e^{2x} > 0
    return Profile.from_callables(
        -2, 2,
        lambda x: np.exp(2 * np.asarray(x, float)) / 2,
        lambda x: np.exp(2 * np.asarray(x, float)),
        lambda x: 2 * np.exp(2 * np.asarray(x, float)))


def _neg_square():
    return Profile.from_callables(
        -2, 2,
        lambda x: -np.asarray(x, float) ** 2,
        lambda x: -2 * np.asarray(x, float),
        lambda x: -2.0 + 0.0 * np.asarray(x, float))


@pytest.fixture(scope="module")
def f1(P):
    return make_f1(P, 0.004)


@pytest.fixture(scope="module")
def f2(P):
    return make_f2(P, 0.005)


@pytest.fixture(scope="module")
def h1(f1):
    return pushforward_h1(f1)


@pytest.fixture(scope="module")
def h2(f2):
    return pushforward_h2(f2)


# ---------------------------------------------------------------------------
# Pointwise calculus
# ---------------------------------------------------------------------------

def test_eval_r_squared():
    assert eval_profile(_affine(2), 3.0) == pytest.approx((9, 6, 2), abs=1e-12)


def test_eval_identity_profile():
    v, d1, d2 = eval_profile(_affine(1), 1.7)
    assert d1 == pytest.approx(1.0, abs=1e-12)
    assert d2 == pytest.approx(0.0, abs=1e-12)


def test_eval_exp_profile_fd_oracle():
    p = _exp_profile()
    v, d1, d2 = eval_profile(p, 1.0)
    assert v == pytest.approx(math.exp(0.5), rel=1e-12)
    h = 1e-5
    pf = lambda r: math.exp(p.L(math.log(r)))
    fd1 = (pf(1 + h) - pf(1 - h)) / (2 * h)
    fd2 = (pf(1 + h) - 2 * pf(1.0) + pf(1 - h)) / h**2
    assert abs(d1 - fd1) / abs(d1) < 1e-6
    assert abs(d2 - fd2) / abs(d2) < 1e-4


def test_eval_domain_error():
    with pytest.raises(DomainError):
        eval_profile(_affine(1), math.exp(5.0))


def test_domain_check_passes_nan_but_not_a_point_beside_it():
    p = _affine(1)
    for x in (math.nan, np.array([]), np.array([[np.nan, 1.0], [2.0, np.nan]])):
        assert np.array_equal(p.L(x), x, equal_nan=True)
    for x in (3.1, -math.inf, np.array([np.nan, 4.0]), np.array([[np.nan], [-4.0]])):
        with pytest.raises(DomainError):
            p.L(x)


def test_second_derivative_identity_levi_flat():
    cert = second_derivative_identity_check(_affine(2), np.linspace(-1, 1, 64))
    assert cert.passed and cert.details.get("note") == "LeviFlat"


def test_second_derivative_identity_curved():
    for prof in (_exp_profile(), _neg_square()):
        cert = second_derivative_identity_check(prof, np.linspace(-1, 1, 64))
        assert cert.passed and cert.margin > 0


def test_classify_contact_tags():
    g = np.linspace(-1, 1, 64)
    assert classify_contact(_affine(3), g).tag is ContactTag.LeviFlat
    assert classify_contact(_exp_profile(), g).tag is ContactTag.NegativeContact
    assert classify_contact(_neg_square(), g).tag is ContactTag.PositiveContact
    wobble = Profile.from_callables(
        -2, 2,
        lambda x: np.sin(np.asarray(x, float)),
        lambda x: np.cos(np.asarray(x, float)),
        lambda x: -np.sin(np.asarray(x, float)))
    assert classify_contact(wobble, g).tag is ContactTag.Indefinite


def test_classify_contact_needs_32_points():
    with pytest.raises(ValueError):
        classify_contact(_affine(1), np.linspace(-1, 1, 8))


# ---------------------------------------------------------------------------
# Model curves
# ---------------------------------------------------------------------------

def test_f1_conditions(P, f1):
    top = math.exp(f1.L(f1.x_hi))
    assert top == pytest.approx(1.0449382716049382, rel=1e-12)
    assert top < P.rho2
    conds = f1.meta["conditions"]
    assert conds["log_convexity_margin"] > 0
    assert conds["end_slope"] > 0
    # full-domain grid: strict convexity and positive end slope
    xs = f1.grid(512)
    assert np.min(f1.d2L(xs)) > 0


def test_f1_range_infeasible(P):
    with pytest.raises(FeasibilityError):
        make_f1(P, 0.01)  # 1.04 + 0.01/0.81 > 1.05


def test_f2_conditions(P, f2):
    # germ shape near the binding: f2 ~ c2 - eps2 |z2|^2
    x = -6.0
    assert math.exp(f2.L(x)) == pytest.approx(P.c2 - 0.005 * math.exp(2 * x), rel=1e-12)
    # end slope below -1 with margin (defaults give exactly -1.05)
    end = f2.dL(f2.x_hi)
    assert end == pytest.approx(-1.05, abs=1e-9)
    assert -1.0 - end >= 0.05 - 1e-12
    # strictly concave; values in (1, rho2)
    xs = f2.grid(512)
    assert np.max(f2.d2L(xs)) < 0
    vals = np.exp(f2.L(xs))
    assert vals.min() > 1.0 and vals.max() < P.rho2


def test_f2_scalar_path_is_bit_identical_to_arrays(f2):
    # a Python float skips the 0-d array; its value must not move by a bit
    x_sw = f2.meta["x_switch"]
    for x in (x_sw - 0.25, np.nextafter(x_sw, -np.inf), x_sw,
              np.nextafter(x_sw, np.inf), x_sw + 0.25):
        for fn in (f2.L, f2.dL, f2.d2L):
            one = np.float64(fn(float(x)))
            assert one.tobytes() == np.float64(fn(np.asarray(x))).tobytes()
            assert one.tobytes() == fn(np.array([x]))[0].tobytes()


def test_f2_dispatch_matches_the_masked_path(f2):
    # every array split by the x_switch mask, germ and spline evaluated on
    # their parts: the reference for the one-sided shortcut
    meta = f2.meta["params"]
    germ = _quad_log_germ(meta["c2"], meta["eps2"], -1)
    spline = SplineC2.from_dict(f2.meta["spline"])
    x_sw = meta["x_switch"]

    def masked(g, s, x):
        out = np.empty_like(x)
        m = x <= x_sw
        out[m] = g(x[m])
        out[~m] = s(x[~m])
        return out

    below = np.linspace(f2.x_lo, x_sw, 33)
    above = np.linspace(np.nextafter(x_sw, np.inf), f2.x_hi, 33)
    mixed = np.linspace(f2.x_lo, f2.x_hi, 65)
    inputs = [below, above, mixed, np.full(3, x_sw), np.array([x_sw]),
              np.array([np.nextafter(x_sw, np.inf)]), np.array([np.nan]),
              np.array([x_sw - 0.1, np.nan]), below.reshape(3, 11), above.reshape(11, 3),
              mixed[:64].reshape(8, 8), mixed[:64].reshape(8, 8).T, np.empty(0)]
    for fn, g, s in zip((f2.L_fn, f2.dL_fn, f2.d2L_fn), germ, (spline.f, spline.df, spline.d2f)):
        for x in inputs:
            out = fn(x)
            assert (out.dtype, out.shape) == (np.float64, x.shape)
            assert out.tobytes() == masked(g, s, x).tobytes()
        for x in (x_sw - 0.1, x_sw, np.nextafter(x_sw, np.inf), x_sw + 0.1):
            ref = g(x) if x <= x_sw else s(x)
            assert np.float64(fn(np.asarray(x))).tobytes() == np.float64(ref).tobytes()


def test_germ_curvature_scalar_calls_match_arrays(f1, f2):
    # the germs square c + sgn e by a product: a float64 scalar's ** goes
    # through pow, which differed from the array's product on 20 (f1) and 16
    # (f2) of these abscissas
    for prof in (f1, f2):
        xs = np.linspace(prof.x_lo, prof.x_hi, 20001)
        one = np.array([float(prof.d2L(x)) for x in xs.tolist()])
        assert one.tobytes() == prof.d2L(xs).tobytes()


def test_f2_c2_contact_at_switch(f2):
    x_sw = f2.meta["x_switch"]
    h = 1e-9
    for fn in (f2.L, f2.dL, f2.d2L):
        assert abs(fn(x_sw + h) - fn(x_sw - h)) < 1e-7


def test_f2_classification(f2):
    assert classify_contact(f2, f2.grid(256, 1e-9)).tag is ContactTag.PositiveContact


def _smooth_fd_grid(prof, h):
    """Sample points at least 4h away from any spline breakpoint.

    Central differences only see the advertised order where the profile is
    C^3; at spline knots the third derivative jumps, so the sweep checks
    between knots (plus the closed-form germ region).
    """
    xs = prof.grid(64, margin=4 * h)
    if "spline" in prof.meta:
        breaks = np.asarray(prof.meta["spline"]["breakpoints"], dtype=float)
        dist = np.abs(xs[:, None] - breaks[None, :]).min(axis=1)
        xs = xs[dist > 4 * h]
    return xs


def test_fd_derivative_oracles(f1, f2, h1, h2):
    # L' is differenced from L, and L'' from the L' oracle (a direct second
    # difference of L sits under the float noise floor for these gently
    # curved germs).  Steps shrink for the steep pushforward profiles, whose
    # third derivatives grow near the seam.
    cases = [(f1, 1e-5), (f2, 1e-5), (h1, 3e-8), (h2, 1e-9)]
    for prof, h in cases:
        if prof is h2:
            # stay on the gentle part of the thin branch; the steep end is
            # covered by the parametric slope-formula test instead
            w = h2.x_hi - h2.x_lo
            xs = np.linspace(h2.x_lo + 0.02 * w, h2.x_lo + 0.6 * w, 48)
        else:
            xs = _smooth_fd_grid(prof, h)
        assert xs.size > 16
        fd1 = (prof.L(xs + h) - prof.L(xs - h)) / (2 * h)
        fd2 = (prof.dL(xs + h) - prof.dL(xs - h)) / (2 * h)
        e1 = np.abs(fd1 - prof.dL(xs)) / np.maximum(1e-3, np.abs(prof.dL(xs)))
        e2 = np.abs(fd2 - prof.d2L(xs)) / np.maximum(1e-3, np.abs(prof.d2L(xs)))
        assert e1.max() < 1e-6, prof.meta.get("kind")
        assert e2.max() < 1e-4, prof.meta.get("kind")


def test_identity_check_on_shipped_profiles(f1, f2, h1, h2):
    for prof in (f1, f2, h1, h2):
        w = prof.x_hi - prof.x_lo
        cert = second_derivative_identity_check(prof, prof.grid(128, 1e-4 * w))
        assert cert.passed, cert.to_dict()


# ---------------------------------------------------------------------------
# Pushforwards
# ---------------------------------------------------------------------------

def test_h1_closed_form_oracle(P, h1):
    # For the pure quadratic curve the inverse has the closed form
    # Lh1(X) = -(1/2) log((e^X - c1)/eps1).
    xs = np.linspace(h1.x_lo + 1e-9, h1.x_hi - 1e-9, 50)
    closed = -0.5 * np.log((np.exp(xs) - P.c1) / 0.004)
    assert np.abs(h1.L(xs) - closed).max() < 1e-10


def test_h1_endpoint_frozen_values(h1):
    assert h1.x_hi == pytest.approx(0.04395781343755045, abs=1e-12)
    assert h1.dL(h1.x_hi) == pytest.approx(-105.8, rel=1e-9)


def test_h1_round_trip(f1, h1):
    ys = np.linspace(-1.9, f1.x_hi, 100)
    back = h1.L(f1.L(ys))   # log|w2| = Lh1(log|w1|) should be -y
    assert np.abs(back - (-ys)).max() < 1e-8


def test_h1_signs(h1):
    xs = np.linspace(h1.x_lo + 1e-9, h1.x_hi - 1e-9, 64)
    assert h1.dL(h1.x_hi) < 0          # negative slope at the seam radius
    assert h1.d2L(xs).min() > 0        # convex


def test_h1_not_invertible_raises(P):
    flat = Profile.from_callables(
        -1, 1,
        lambda x: 0.0 * np.asarray(x, float),
        lambda x: 0.0 * np.asarray(x, float),
        lambda x: 0.0 * np.asarray(x, float))
    with pytest.raises(DomainError):
        pushforward_h1(flat, y_lo=-1.0)


def test_h2_frozen_values(h2):
    assert h2.x_lo == pytest.approx(0.11282142604336572, abs=1e-12)
    assert h2.dL(h2.x_lo) == pytest.approx(20.0, rel=1e-9)


def test_h2_slope_formula(f2, h2):
    # Lh2' = -1/(L2' + 1), checked at 50 samples along the branch.
    y_lo, y_hi = h2.meta["branch"]
    ys = np.linspace(y_lo + 1e-9, y_hi, 50)
    X = f2.L(ys) + ys
    want = -1.0 / (f2.dL(ys) + 1.0)
    got = h2.dL(X)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_h2_second_derivative_sign(f2, h2):
    xs = np.linspace(h2.x_lo + 1e-12, h2.x_hi - 1e-12, 50)
    assert h2.d2L(xs).min() > 0
    # formula: Lh2'' = L2''/(L2'+1)^3 with L2''<0 and L2'<-1 gives positive
    y = 0.5 * sum(h2.meta["branch"])
    want = f2.d2L(y) / (f2.dL(y) + 1.0) ** 3
    got = h2.d2L(f2.L(y) + y)
    assert got == pytest.approx(want, rel=1e-6)
    assert want > 0


def test_h2_round_trip(f2, h2):
    y_lo, _ = h2.meta["branch"]
    ys = np.linspace(y_lo + 1e-9, f2.x_hi, 100)
    X = f2.L(ys) + ys
    assert np.abs(h2.L(X) - (-ys)).max() < 1e-8


def test_h2_branch_error(f2):
    with pytest.raises(BranchError):
        pushforward_h2(f2, branch_margin=0.06)  # end slope is only -1.05


def test_profile_serialization(f2):
    blob = f2.to_dict()
    assert blob["kind"] == "f2"
    assert "spline" in blob and "coefficients" in blob["spline"]
    assert blob["x_switch"] == -0.3


# ---------------------------------------------------------------------------
# brentq against scipy.optimize.brentq, the reference it reproduces
# ---------------------------------------------------------------------------

def _solve_both(f, a, b, **kw):
    opt = pytest.importorskip("scipy.optimize")
    ours, ref = brentq(f, a, b, **kw), opt.brentq(f, a, b, **kw)
    assert isinstance(ours, float)
    assert np.float64(ours).tobytes() == np.float64(ref).tobytes(), (a, b, kw)
    return ours


@pytest.mark.parametrize("xtol", [1e-14, 2e-12])
def test_brentq_matches_scipy_on_the_profile_inversions(f1, f2, xtol):
    y_lo, y_hi = -2.0, f1.x_hi
    for t in np.linspace(float(f1.L(y_lo)), float(f1.L(y_hi)), 97)[1:-1]:
        _solve_both(lambda y: f1.L(y) - t, y_lo, y_hi, xtol=xtol)
    for m in (1e-3, 0.02, 0.04):
        _solve_both(lambda y: float(f2.dL(y)) + 1.0 + m, f2.x_lo, f2.x_hi, xtol=xtol)


@pytest.mark.parametrize("xtol", [1e-14, 2e-12])
def test_brentq_matches_scipy_on_random_brackets(xtol):
    rng = np.random.default_rng(1973)
    for _ in range(300):
        r, k, w = rng.uniform(-2, 2), rng.uniform(0.1, 30), rng.uniform(-3, 3)
        a, b = r - rng.uniform(1e-3, 3), r + rng.uniform(1e-3, 3)
        kind = rng.integers(3)
        if kind == 0:
            f = lambda x: math.tanh(k * (x - r)) + 0.1 * abs(w) * (x - r) ** 3  # noqa: E731
        elif kind == 1:
            f = lambda x: math.expm1(k * (x - r)) * (1 + 0.5 * math.sin(w * x) ** 2)  # noqa: E731
        else:
            f = lambda x: (x - r) ** 3 + w * w * (x - r)  # noqa: E731
        _solve_both(f, a, b, xtol=xtol)


def test_brentq_errors_match_scipy(monkeypatch):
    opt = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(_numerics, "_MAXITER", 3)
    for solver in (brentq, functools.partial(opt.brentq, maxiter=3)):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0, xtol=2e-12)
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, xtol=2e-12)
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            solver(lambda x: math.atan(50.0 * x) - 0.4, -1.0, 1.0, xtol=2e-12)
    assert brentq(lambda x: x, 0.0, 1.0, xtol=2e-12) == 0.0
