import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from concavia import commands
from concavia.atlas import (
    Chart,
    ChartPoint,
    DEFAULT_PARAM_VALUES,
    canonical_rep,
    default_params,
    in_complement_C,
    map_Phi,
    map_psi,
    phi,
    same_point,
    validate_params,
)
from concavia.errors import ChainViolation, ConfigError, DomainError


@pytest.fixture(scope="module")
def P():
    return default_params()


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

def test_derived_radii(P):
    assert P.a == pytest.approx(1.04, abs=1e-15)
    assert P.b == pytest.approx(1.1335955056179775, abs=1e-12)


def test_params_json_roundtrip(P):
    blob = json.loads(json.dumps(P.to_dict()))
    assert blob["validated"] is True
    assert blob["a"] == P.a and blob["b"] == P.b
    again = validate_params(blob)
    assert again == P


def test_chain_first_violation_named():
    bad = dict(DEFAULT_PARAM_VALUES)
    bad["rho2"] = 0.97  # breaks the very first inequality
    with pytest.raises(ChainViolation) as ei:
        validate_params(bad)
    assert ei.value.constraint == "1 < rho2"

    bad = dict(DEFAULT_PARAM_VALUES)
    bad["rho2"] = 1.2  # 1 < rho2 holds but rho2 < 1/rho1 fails first
    with pytest.raises(ChainViolation) as ei:
        validate_params(bad)
    assert ei.value.constraint == "rho2 < 1/rho1"

    bad = dict(DEFAULT_PARAM_VALUES)
    bad["eps"] = 0.2
    with pytest.raises(ChainViolation) as ei:
        validate_params(bad)
    assert ei.value.constraint == "eps < (rho0 - rho1/rho2)/2"

    bad = dict(DEFAULT_PARAM_VALUES)
    bad["zeta1"] = 1.02
    with pytest.raises(ChainViolation) as ei:
        validate_params(bad)
    assert ei.value.constraint == "s*rho1 < zeta1"


def test_params_rejects_garbage():
    with pytest.raises(ConfigError):
        validate_params({k: v for k, v in DEFAULT_PARAM_VALUES.items() if k != "s"})
    bad = dict(DEFAULT_PARAM_VALUES)
    bad["c"] = float("nan")
    with pytest.raises(ConfigError):
        validate_params(bad)


def _orbit_gaps(par, k_range=8):
    """Gaps between the page annulus ``[a, b]`` and its scalings by ``lam^k``,
    ``0 < |k| <= k_range``, over 64 moduli ``lam in [c, rho1]``: ``k > 0``
    moves it below ``[a, b]`` (gap ``a - lam^k b``), ``k < 0`` above it (gap
    ``a / lam^|k| - b``)."""
    lam = np.linspace(par.c, par.rho1, 64)[:, None]
    k = np.arange(1, k_range + 1)
    return np.concatenate([par.a - lam ** k * par.b, par.a / lam ** k - par.b], axis=1)


def test_disjointness_margins(P):
    # The two collar inequalities, with the concrete margins at defaults.
    assert P.a - P.rho1 * P.b == pytest.approx(0.019764, abs=1e-5)
    assert P.a / P.rho1 - P.b == pytest.approx(0.021960, abs=1e-5)
    # the page misses its lambda-orbit, nearest at k = 1, |lam| = rho1
    assert _orbit_gaps(P).min() == P.a - P.rho1 * P.b


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def test_phi_closed_form_value():
    # phi(e^-1, 0) = e^{1/2} * exp(-i/(4*pi))
    got = phi(math.exp(-1.0), 0)
    want = math.exp(0.5) * cmath.exp(-1j / (4 * math.pi))
    assert abs(got - want) < 1e-14
    assert abs(got - (1.6435037002521056 - 0.1310626404307579j)) < 1e-12


def test_phi_branch_law():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.uniform(0.2, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        for k in (-3, -2, -1, 1, 2, 3):
            assert abs(phi(w, k) - w ** k * phi(w, 0)) < 1e-12 * abs(phi(w, k))


def test_phi_vectorized_matches_scalar():
    w = np.array([0.5, 0.9j, -0.3 + 0.2j, 0.88])
    out = phi(w, 1)
    for wi, oi in zip(w, out):
        assert abs(oi - phi(complex(wi), 1)) < 1e-14


def test_phi_rejects_zero():
    with pytest.raises(DomainError):
        phi(0.0)


# ---------------------------------------------------------------------------
# Integer action and canonical representatives
# ---------------------------------------------------------------------------

def test_canonical_rep_frozen_examples():
    # (8, 0.5): u = log 8 / log 2 = 3, band shift n = 3, 8 * 0.5^3 = 1.
    assert canonical_rep(8.0, 0.5) == (1.0, 0.5, 3)
    # (0.3, 0.9): n = -11 and |w1'| = 0.3 * 0.9^-11 = e^{-0.045005...}
    w1n, w2n, n = canonical_rep(0.3, 0.9)
    assert n == -11 and w2n == 0.9
    assert w1n == pytest.approx(0.9559906635974802, abs=1e-14)


def test_canonical_rep_band_and_idempotence():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r2 = rng.uniform(0.3, 0.9)
        w2 = r2 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        w1 = rng.uniform(0.05, 20.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        w1c, w2c, n = canonical_rep(w1, w2)
        assert math.sqrt(r2) <= abs(w1c) < 1.0 / math.sqrt(r2) * (1 + 1e-12)
        # idempotent
        w1cc, _, n2 = canonical_rep(w1c, w2c)
        assert n2 == 0 and w1cc == w1c
        # brute-force oracle: the chosen shift is the only one in the band
        hits = [m for m in range(-40, 41)
                if math.sqrt(r2) <= abs(w1 * w2 ** m) < 1.0 / math.sqrt(r2)]
        assert hits == [n]


def test_canonical_rep_arrays_match_scalar_calls():
    rng = np.random.default_rng(19)
    w2 = rng.uniform(0.3, 0.9, 200) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    w1 = rng.uniform(0.05, 20.0, 200) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    c, w, n = canonical_rep(w1, w2)
    for i in range(200):
        ci, wi, ni = canonical_rep(complex(w1[i]), complex(w2[i]))
        assert (type(ci), type(wi), type(ni)) == (complex, complex, int)
        assert ni == n[i] and wi == w[i]
        assert abs(ci - c[i]) <= 1e-15 * abs(ci)


def test_canonical_rep_names_the_bad_sample():
    w2 = np.full(5, 0.5 + 0j)
    w2[2] = 1.5
    with pytest.raises(DomainError, match="at sample 2, got 1.5"):
        canonical_rep(np.ones(5), w2)
    with pytest.raises(DomainError, match="at sample 1"):
        canonical_rep(np.array([1.0, 0.0]), 0.5)
    with pytest.raises(DomainError, match="orbit shift"):
        canonical_rep(1e300, 0.5)


def _lerp(lo, hi, f):
    return lo + f * (hi - lo)


@given(st.lists(st.floats(0.01, 0.99), min_size=10, max_size=10))
# 1/rho0 - 1/rho1 = 6.9e-4, where the atlas suite's radial grid once left
# map_Phi's domain
@example([0.9375, 0.0625, 0.75, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
def test_the_chain_certificates_are_the_page_inequalities(f):
    # each field drawn inside the interval that the chain leaves it; a draw
    # that rounding pushes out of the chain is rejected
    rho1 = _lerp(0.5, 0.99, f[0])
    rho2 = _lerp(1.0, 1.0 / rho1, f[1])
    rho0 = _lerp(rho1 / rho2, rho1, f[2])
    s = _lerp(1.0 / rho0, rho2 / rho1, f[3])
    zeta1 = _lerp(s * rho1, rho2, f[8])
    try:
        par = validate_params({
            "rho0": rho0, "rho1": rho1, "rho2": rho2, "s": s,
            "c": _lerp(rho0, rho1, f[4]), "eps": _lerp(0.0, 0.5 * (rho0 - rho1 / rho2), f[5]),
            "c2": _lerp(1.0, s * rho1, f[6]), "c1": _lerp(s * rho1, rho2, f[7]),
            "zeta1": zeta1, "zeta2": _lerp(zeta1, rho2, f[9])})
    except ChainViolation:
        reject()
    # the page's lambda-orbit clears it by exactly the two page inequalities
    # that validate_params enforces, so the orbit needs no certificate
    want = min(par.a - par.rho1 * par.b, par.a / par.rho1 - par.b)
    assert want > 0
    assert _orbit_gaps(par).min() == want


def test_phi_branch_law_calls_phi_once_per_branch(monkeypatch):
    from concavia import commands
    calls = []

    def counted(w, k=0):
        calls.append((np.shape(w), k))
        return phi(w, k)

    monkeypatch.setattr(commands, "phi", counted)
    certs = commands._suite_atlas(default_params())
    assert certs["phi_branch_law"].passed
    assert calls == [((120,), k) for k in (0, -3, -2, -1, 1, 2, 3)]


# ---------------------------------------------------------------------------
# Chart membership
# ---------------------------------------------------------------------------

def test_chart_validation(P):
    ChartPoint.v(P, 1.02, 0.0)  # z2 = 0 allowed in V
    with pytest.raises(DomainError):
        ChartPoint.v(P, 0.99, 0.2)
    with pytest.raises(DomainError):
        ChartPoint.v(P, 1.02, 1.2)  # |z2| >= 1/rho0
    with pytest.raises(DomainError):
        ChartPoint.v_prime(P, 1.02, 0.5)  # |z2| too small for the strip
    with pytest.raises(DomainError):
        ChartPoint.w(P, 1.0, 0.95)  # |w2| >= rho1


def test_w_chart_auto_canonicalizes(P):
    q = ChartPoint.w(P, 123.0, 0.89)
    assert abs(q.z1) < 1.0 / math.sqrt(0.89)
    assert abs(q.z1) >= math.sqrt(0.89)


# ---------------------------------------------------------------------------
# Transitions and point identity
# ---------------------------------------------------------------------------

def test_map_Phi_branch_independent(P):
    rng = np.random.default_rng(3)
    for _ in range(40):
        z1 = rng.uniform(1.001, P.s - 1e-3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = rng.uniform(1 / P.rho1 + 1e-3, 1 / P.rho0 - 1e-3) \
            * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        base = map_Phi(P, z1, z2, 0)
        for k in (-2, -1, 1, 2):
            assert same_point(P, base, map_Phi(P, z1, z2, k))


def _gluing_points(P, n, seed):
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(1.001, P.s - 1e-3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    z2 = rng.uniform(1 / P.rho1 + 1e-3, 1 / P.rho0 - 1e-3, n) \
        * np.exp(2j * np.pi * rng.uniform(size=n))
    return z1, z2


def test_map_Phi_arrays_match_scalar_calls(P):
    z1, z2 = _gluing_points(P, 200, 23)
    for k in (-2, -1, 0, 1, 2):
        arr = map_Phi(P, z1, z2, k)
        assert arr.chart is Chart.W_ANNULUS
        for i, (a, b) in enumerate(zip(z1.tolist(), z2.tolist())):
            one = map_Phi(P, a, b, k)
            assert (type(one.z1), type(one.z2)) == (complex, complex)
            # numpy's complex division may round 1/z2 an ulp away from
            # Python's; phi's exponent, up to about 15 in modulus for
            # |k| <= 2, carries that and its own rounding through exp
            assert abs(arr.z1[i] - one.z1) <= 1e-14 * abs(one.z1)
            assert abs(arr.z2[i] - one.z2) <= 2 * np.spacing(abs(one.z2))


def test_same_point_arrays_match_scalar_calls(P):
    z1, z2 = _gluing_points(P, 200, 29)
    p = map_Phi(P, z1, z2, 0)
    pick = np.arange(z1.size) % 4
    candidates = [map_Phi(P, z1, z2, 2),                              # same point
                  map_Phi(P, z1 * (1 + 1e-7), z2, 0),                 # moved z1
                  ChartPoint(Chart.W_ANNULUS, p.z1 * p.z2, p.z2),     # one shift off
                  ChartPoint(Chart.W_ANNULUS, p.z1, p.z2 * (1 + 1e-7))]  # moved z2
    q = ChartPoint(Chart.W_ANNULUS,
                   np.choose(pick, [c.z1 for c in candidates]),
                   np.choose(pick, [c.z2 for c in candidates]))
    got = same_point(P, p, q)
    one = [same_point(P, ChartPoint(Chart.W_ANNULUS, p.z1[i].item(), p.z2[i].item()),
                      ChartPoint(Chart.W_ANNULUS, q.z1[i].item(), q.z2[i].item()))
           for i in range(z1.size)]
    assert all(type(v) is bool for v in one)
    assert got.tolist() == one
    assert got.tolist() == (pick % 2 == 0).tolist()


def test_map_Phi_names_the_bad_sample(P):
    z1, z2 = _gluing_points(P, 6, 31)
    z2[3] = 1.0
    with pytest.raises(DomainError, match="at sample 3, got 1.0"):
        map_Phi(P, z1, z2)
    z1[4] = 0.0
    with pytest.raises(DomainError, match="z1 != 0 at sample 4"):
        map_Phi(P, z1, z2)
    with pytest.raises(DomainError, match="1/rho1 < .z2. < 1/rho0, got 1.0"):
        map_Phi(P, 1.05, 1.0)


def test_branch_independence_calls_each_map_once_per_branch(monkeypatch):
    from concavia import commands
    counts = {"map_Phi": [], "same_point": []}

    def counted(name, fn):
        def wrapper(par, *args, **kwargs):
            counts[name].append(np.shape(args[0].z1 if name == "same_point" else args[0]))
            return fn(par, *args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(commands, name, counted(name, getattr(commands, name)))
    cert = commands._suite_atlas(default_params())["Phi_branch_independence"]
    assert cert.passed and cert.grid == "256 transitions"
    assert cert.details == {"disagreements": 0}
    assert counts == {"map_Phi": [(64,)] * 5, "same_point": [(64,)] * 4}


def test_map_psi_example_and_bounds(P):
    # psi image moduli stay strictly inside (1, s*rho1).
    rng = np.random.default_rng(5)
    for _ in range(200):
        r1 = rng.uniform(1.0 + 1e-6, P.s - 1e-6)
        r2 = rng.uniform(1 / P.rho1 + 1e-6, 1 / P.rho0 - 1e-6)
        if r2 >= r1:
            continue
        z1 = r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        q = map_psi(P, z1, z2)
        assert q.chart is Chart.V
        assert 1.0 < abs(q.z1) < P.s * P.rho1
        assert abs(q.z1 - z1 / z2) < 1e-14


def test_map_psi_literal_example():
    # A wider parameter set under which (1.1, 1.05 e^{i pi/3}) lies in U'.
    wide = validate_params({
        "rho0": 0.91, "rho1": 0.9525, "rho2": 1.0495, "s": 1.101,
        "c": 0.93, "eps": 0.001, "c1": 1.049, "c2": 1.02,
        "zeta1": 1.0488, "zeta2": 1.0493,
    })
    z1, z2 = 1.1, 1.05 * cmath.exp(1j * math.pi / 3)
    q = map_psi(wide, z1, z2)
    assert abs(q.z1 - z1 / z2) < 1e-14
    assert q.z2 == z2


def test_map_psi_domain_errors(P):
    with pytest.raises(DomainError):
        map_psi(P, 1.05, 1.12)  # |z2| > |z1|: outside U'
    with pytest.raises(DomainError):
        map_psi(P, 1.2, 0.5)  # not in V' at all


def test_same_point_routes(P):
    # identity overlap V / V'
    z1, z2 = 1.02 * cmath.exp(0.2j), 1.13 * cmath.exp(1.0j)
    pv = ChartPoint.v(P, z1, z2)
    pvp = ChartPoint.v_prime(P, z1, z2)
    assert same_point(P, pv, pvp) and same_point(P, pvp, pv)
    # psi route: V' point vs its glued V image
    z1, z2 = 1.14, 1.12 * cmath.exp(0.4j)
    pvp = ChartPoint.v_prime(P, z1, z2)
    pv = map_psi(P, z1, z2)
    assert same_point(P, pvp, pv) and same_point(P, pv, pvp)
    # Phi route: V point vs its annulus image (z1 inside V's narrower band)
    z1 = 1.03 * cmath.exp(-0.9j)
    pw = map_Phi(P, z1, z2)
    pv2 = ChartPoint.v(P, z1, z2)
    assert same_point(P, pv2, pw) and same_point(P, pw, pv2)
    # and not equal to a genuinely different point
    other = ChartPoint.v(P, 1.03, 0.5)
    assert not same_point(P, pv, other)
    assert not same_point(P, pw, other)


def test_same_point_orbit_neighbor_robust(P):
    # Same model point entering the annulus chart through different shifts.
    w2 = 0.89 * cmath.exp(0.3j)
    w1 = 1.0001 / math.sqrt(0.89)  # just above the band edge
    p = ChartPoint.w(P, w1, w2)
    q = ChartPoint.w(P, w1 * (1 + 1e-12) * w2, w2)
    assert same_point(P, p, q)


def test_fibration_values(P):
    # the fibration is z2 in V and w2 = 1/z2 in the annulus chart
    z1, z2 = 1.03, 1.12 * cmath.exp(0.7j)
    v = ChartPoint.v(P, z1, z2)
    assert v.z2 == z2
    w = map_Phi(P, z1, z2)
    assert w.chart is Chart.W_ANNULUS
    assert abs(w.z2 - 1.0 / z2) < 1e-14
    # shared fiber: 1/w2 equals the base-chart value
    assert abs(1.0 / w.z2 - v.z2) < 1e-13


# ---------------------------------------------------------------------------
# Complement of the removed band
# ---------------------------------------------------------------------------

def test_in_complement_literal_band():
    lit = validate_params({**DEFAULT_PARAM_VALUES, "zeta1": 1.037, "zeta2": 1.045})
    assert not in_complement_C(lit, ChartPoint.v(lit, 1.041 * cmath.exp(1j), 0.2))
    assert in_complement_C(lit, ChartPoint.v(lit, 1.02, 0.2))
    assert in_complement_C(lit, ChartPoint.v(lit, 1.048, 0.2))
    # W point one of whose V-pullback moduli lands in the band
    q = map_Phi(lit, 1.040 * cmath.exp(0.5j), 1.12)
    assert not in_complement_C(lit, q)


def test_in_complement_consistent_across_charts(P):
    # Membership must agree for the same model point seen in two charts.
    rng = np.random.default_rng(13)
    for _ in range(100):
        z1 = rng.uniform(1.001, P.rho2 - 1e-3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = rng.uniform(1 / P.rho1 + 1e-3, 1 / P.rho0 - 1e-3) \
            * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pv = ChartPoint.v(P, z1, z2)
        pw = map_Phi(P, z1, z2)
        assert in_complement_C(P, pv) == in_complement_C(P, pw)
