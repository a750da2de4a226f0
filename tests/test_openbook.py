"""Open-book model: monodromy normal form, seams, atlas embedding."""

import cmath
import collections
import math

import numpy as np
import pytest

from _levi_oracle import BRONZE
from concavia.atlas import ChartPoint, Chart, canonical_rep, default_params, \
    map_Phi, phi, same_point
from concavia import openbook
from concavia._numerics import GOLD, SILVER, kronecker
from concavia.errors import ConfigError, DomainError
from concavia.openbook import (
    MPoint,
    Part,
    TwistSpec,
    conjugation_check,
    corner_tori,
    embed_g,
    map_Phi_prime,
    monodromy_delta,
    phi_prime_cr_residual,
    q_chart,
    q_inverse,
    q_jacobian_det,
    twist_winding,
    welldef_check,
)

P = default_params()
SPEC = TwistSpec.from_params(P)


def wiggly_spec() -> TwistSpec:
    a, b = P.a, P.b
    span = b - a

    def tau(r):
        s = (r - a) / span
        return s + 0.05 * np.sin(2 * np.pi * s)

    def dtau(r):
        s = (r - a) / span
        return (1 + 0.1 * np.pi * np.cos(2 * np.pi * s)) / span

    return TwistSpec(a=a, b=b, tau=tau, dtau=dtau)


# ---------------------------------------------------------------------------
# Model points and twist specs
# ---------------------------------------------------------------------------

def test_mpoint_collar_radius_must_be_boundary():
    MPoint.collar(P, P.a * cmath.exp(0.3j), 0.5)
    MPoint.collar(P, P.b * cmath.exp(-1.1j), 0.99j)
    with pytest.raises(DomainError):
        MPoint.collar(P, 1.08, 0.5)          # interior radius
    with pytest.raises(DomainError):
        MPoint.collar(P, P.a, 1.002)         # |u2| > 1


def test_mpoint_torus_constraints():
    MPoint.torus(P, 1.09, cmath.exp(2.2j))
    with pytest.raises(DomainError):
        MPoint.torus(P, 1.09, 0.98)          # |u2| != 1
    with pytest.raises(DomainError):
        MPoint.torus(P, 1.30, 1.0)           # outside the page annulus


def test_twist_spec_validation():
    TwistSpec.affine(P.a, P.b)
    wiggly_spec()
    with pytest.raises(ConfigError):
        TwistSpec(a=P.a, b=P.b, tau=lambda r: (r - P.a), dtau=lambda r: 1.0 + 0 * r)
    with pytest.raises(ConfigError, match="strictly increasing"):
        span = P.b - P.a
        TwistSpec(a=P.a, b=P.b,
                  tau=lambda r: ((r - P.a) / span) ** 0.5 * 0 + (r - P.a) / span
                  + 0.4 * np.sin(2 * np.pi * (r - P.a) / span),
                  dtau=lambda r: (1 + 0.8 * np.pi * np.cos(
                      2 * np.pi * (r - P.a) / span)) / span)


# ---------------------------------------------------------------------------
# Monodromy and conjugation
# ---------------------------------------------------------------------------

def test_monodromy_fixes_boundary_circles():
    za = P.a * cmath.exp(0.7j)
    zb = P.b * cmath.exp(-2.1j)
    assert abs(monodromy_delta(SPEC, za) - za) < 1e-12
    assert abs(monodromy_delta(SPEC, zb) - zb) < 1e-12


def test_monodromy_midpoint_is_minus_z():
    z = 0.5 * (P.a + P.b) * cmath.exp(0.4j)
    assert abs(monodromy_delta(SPEC, z) + z) < 1e-12


def test_monodromy_preserves_modulus_and_domain():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = rng.uniform(P.a, P.b)
        z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(abs(monodromy_delta(SPEC, z)) - r) < 1e-12
    with pytest.raises(DomainError):
        monodromy_delta(SPEC, 0.9)


def test_q_chart_boundary_value_and_round_trip():
    z = P.a * cmath.exp(0.9j)
    w, t = q_chart(SPEC, z)
    assert abs(w - z.conjugate() / P.a) < 1e-14
    assert t == 0.0
    rng = np.random.default_rng(3)
    for spec in (SPEC, wiggly_spec()):
        for _ in range(100):
            zz = rng.uniform(P.a, P.b) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            ww, tt = q_chart(spec, zz)
            assert abs(q_inverse(spec, ww, tt) - zz) < 1e-12


def test_q_chart_is_orientation_preserving():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.uniform(P.a + 1e-4, P.b - 1e-4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert q_jacobian_det(SPEC, z) > 0


def test_conjugation_hand_case():
    # (w, t) = (1, 1/2): the left twist sends it to (-1, 1/2)
    z = q_inverse(SPEC, 1.0, 0.5)
    w_out, t_out = q_chart(SPEC, monodromy_delta(SPEC, z))
    assert abs(w_out - (-1.0)) < 1e-12
    assert abs(t_out - 0.5) < 1e-12


def test_conjugation_certificate_10k():
    cert = conjugation_check(SPEC)
    assert cert.passed
    assert cert.details["sup_error"] < 1e-9
    assert "10000" in cert.grid


def test_conjugation_fails_on_a_nan_error(monkeypatch):
    def nan_level(spec, z):
        w, t = q_chart(spec, z)
        t[1] = math.nan
        return w, t

    monkeypatch.setattr(openbook, "q_chart", nan_level)
    cert = conjugation_check(SPEC, n=5)
    assert not cert.passed
    assert cert.margin == -math.inf
    assert cert.details["sup_error"] == math.inf


def test_conjugation_invariant_under_reparametrization():
    cert = conjugation_check(wiggly_spec(), n=2000)
    assert cert.passed


def _conjugation_errors_by_loop(spec, w, t):
    """Per-sample errors of the scalar cmath sweep conjugation_check once ran."""
    out = []
    for wi, ti in zip(w.tolist(), t.tolist()):
        z = spec.invert(min(max(ti, 0.0), 1.0)) * wi.conjugate()
        zd = z * cmath.exp(2j * math.pi * float(spec.tau(abs(z))))
        w_out, t_out = zd.conjugate() / abs(zd), float(spec.tau(abs(zd)))
        out.append(max(abs(w_out - wi * cmath.exp(-2j * math.pi * ti)), abs(t_out - ti)))
    return np.array(out)


@pytest.mark.parametrize("spec, n", [(SPEC, 10 ** 4), (wiggly_spec(), 2000)],
                         ids=["affine", "wiggly"])
def test_conjugation_arrays_match_the_scalar_loop(spec, n):
    # conjugation_check's default samples: the golden/silver Kronecker sequence
    k = np.arange(n)
    w = np.exp(2j * np.pi * ((k * GOLD) % 1.0))
    t = (k * SILVER) % 1.0
    oracle = _conjugation_errors_by_loop(spec, w, t)
    w_out, t_out = q_chart(spec, monodromy_delta(spec, q_inverse(spec, w, t)))
    errs = np.maximum(abs(w_out - w * np.exp(-2j * np.pi * t)), abs(t_out - t))
    # numpy's array product and modulus may each round |delta(z)| one ulp
    # away from the scalar ones, and t_out = tau(|delta(z)|) carries that
    # through dtau: about 2.4e-15 per ulp for the affine spec
    ulps = 2 * np.spacing(P.b) * np.max(spec.dtau(np.linspace(P.a, P.b, 33)))
    assert np.max(abs(errs - oracle)) <= ulps
    cert = conjugation_check(spec, n=n)
    assert abs(cert.details["sup_error"] - oracle.max()) <= ulps
    assert cert.passed == bool(oracle.max() < 1e-9)


def test_conjugation_samples_cover_every_cell(monkeypatch):
    # the default 10^4 samples put 20 to 29 points (mean 25) in every cell
    # of a 20 x 20 partition of S^1 x [0, 1]; uniform random draws would
    # not meet the bounds [18, 32], which a Poisson(25) count misses with
    # probability about 0.13 per cell
    seen = []

    def spy(spec, w, t):
        seen.append((w, t))
        return q_inverse(spec, w, t)

    monkeypatch.setattr(openbook, "q_inverse", spy)
    assert conjugation_check(SPEC).passed
    (w, t), = seen
    x = (np.angle(w) / (2 * np.pi)) % 1.0
    cells = np.bincount(20 * np.floor(20 * x).astype(int) + np.floor(20 * t).astype(int),
                        minlength=400)
    assert cells.size == 400 and w.size == 10 ** 4
    assert 18 <= cells.min() and cells.max() <= 32


# the sizes the commands draw: the conjugation samples, sample_M1's
# membership and sweep samples, and the levi suite's unit vectors
@pytest.mark.parametrize("n", [10_000, 400, 240, 48])
def test_kronecker_keeps_the_bits_of_the_remainder(n):
    for steps in ((GOLD, SILVER), (GOLD, SILVER, BRONZE)):
        x = np.arange(n)[:, None] * np.asarray(steps)
        assert kronecker(n, steps).tobytes() == (x % 1.0).tobytes()


def test_elementwise_maps_match_scalar_calls():
    rng = np.random.default_rng(17)
    z = rng.uniform(P.a, P.b, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    w = np.exp(2j * np.pi * rng.uniform(size=40))
    t = rng.uniform(size=40)
    for spec in (SPEC, wiggly_spec()):
        cases = [(lambda x: monodromy_delta(spec, x), (z,), complex),
                 (lambda x: q_chart(spec, x)[0], (z,), complex),
                 (lambda x: q_chart(spec, x)[1], (z,), float),
                 (lambda x, y: q_inverse(spec, x, y), (w, t), complex),
                 (spec.invert, (t,), float)]
        for fn, args, kind in cases:
            arr = fn(*args)
            one = [fn(*(a[i].item() for a in args)) for i in range(40)]
            assert all(type(v) is kind for v in one)
            assert np.max(abs(arr - np.array(one))) <= 1e-15


def test_out_of_annulus_sample_is_named():
    z = np.full(6, 1.1 + 0j)
    z[3] = 0.9j
    for fn in (monodromy_delta, q_chart):
        with pytest.raises(DomainError, match="at sample 3, got 0.9"):
            fn(SPEC, z)


def test_twist_spec_checks_profiles_with_one_array_call():
    a, b = P.a, P.b
    span = b - a
    shapes = []

    def dtau(r):
        shapes.append(np.shape(r))
        return np.full(np.shape(r), 1.0 / span)

    TwistSpec(a=a, b=b, tau=lambda r: (r - a) / span, dtau=dtau)
    assert shapes == [(33,)]
    # scalar-only profiles fail at construction, not inside a sweep
    with pytest.raises(ConfigError, match="elementwise"):
        TwistSpec(a=a, b=b, tau=lambda r: (r - a) / span + 0.05 * math.sin(
            2 * math.pi * (r - a) / span), dtau=dtau)
    with pytest.raises(ConfigError, match="elementwise"):
        TwistSpec(a=a, b=b, tau=lambda r: (r - a) / span, dtau=lambda r: 1.0 / span)


@pytest.mark.parametrize("n", [10, 10 ** 4])
def test_sweeps_call_each_map_a_fixed_number_of_times(monkeypatch, n):
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("q_inverse", "q_chart", "monodromy_delta", "canonical_rep", "phi"):
        monkeypatch.setattr(openbook, name, counted(name, getattr(openbook, name)))
    assert conjugation_check(SPEC, n=n).passed
    assert counts == {"q_inverse": 1, "q_chart": 1, "monodromy_delta": 1}
    counts.clear()
    assert welldef_check(P).passed
    assert counts == {"canonical_rep": 2, "phi": 1}


def test_twist_winding_is_one():
    assert twist_winding(SPEC) == 1
    assert twist_winding(wiggly_spec()) == 1


# ---------------------------------------------------------------------------
# Trivialization and embedding
# ---------------------------------------------------------------------------

def test_phi_prime_fiber_modulus_is_c():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w1 = rng.uniform(P.a, P.b) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        cp = map_Phi_prime(P, w1, w2)
        assert cp.chart is Chart.W_ANNULUS
        assert abs(abs(cp.z2) - P.c) < 1e-12


def test_phi_prime_cr_residual():
    rng = np.random.default_rng(13)
    for _ in range(100):
        w1 = rng.uniform(P.a, P.b) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert phi_prime_cr_residual(P, w1, w2) < 1e-6


def test_phi_prime_at_unit_fiber_matches_Phi():
    w1 = 1.1 * cmath.exp(0.3j)
    lhs = map_Phi_prime(P, w1, 1.0)
    rhs = map_Phi(P, w1, 1.0 / P.c, k=2)
    assert same_point(P, lhs, rhs)


def test_embed_binding_central_fibers():
    cp = embed_g(P, MPoint.collar(P, P.a, 0.0))
    assert cp.chart is Chart.V
    assert abs(cp.z1 - P.a) < 1e-15
    assert cp.z2 == 0
    cp_b = embed_g(P, MPoint.collar(P, P.b, 0.0))
    # outer collar lands at modulus c*b = 1 + c*eps
    assert abs(abs(cp_b.z1) - (1.0 + P.c * P.eps)) < 1e-12
    assert abs(abs(cp_b.z1) - 1.00890) < 1e-5
    assert 1.0 < abs(cp_b.z1) < P.rho2


def test_embed_rejects_invalid_points():
    bad = MPoint(Part.COLLAR, 1.08, 0.2)  # built around the validators
    with pytest.raises(DomainError):
        embed_g(P, bad)


def test_welldef_inner_seam_hand_case():
    p = MPoint.collar(P, P.a, 1.0)
    assert same_point(P, embed_g(P, p), map_Phi_prime(P, P.a, 1.0))


def test_welldef_outer_seam_hand_case_shift_one():
    z1 = P.b * cmath.exp(1j * math.pi / 4)
    z2 = cmath.exp(1j * math.pi / 2)
    wc1, wc2 = P.c * z1 * phi(P.c / z2, 0), P.c / z2
    wt1, wt2 = (z1 * z2) * phi(P.c / z2, 0), P.c / z2
    c1, _, n1 = canonical_rep(wc1, wc2)
    c2, _, n2 = canonical_rep(wt1, wt2)
    assert n2 - n1 == 1
    assert abs(c1 - c2) < 1e-10 * abs(c2)
    assert abs(wc2 - wt2) == 0.0


def test_welldef_certificate_both_seams():
    cert = welldef_check(P)
    assert cert.passed
    assert cert.details["psi2_shifts"] == [1]
    assert "500 inner" in cert.grid and "500 outer" in cert.grid


def test_welldef_fails_on_a_nan_error(monkeypatch):
    def nan_rep(w1, w2):
        c, w, n = canonical_rep(w1, w2)
        c[1] = complex("nan")  # an outer-seam sample in both calls
        return c, w, n

    monkeypatch.setattr(openbook, "canonical_rep", nan_rep)
    cert = welldef_check(P)
    assert not cert.passed
    assert cert.margin == -math.inf
    assert cert.details["sup_error"] == math.inf


def test_welldef_matches_the_scalar_seam_loop():
    # the per-sample outer-seam comparison welldef_check once made, point by point
    u1, u2 = openbook._seam_arrays(P)
    errs, shifts = [], set()
    for w1, w2 in zip(u1[1::2].tolist(), u2[1::2].tolist()):
        f = P.c / w2
        c1, _, n1 = canonical_rep(P.c * w1 * phi(f, 0), f)
        c2, _, n2 = canonical_rep(w1 * w2 * phi(f, 0), f)
        errs.append(abs(c1 - c2) / max(1.0, abs(c2)))
        shifts.add(n2 - n1)
    cert = welldef_check(P)
    assert abs(cert.details["sup_error"] - max(errs)) <= 1e-15
    assert cert.details["psi2_shifts"] == sorted(shifts) == [1]
    assert all(type(k) is int for k in cert.details["psi2_shifts"])


def test_default_seam_samples_keep_the_scalar_stream():
    u1, u2 = openbook._seam_arrays(P, 200)
    for k, pair in enumerate(zip(u1.tolist(), u2.tolist())):
        th1 = 2 * math.pi * ((k * GOLD) % 1.0)
        th2 = 2 * math.pi * ((k * SILVER) % 1.0)
        r = P.a if k % 2 == 0 else P.b
        assert pair == (r * cmath.exp(1j * th1), cmath.exp(1j * th2))


# ---------------------------------------------------------------------------
# Pages and corners
# ---------------------------------------------------------------------------

def _page(theta: float, n: int) -> list[ChartPoint]:
    """``embed_g`` of ``n`` torus points of the page over the circle angle ``theta``."""
    u2 = cmath.exp(1j * theta)
    return [embed_g(P, MPoint.torus(P, float(r) * cmath.exp(2j * math.pi * j / n), u2))
            for j, r in enumerate(np.linspace(P.a, P.b, n))]


def test_sample_page_shares_fiber_value():
    pts = _page(0.8, 20)
    vals = [cp.z2 for cp in pts]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10


def test_page_is_2pi_periodic():
    pts1 = _page(1.1, 8)
    pts2 = _page(1.1 + 2 * math.pi, 8)
    for p1, p2 in zip(pts1, pts2):
        assert same_point(P, p1, p2, tol=1e-9)


def test_corner_tori_land_in_annulus_chart():
    tori = corner_tori(P, n=6)
    assert set(tori) == {"inner", "outer"}
    for pts in tori.values():
        assert len(pts) == 36
        for cp in pts:
            assert cp.chart is Chart.W_ANNULUS


def test_embed_injectivity_10k():
    rng = np.random.default_rng(20240606)
    seen: dict[tuple, MPoint] = {}
    n = 10 ** 4
    for i in range(n):
        kind = i % 4
        if kind == 0:
            mp = MPoint.collar(P, P.a * cmath.exp(2j * math.pi * rng.uniform()),
                               rng.uniform(0, 0.999) * cmath.exp(2j * math.pi * rng.uniform()))
        elif kind == 1:
            mp = MPoint.collar(P, P.b * cmath.exp(2j * math.pi * rng.uniform()),
                               rng.uniform(0, 0.999) * cmath.exp(2j * math.pi * rng.uniform()))
        else:
            mp = MPoint.torus(P, rng.uniform(P.a, P.b) * cmath.exp(2j * math.pi * rng.uniform()),
                              cmath.exp(2j * math.pi * rng.uniform()))
        cp = embed_g(P, mp)
        key = (cp.chart.value, round(cp.z1.real, 6), round(cp.z1.imag, 6),
               round(cp.z2.real, 6), round(cp.z2.imag, 6))
        if key in seen and seen[key] != mp:
            pytest.fail(f"distinct model points map to the same chart point: "
                        f"{seen[key]} vs {mp}")
        seen[key] = mp

