import functools
import json
import math

import numpy as np
import pytest

from concavia import family
from concavia.atlas import Chart, default_params, in_complement_C, validate_params
from concavia.errors import (
    DomainError,
    FeasibilityError,
    FoliationError,
    OutOfFoliation,
)
from concavia.levi import find_lambda


@functools.lru_cache(maxsize=None)
def _model():
    return family.build_M1(default_params())


@functools.lru_cache(maxsize=None)
def _family16():
    return family.build_family(default_params(), 16)


@functools.lru_cache(maxsize=None)
def _lambda():
    fam = _family16()
    gam = family.gamma_field(fam)
    return find_lambda(gam, family.verification_grid(fam, 1) + family.verification_grid(fam, 2))


@functools.lru_cache(maxsize=None)
def _samples240():
    return family.sample_M1(_model(), 240)


# ---------------------------------------------------------------------------
# build_M1
# ---------------------------------------------------------------------------

def test_build_M1_frozen_geometry():
    m = _model()
    assert m.y_star == pytest.approx(math.log(1.0 / 0.9), abs=1e-15)
    x1, x2 = m.window
    assert x1 == pytest.approx(0.04395781343755045, abs=1e-12)
    assert x2 == pytest.approx(0.11282142604336572, abs=1e-12)
    assert m.depth == pytest.approx(0.00781211435326519, abs=1e-12)
    # left wall reaches its top value c1 + eps1/rho1^2 at the band bottom
    top = math.exp(float(m.f1.L(m.y_star)))
    assert top == pytest.approx(1.04 + 0.004 / 0.9 ** 2, rel=1e-12)
    assert m.f1.meta["conditions"]["end_slope"] == pytest.approx(
        0.009451795841209832, rel=1e-9)


def test_build_M1_certificates_pass():
    m = _model()
    names = {"wall1_shape", "wall2_shape", "seam_slopes", "seam_join",
             "seam_C1", "seam_contact", "clearances", "membership"}
    assert names <= set(m.certificates)
    for name in names:
        cert = m.certificates[name]
        assert cert.passed, f"{name} failed with margin {cert.margin}"
    assert m.certificates["seam_C1"].margin > 0
    # tightest clearance: binding circle c1 against the band top zeta2
    p = default_params()
    assert m.certificates["clearances"].margin == pytest.approx(
        math.log(p.c1 / p.zeta2), rel=1e-9)


def test_seam_is_C1_to_tolerance():
    m = _model()
    x1, x2 = m.window
    assert float(m.htilde.f(x1)) == pytest.approx(float(m.h1.L(x1)), abs=1e-9)
    assert float(m.htilde.df(x1)) == pytest.approx(float(m.h1.dL(x1)), abs=1e-9)
    assert float(m.htilde.f(x2)) == pytest.approx(float(m.h2.L(x2)), abs=1e-9)
    assert float(m.htilde.df(x2)) == pytest.approx(float(m.h2.dL(x2)), abs=1e-9)


def test_endpoint_slope_infeasible_with_wide_branch_margin():
    import dataclasses
    knobs = dataclasses.replace(family.default_knobs(), branch_margin=0.08)
    with pytest.raises(FeasibilityError, match="endpoint slope"):
        family.build_M1(default_params(), knobs)


def test_flat_right_wall_is_infeasible():
    par = validate_params({**default_params().raw_dict(), "c2": 1.0005})
    with pytest.raises(FeasibilityError):
        family.build_M1(par)


# ---------------------------------------------------------------------------
# sample_M1
# ---------------------------------------------------------------------------

def test_sample_counts_follow_piece_areas():
    samples = _samples240()
    assert len(samples) == 240
    counts = {"H1": 0, "H2": 0, "S": 0}
    for _, tag in samples:
        counts[tag] += 1
    m = _model()
    masses = {}
    for tag, prof in (("H1", m.f1), ("H2", m.f2)):
        xs = np.linspace(prof.x_lo, prof.x_hi, 4001)
        r2 = np.exp(xs)
        r1 = np.exp(prof.L(xs))
        w = r1 * r2 * np.hypot(r1 * prof.dL(xs), r2)
        masses[tag] = float(np.trapezoid(w, xs))
    x1, x2 = m.window
    Xs = np.linspace(x1, x2, 4001)
    rw = np.exp(Xs)
    r2s = np.exp(-m.htilde.f(Xs))
    wS = rw * r2s * np.hypot(rw, -r2s * m.htilde.df(Xs))
    masses["S"] = float(np.trapezoid(wS, Xs))
    total = sum(masses.values())
    for tag in counts:
        frac = masses[tag] / total
        assert abs(counts[tag] / 240 - frac) <= 0.2 * frac, (tag, counts)


def test_sample_graph_identities():
    m = _model()
    for pt, tag in _samples240():
        if tag == "S":
            assert pt.chart is Chart.V_PRIME
            # |w2| = h(|w1|) with w1 = z1, w2 = 1/z2
            assert -math.log(abs(pt.z2)) == pytest.approx(
                float(m.htilde.f(math.log(abs(pt.z1)))), abs=1e-10)
        else:
            assert pt.chart is Chart.V
            prof = m.f1 if tag == "H1" else m.f2
            assert math.log(abs(pt.z1)) == pytest.approx(
                float(prof.L(math.log(abs(pt.z2)))), abs=1e-10)


def test_samples_avoid_removed_band():
    par = default_params()
    for pt, _ in _samples240():
        assert in_complement_C(par, pt)


def test_sampling_is_deterministic():
    a = family.sample_M1(_model(), 120)
    b = family.sample_M1(_model(), 120)
    assert [(p.chart, p.z1, p.z2, t) for p, t in a] == \
        [(p.chart, p.z1, p.z2, t) for p, t in b]


def test_sample_rejects_small_n():
    with pytest.raises(DomainError):
        family.sample_M1(_model(), 50)


# ---------------------------------------------------------------------------
# build_family
# ---------------------------------------------------------------------------

def test_family_certificates_pass():
    fam = _family16()
    certs = fam.certificates
    for name in ("nesting", "curve_monotone", "slice_validity",
                 "top_slice_equality", "level_consistency"):
        assert certs[name].passed, name
    assert certs["nesting"].margin >= 1e-6
    assert len(fam.taus) == 16
    assert fam.taus[-1] == 1.0


def test_top_slice_reproduces_model():
    fam = _family16()
    fol = fam.fol
    m = fam.model
    q2 = np.linspace(-4.0, m.y_star - 1e-3, 257)
    np.testing.assert_allclose(fol.wall1(1.0, np.exp(q2)),
                               np.exp(m.f1.L(q2)), atol=1e-10)
    np.testing.assert_allclose(fol.wall2(np.ones_like(q2), q2),
                               np.exp(m.f2.L(q2)), atol=1e-10)
    x1, x2 = m.window
    q1 = np.linspace(x1, x2, 257)
    np.testing.assert_allclose(fol.dish(np.ones_like(q1), q1),
                               -np.asarray(m.htilde.f(q1)), atol=1e-10)


def test_family_needs_eight_slices():
    with pytest.raises(DomainError):
        family.build_family(default_params(), 7)


def test_constant_curves_break_nesting():
    par = default_params()
    with pytest.raises(FoliationError, match="meet along ray"):
        family.build_family(par, 8, curves={"c1": lambda t: par.c1,
                                            "c2": lambda t: par.c2})


def test_custom_monotone_curves_pass():
    par = default_params()
    fam = family.build_family(par, 8, curves={
        "c1": lambda t: par.rho2 - (par.rho2 - par.c1) * t ** 1.2,
        "c2": lambda t: 1.0 + (par.c2 - 1.0) * t ** 1.2,
    })
    assert fam.certificates["nesting"].passed
    assert fam.certificates["level_consistency"].passed


# ---------------------------------------------------------------------------
# gamma_field
# ---------------------------------------------------------------------------

def test_gamma_is_the_level_on_each_slice():
    fam = _family16()
    fol = fam.fol
    gam = family.gamma_field(fam)
    for tau in (0.25, 0.5, 1.0):
        r2 = math.exp(-2.0)
        z1 = float(fol.wall1(tau, r2)) * np.exp(0.7j)
        assert gam(z1, r2 * np.exp(0.3j)) == pytest.approx(tau, abs=1e-9)
        r1b = float(fol.wall2(tau, -2.0))
        assert gam(r1b * np.exp(0.1j), r2) == pytest.approx(tau, abs=1e-9)
        q1 = 0.5 * (float(fol.Xl(tau)) + float(fol.Xr(tau)))
        q2 = float(fol.dish(tau, q1))
        assert gam(math.exp(q1) * np.exp(2.1j), math.exp(q2)) == \
            pytest.approx(tau, abs=1e-9)


def test_gamma_continuous_at_dome_attachment():
    fam = _family16()
    fol = fam.fol
    gam = family.gamma_field(fam)
    tau = 0.6
    q2a = float(fol.y_cut(tau)) - 1e-6
    r1 = float(fol.wall1(tau, math.exp(q2a)))
    below = gam(r1, math.exp(q2a))
    above = gam(r1, math.exp(q2a + 2e-6))
    assert below == pytest.approx(tau, abs=1e-9)
    assert above == pytest.approx(tau, abs=1e-4)


def test_gamma_raises_outside_the_collar():
    gam = family.gamma_field(_family16())
    with pytest.raises(OutOfFoliation):
        gam(2.0 + 0.0j, 0.5 + 0.0j)
    arr = gam(np.array([2.0 + 0.0j]), np.array([0.5 + 0.0j]))
    assert np.isnan(arr).all()


def test_normalized_potential_is_affine_in_gamma():
    fam = _family16()
    gam = family.gamma_field(fam)
    u = family.normalized_potential(fam, 4.0)
    fol = fam.fol
    r2 = math.exp(-1.5)
    p = (float(fol.wall1(0.5, r2)), r2 + 0.0j)
    assert u(*p) == pytest.approx(math.exp(4.0 * (gam(*p) - 1.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# verification grid and the collar checks
# ---------------------------------------------------------------------------

def test_verification_grid_shape_and_determinism():
    fam = _family16()
    g1 = family.verification_grid(fam, 1)
    g2 = family.verification_grid(fam, 2)
    assert len(g1) == 62
    assert len(g2) > len(g1)
    assert g1 == family.verification_grid(fam, 1)


def test_find_lambda_on_the_family_grid():
    lam, cert = _lambda()
    assert cert.passed
    assert lam == pytest.approx(9.592854823272186, rel=1e-9)
    assert lam <= 1e4
    assert cert.margin > 0


def test_pseudoconcavity_certificate():
    lam, _ = _lambda()
    cert = family.pseudoconcavity_check(_family16(), lam, _samples240())
    assert cert.passed
    assert cert.margin > 0
    d = cert.details
    assert d["disagreements"] == 0
    assert all(v < 0 for v in d["per_piece_max"].values())


def test_compatibility_three_subcertificates():
    lam, _ = _lambda()
    cert = family.compatibility_check(_family16(), lam, _samples240())
    assert cert.passed
    parts = {c["name"]: c for c in cert.details["parts"]}
    assert set(parts) == {"binding_pairing", "page_area_form", "frame_span"}
    bind = parts["binding_pairing"]
    assert bind["passed"]
    assert bind["details"]["sign_c1"] * bind["details"]["sign_c2"] == -1.0
    pages = parts["page_area_form"]
    assert pages["passed"] and pages["margin"] > 0
    for rng in pages["details"]["per_piece_range"].values():
        assert rng[0] > 0
    span = parts["frame_span"]
    assert span["passed"] and span["margin"] > 0


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------

def test_run_verification_is_deterministic():
    ok1, rep1 = family.run_verification(default_params())
    ok2, rep2 = family.run_verification(default_params())
    assert ok1 and ok2
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["lambda"] == pytest.approx(9.592854823272186, rel=1e-9)
    for cert in rep1["checks"].values():
        assert cert["passed"]
