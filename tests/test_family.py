import cmath
import dataclasses
import functools
import inspect
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import _levi_oracle
from _levi_oracle import (clear_of_knots, find_lambda, lambda_stencil, sphere_forms_4d,
                          sphere_frames, stencil_roots)
from concavia import family, levi
from concavia._numerics import GOLD, SILVER, kronecker
from concavia.atlas import Chart, ChartPoint, default_params, in_complement_C, validate_params
from concavia.errors import (
    ConcaviaError,
    DomainError,
    Exhausted,
    FeasibilityError,
    FoliationError,
    NotContact,
    VerificationError,
)
from concavia.levi import _levi_entries, jet, levi_min_eig


@functools.lru_cache(maxsize=None)
def _model():
    return family.build_M1(default_params())


@functools.lru_cache(maxsize=None)
def _family16():
    return family.build_family(default_params(), 16)


@functools.lru_cache(maxsize=None)
def _samples240():
    return family.sample_M1(_model(), 240)


@functools.lru_cache(maxsize=None)
def _lambda():
    return family.find_collar_lambda(_family16(), 1e4)


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
    names = {"seam_C1", "seam_contact", "clearances", "membership"}
    assert set(m.certificates) == names
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


def test_sample_M1_builds_its_density_tables_once_per_model(monkeypatch):
    boosted = []
    boost = family._seam_band_boost
    monkeypatch.setattr(family, "_seam_band_boost",
                        lambda *args: boosted.append(args[0].size) or boost(*args))
    model = family.build_M1(default_params())  # `membership` samples 400 points
    family.sample_M1(model, 240)
    assert boosted == [4001] * 3  # one table per piece


def test_sample_rejects_small_n():
    with pytest.raises(DomainError):
        family.sample_M1(_model(), 50)


# the acceptance battery's perturbed parameter set
_PERTURBED = {
    "rho0": 0.9, "rho1": 0.92, "rho2": 1.04, "s": 1.12, "c": 0.91,
    "eps": 0.007, "c1": 1.035, "c2": 1.02, "zeta1": 1.032, "zeta2": 1.034,
}


def _sample_M1_by_loop(model, n):
    """sample_M1 as a per-point scalar loop: the reference for the array one."""
    p = model.params
    grids, dens = {}, {}
    for tag, prof in (("H1", model.f1), ("H2", model.f2)):
        xs = np.linspace(prof.x_lo, prof.x_hi, 4001)
        r2 = np.exp(xs)
        r1 = np.exp(prof.L(xs))
        w = family._piece_weight(xs, r1, r2, r1 * prof.dL(xs), r2)
        grids[tag] = xs
        dens[tag] = (w, family._seam_band_boost(xs, w, ("hi",)))
    X1, X2 = model.window
    Xs = np.linspace(X1, X2, 4001)
    rw = np.exp(Xs)
    r2s = np.exp(-model.htilde.f(Xs))
    wS = family._piece_weight(Xs, rw, r2s, rw, -r2s * model.htilde.df(Xs))
    grids["S"] = Xs
    dens["S"] = (wS, family._seam_band_boost(Xs, wS, ("lo", "hi")))
    areas = {t: float(np.trapezoid(dens[t][0], grids[t])) for t in grids}
    total = sum(areas.values())
    counts = {t: max(8, round(n * areas[t] / total)) for t in grids}
    counts["H1"] += n - sum(counts.values())
    out = []
    j = 0
    for tag in ("H1", "H2", "S"):
        for x in family._inverse_cdf(grids[tag], dens[tag][1], counts[tag]):
            th1 = 2.0 * math.pi * ((j * GOLD) % 1.0)
            th2 = 2.0 * math.pi * ((j * SILVER) % 1.0)
            j += 1
            if tag == "S":
                z1 = np.exp(x) * np.exp(1j * th1)
                z2 = np.exp(-float(model.htilde.f(x))) * np.exp(1j * th2)
                out.append((ChartPoint.v_prime(p, z1, z2), tag))
            else:
                prof = model.f1 if tag == "H1" else model.f2
                z1 = float(np.exp(prof.L(x))) * np.exp(1j * th1)
                z2 = math.exp(x) * np.exp(1j * th2)
                out.append((ChartPoint.v(p, z1, z2), tag))
    return out


@functools.lru_cache(maxsize=None)
def _perturbed_model():
    knobs = dataclasses.replace(family.default_knobs(), eps1=0.003)
    return family.build_M1(validate_params(_PERTURBED), knobs)


@pytest.mark.parametrize("which", ["default", "perturbed"])
@pytest.mark.parametrize("n", [100, 240, 400, 1000])
def test_sample_M1_matches_the_scalar_loop_bit_for_bit(which, n):
    model = _model() if which == "default" else _perturbed_model()
    got, ref = family.sample_M1(model, n), _sample_M1_by_loop(model, n)
    assert [(p.chart, t) for p, t in got] == [(p.chart, t) for p, t in ref]
    assert all(type(p.z1) is complex and type(p.z2) is complex for p, _ in got)
    for attr in ("z1", "z2"):
        a = np.array([getattr(p, attr) for p, _ in got])
        b = np.array([getattr(p, attr) for p, _ in ref])
        assert a.tobytes() == b.tobytes(), attr


def _sample_M1_by_chart_points(model, n):
    """The model samples as a ChartPoint per sample, each validated on its
    own: the reference for the array sampler."""
    if n < 100:
        raise DomainError(f"sample_M1 needs n >= 100, got {n}")
    p = model.params
    tables = model.density_tables
    total = sum(area for _, _, area in tables.values())
    counts = {t: max(8, round(n * area / total)) for t, (_, _, area) in tables.items()}
    counts["H1"] += n - sum(counts.values())
    out = []
    angles = np.exp(2j * np.pi * kronecker(n, (GOLD, SILVER)))
    j = 0
    for tag, (grid, dens, _) in tables.items():
        xs = family._inverse_cdf(grid, dens, counts[tag])
        e1, e2 = angles[j:j + xs.size].T
        j += xs.size
        if tag == "S":
            z1 = np.exp(xs) * e1
            z2 = np.exp(-model.htilde.f(xs)) * e2
            chart = ChartPoint.v_prime
        else:
            prof = model.f1 if tag == "H1" else model.f2
            z1 = np.exp(prof.L(xs)) * e1
            z2 = np.array([math.exp(x) for x in xs.tolist()]) * e2
            chart = ChartPoint.v
        for a, b in zip(z1.tolist(), z2.tolist()):
            r1, r2 = abs(a), abs(b)
            # ChartPoint's scalar checks, in their order
            if tag != "S":
                if not (1.0 < r1 < p.rho2):
                    raise DomainError(f"V chart needs 1 < |z1| < rho2, got |z1|={r1}")
                if not (r2 < 1.0 / p.rho0):
                    raise DomainError(f"V chart needs |z2| < 1/rho0, got |z2|={r2}")
            else:
                if not (1.0 < r1 < p.s):
                    raise DomainError(f"V' chart needs 1 < |z1| < s, got |z1|={r1}")
                if not (1.0 / p.rho1 < r2 < 1.0 / p.rho0):
                    raise DomainError(f"V' chart needs 1/rho1 < |z2| < 1/rho0, got |z2|={r2}")
            out.append((chart(p, a, b), tag))
    return out


@pytest.mark.parametrize("which", ["default", "perturbed"])
@pytest.mark.parametrize("n", [100, 240, 400])
def test_sample_arrays_match_the_chart_point_loop_bit_for_bit(which, n):
    model = _model() if which == "default" else _perturbed_model()
    tags, z1, z2 = family._sample_arrays(model, n)
    ref = _sample_M1_by_chart_points(model, n)
    assert tags.tolist() == [t for _, t in ref]
    assert z1.tobytes() == np.array([pt.z1 for pt, _ in ref]).tobytes()
    assert z2.tobytes() == np.array([pt.z2 for pt, _ in ref]).tobytes()
    # sample_M1 wraps the same samples in chart points of Python complex numbers
    got = family.sample_M1(model, n)
    assert [(pt.chart, t) for pt, t in got] == [(pt.chart, t) for pt, t in ref]
    assert all(type(pt.z1) is complex and type(pt.z2) is complex for pt, _ in got)
    assert np.array([pt.z1 for pt, _ in got]).tobytes() == z1.tobytes()


@pytest.mark.parametrize("field, piece, quantile", [
    ("rho2", "H1", 0.5),    # V: |z1| too large on the left wall
    ("rho0", "H1", 0.7),    # V: |z2| too large
    ("s", "S", 0.3),        # V': |z1| too large on the seam
    ("rho1", "S", 0.6),     # V': |z2| too small
])
def test_sample_arrays_raise_the_chart_point_error(field, piece, quantile):
    model = _model()
    tags, z1, z2 = family._sample_arrays(model, 240)
    on = tags == piece
    r = np.abs(z2[on] if field in ("rho0", "rho1") else z1[on])
    bound = float(np.quantile(r, quantile))
    # rho0 and rho1 bound |z2| through their reciprocals
    value = 1.0 / bound if field in ("rho0", "rho1") else bound
    moved = dataclasses.replace(model, params=dataclasses.replace(model.params, **{field: value}))
    with pytest.raises(DomainError) as want:
        _sample_M1_by_chart_points(moved, 240)
    for sample in (family._sample_arrays, family.sample_M1):
        with pytest.raises(DomainError) as got:
            sample(moved, 240)
        assert str(got.value) == str(want.value)


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


def test_level_consistency_fails_on_a_nan_level(monkeypatch):
    gamma = family._Foliation.gamma

    def one_nan(self, z1, z2):
        out = gamma(self, z1, z2)
        out[40] = np.nan
        return out

    monkeypatch.setattr(family._Foliation, "gamma", one_nan)
    with pytest.raises(VerificationError) as err:
        family.build_family(default_params(), 16)
    cert = err.value.certificate
    assert cert.name == "level_consistency" and not cert.passed
    assert cert.margin == -math.inf
    assert cert.details["max_deviation"] == math.inf


@pytest.mark.parametrize("n_tau, n_slices", [(8, 8), (12, 12), (16, 9)])
def test_level_consistency_checks_each_slice_once(monkeypatch, n_tau, n_slices):
    gamma = family._Foliation.gamma
    taus = []

    def recording(self, z1, z2):
        out = gamma(self, z1, z2)
        taus.extend(np.round(out, 6).tolist())
        return out

    monkeypatch.setattr(family._Foliation, "gamma", recording)
    fam = family.build_family(default_params(), n_tau)
    cert = fam.certificates["level_consistency"]
    assert cert.passed
    assert cert.grid == f"{n_slices} slices x 9 points"
    assert len(taus) == 9 * n_slices
    assert len(set(taus)) == n_slices and max(taus) == 1.0


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


def _constant(v):
    """A parameter curve that stands still at ``v``."""
    return lambda t: np.full(np.shape(t), v)


def _patch_curves(monkeypatch, curves):
    """Every ``_Foliation`` follows ``curves`` (name -> curve of ``t``)."""
    for name, fn in curves.items():
        monkeypatch.setattr(family._Foliation, name, staticmethod(fn))


def test_constant_curves_break_nesting(monkeypatch):
    par = default_params()
    _patch_curves(monkeypatch, {"c1": _constant(par.c1), "c2": _constant(par.c2)})
    with pytest.raises(FoliationError, match="meet along ray"):
        family.build_family(par, 8)


def test_a_dipping_curve_fails_curve_monotone(monkeypatch):
    # c2 dips between the slices 0.25 and 0.375 and is the linear curve at
    # every slice level, so the rays nest and gamma reads the levels back
    par = default_params()
    c2 = family._Foliation.c2

    def dipping(self, t):
        t = np.asarray(t, float)
        dip = np.where((0.25 < t) & (t < 0.375), np.sin(8.0 * np.pi * t) ** 2, 0.0)
        return c2(self, t) - 0.1 * (par.c2 - 1.0) * dip

    monkeypatch.setattr(family._Foliation, "c2", dipping)
    with pytest.raises(VerificationError) as ei:
        family.build_family(par, 8)
    assert str(ei.value) == "family certificates failed: ['curve_monotone']"
    assert ei.value.certificate.name == "curve_monotone"
    assert ei.value.certificate.margin < 0


def _in_adjacent_bracket(f, root, target):
    """``root`` is an end of adjacent floats ``a < b`` with ``f(a) < target
    <= f(b)``, the bracket a bisection on ``f(mid) < target`` ends in."""
    lower = np.nextafter(root, -np.inf)
    upper = np.nextafter(root, np.inf)
    return (((f(lower) < target) & (f(root) >= target))
            | ((f(root) < target) & (f(upper) >= target)))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_is_the_level_on_each_slice():
    fam = _family16()
    fol = fam.fol
    gam = fam.fol.gamma
    for tau in (0.25, 0.5, 1.0):
        r2 = math.exp(-2.0)
        z1 = float(fol.wall1(tau, r2)) * np.exp(0.7j)
        assert gam(z1, r2 * np.exp(0.3j)) == pytest.approx(tau, abs=1e-9)
        r1b = float(fol.wall2(tau, -2.0))
        assert gam(r1b * np.exp(0.1j), r2) == pytest.approx(tau, abs=1e-9)
        _, xl, xr = fol.cap(tau)
        q1 = 0.5 * (float(xl) + float(xr))
        q2 = float(fol.dish(tau, q1))
        assert gam(math.exp(q1) * np.exp(2.1j), math.exp(q2)) == \
            pytest.approx(tau, abs=1e-9)


def test_gamma_continuous_at_dome_attachment():
    fam = _family16()
    fol = fam.fol
    gam = fam.fol.gamma
    tau = 0.6
    q2a = float(fol.y_cut(tau)) - 1e-6
    r1 = float(fol.wall1(tau, math.exp(q2a)))
    below = gam(r1, math.exp(q2a))
    above = gam(r1, math.exp(q2a + 2e-6))
    assert below == pytest.approx(tau, abs=1e-9)
    assert above == pytest.approx(tau, abs=1e-4)


def _gamma_by_bisection(fol, z1, z2):
    """``_Foliation.gamma`` for the default curves with the 60-step dish
    bisection it used to run: the oracle.  Also returns the mask of points
    that reached the dish and their log radii."""
    z1, z2 = np.ravel(z1), np.ravel(z2)
    r1, r2 = np.abs(z1), np.abs(z2)
    q1 = np.log(r1)
    with np.errstate(divide="ignore"):
        q2 = np.log(r2)
    out = np.full(r1.shape, np.nan)
    t1 = (fol.rho2 - r1) / (fol.rho2 - fol.f1c(r2))
    v1 = (t1 > fol.TAU_LO) & (t1 <= fol.TAU_HI) & (q2 <= fol.y_cut(t1) + 1e-12)
    out[v1] = t1[v1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = (r1 - 1.0) / (fol.f2c_x(q2) - 1.0)
        v2 = ((t2 > fol.TAU_LO) & (t2 <= fol.TAU_HI)
              & (q2 <= fol.y_cut(t2) + 1e-12) & ~v1)
    out[v2] = t2[v2]
    rest = ~(v1 | v2) & np.isfinite(q2)
    qq1, qq2 = q1[rest], q2[rest]
    lo = np.full(qq1.shape, fol.TAU_LO)
    hi = np.full(qq1.shape, fol.TAU_HI)
    ok = (fol.dish(lo, qq1) <= qq2) & (fol.dish(hi, qq1) >= qq2)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = fol.dish(mid, qq1) < qq2
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    tau = 0.5 * (lo + hi)
    _, xl, xr = fol.cap(tau)
    sig = (qq1 - xl) / (xr - xl)
    ok &= (sig > -0.05) & (sig < 1.05)
    out[rest] = np.where(ok, tau, np.nan)
    dish = np.zeros(r1.shape, dtype=bool)
    dish[rest] = ok
    return out, dish, q1, q2


@functools.lru_cache(maxsize=None)
def _gamma_point_sets(which):
    """Two point sets of ``gamma``, as ``(fol, z1, z2, out)``: the one
    ``gamma`` call of a pipeline run, on the 81 level-consistency points,
    and the finite-difference oracle's polar stencil of the lambda grid's
    191 distinct points (17 x 191), which the pipeline read until it took
    exact jets.

    ``perturbed`` is the ``_PERTURBED`` set at ``eps1=0.003``.
    """
    knobs = family.default_knobs()
    if which == "default":
        par = default_params()
    else:
        par = validate_params(_PERTURBED)
        knobs = dataclasses.replace(knobs, eps1=0.003)
    gamma = family._Foliation.gamma
    calls = []

    def recording(self, z1, z2):
        out = gamma(self, z1, z2)
        calls.append((self, np.ravel(z1), np.ravel(z2), np.ravel(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(family._Foliation, "gamma", recording)
        ok, _ = family.run_verification(par, knobs)
    assert ok and len(calls) == 1 and calls[0][1].size == 81
    fam = family.build_family(par, 16, knobs)
    R1, R2 = lambda_stencil(family.verification_grid(fam, 1) + family.verification_grid(fam, 2))
    assert R1.size == 17 * 191
    return calls[0], (fam.fol, R1 + 0j, R2 + 0j, fam.fol.gamma(R1 + 0j, R2 + 0j))


# level_consistency and the lambda grid's polar stencil (h and 2h rings)
@pytest.mark.parametrize("which", ["default", "perturbed"])
@pytest.mark.parametrize("call", range(2))
def test_dish_roots_end_in_an_adjacent_float_bracket(which, call):
    fol, z1, z2, out = _gamma_point_sets(which)[call]
    _, dish, q1, q2 = _gamma_by_bisection(fol, z1, z2)
    assert dish.sum() > 0
    assert np.all(_in_adjacent_bracket(lambda t: fol.dish(t, q1[dish]), out[dish], q2[dish]))


# the dish points of the level points and of the polar stencil of the 191
# distinct lambda-grid points, on both sets (1,625 and 1,557 in all while
# the pipeline's stencil took all 253 grid points and the 3-form sweeps'
# 230 samples)
@pytest.mark.parametrize("which", ["default", "perturbed"])
def test_gamma_agrees_with_the_bisection_oracle(which):
    n_dish, n_same = [], 0
    for fol, z1, z2, out in _gamma_point_sets(which):
        ref, dish, _, _ = _gamma_by_bisection(fol, z1, z2)
        assert np.array_equal(np.isnan(out), np.isnan(ref))
        assert out[~dish].tobytes() == ref[~dish].tobytes()
        np.testing.assert_allclose(out[dish], ref[dish], rtol=0, atol=1e-12)
        n_dish.append(int(dish.sum()))
        n_same += int(np.sum(out[dish] == ref[dish]))
    # the pipeline's one call has 27 dish points, 3 on each of 9 slices
    assert n_dish == [27, 1071]
    assert n_same >= 0.995 * sum(n_dish)


def test_gamma_outside_the_dish_bracket_is_nan_without_warnings():
    fol = _family16().fol
    _, xl, xr = fol.cap(0.5)
    good = 0.5 * (float(xl) + float(xr))
    q1 = np.array([good, good, good, 3.0, -3.0, good])
    q2 = np.array([float(fol.dish(0.5, good)), 5.0, -50.0, 0.0, 0.0, -np.inf])
    z1 = np.exp(q1) + 0j
    z2 = np.exp(q2) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fol.gamma(z1, z2)
        none = fol.gamma(z1[1:], z2[1:])
    assert out[0] == pytest.approx(0.5, abs=1e-12)
    assert np.isnan(out[1:]).all() and np.isnan(none).all()


def test_gamma_on_the_h_stencil_makes_at_most_32_dish_calls(calls):
    # the lambda grid's polar stencil, its h and 2h rings in one call
    fol, z1, z2, _ = _gamma_point_sets("default")[1]
    dish = calls(family._Foliation, "dish")
    fol.gamma(z1, z2)
    assert len(dish) <= 32


# the perturbed set's lambda-grid stencil (call 1) has a point whose secant
# window misses the root: a wider window catches it, where bisecting all of
# [TAU_LO, TAU_HI] took 66 dish calls per Cartesian jet
@pytest.mark.parametrize("call", [1])
def test_gamma_on_the_perturbed_stencils_makes_at_most_36_dish_calls(calls, call):
    fol, z1, z2, out = _gamma_point_sets("perturbed")[call]
    dish = calls(family._Foliation, "dish")
    again = fol.gamma(z1, z2)
    assert len(dish) <= 36
    assert again.tobytes() == out.tobytes()


def test_gamma_is_nan_outside_the_collar():
    gam = _family16().fol.gamma
    assert math.isnan(gam(2.0 + 0.0j, 0.5 + 0.0j))
    arr = gam(np.array([2.0 + 0.0j]), np.array([0.5 + 0.0j]))
    assert np.isnan(arr).all()


def test_normalized_potential_is_affine_in_gamma():
    fam = _family16()
    gam = fam.fol.gamma
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
    assert lam == pytest.approx(9.592311326478931, rel=1e-9)
    assert cert.grid == "191 points: verification_grid(fam, 2)"
    assert cert.margin > 0
    # lambda is the largest root padded by its rounding bound; it is set, and
    # the margin is least, at wall1's top point on the lowest level: tau =
    # 0.1, 3e-3 below y_cut
    assert 0 < cert.details["error_estimate"] < 1e-9
    fol = _family16().fol
    q2 = float(fol.y_cut(0.1)) - 3e-3
    assert cert.worst_point == pytest.approx((fol.wall1(0.1, math.exp(q2)), math.exp(q2)),
                                             rel=1e-15)


def _lambda_grid():
    fam = _family16()
    return family.verification_grid(fam, 1) + family.verification_grid(fam, 2)


def _golden(pts):
    """``verification_grid``'s real points at the golden angles they once
    took: consecutive angles over the moduli of each point's ``(z1, z2)``,
    then one on ``z1`` of each of the two binding-plane points."""
    ang = np.exp(2j * math.pi * ((np.arange(2 * len(pts) - 2) * GOLD) % 1.0))
    radii = np.array([(a.real, b.real) for a, b in pts[:-2]]).ravel()
    z = (radii * ang[:-2]).reshape(-1, 2)
    return list(zip(z[:, 0], z[:, 1])) + [(a.real * t, b) for (a, b), t in
                                          zip(pts[-2:], ang[-2:])]


@functools.lru_cache(maxsize=None)
def _cartesian_jets(density):
    """``gamma``'s 33-point Cartesian jets at ``h`` and ``2h``: the 4-D oracle
    on the lambda grid (``density`` 0) or on ``verification_grid(fam,
    density)``, at the grid's old golden angles."""
    fam = _family16()
    pts = (_golden(family.verification_grid(fam, 1)) + _golden(family.verification_grid(fam, 2))
           if density == 0 else _golden(family.verification_grid(fam, density)))
    z1, z2 = (np.array([p[i] for p in pts]) for i in (0, 1))
    return tuple(jet(fam.fol.gamma, z1, z2, h) for h in (1e-5, 2e-5))


def _lambda_4d(jets, tol=1e-8):
    """The closed form on 4-D jets: per-point roots at h and 2h, padded by
    their difference; returns ``(lambda, error_estimate)``."""
    roots = []
    for _, g, H in jets:
        A11, A22, A12 = _levi_entries(H)
        B11, B22, B12 = _levi_entries(g[:, :, None] * g[:, None, :])
        A11, A22 = A11 - tol, A22 - tol
        det = A11 * A22 - abs(A12) ** 2
        c = A11 * B22 + A22 * B11 - 2.0 * np.real(A12 * np.conj(B12))
        roots.append(np.maximum(0.0, -det / c))
    a, b = roots
    per_point = np.maximum(a, b) + abs(a - b)
    k = int(np.argmax(per_point))
    return float(per_point[k]), float(abs(a[k] - b[k]))


def _min_eig_4d(jets, lam):
    return [float(levi_min_eig(H + lam * g[:, :, None] * g[:, None, :]).min())
            for _, g, H in jets]


def test_polar_lambda_passes_the_cartesian_oracle():
    lam, cert = _lambda()
    jets = _cartesian_jets(0)
    # the reported lambda passes an independent 4-D check at both steps
    assert min(_min_eig_4d(jets, lam)) > cert.details["tol"]
    # and agrees with the 4-D closed form within both error estimates:
    # 9.592311 vs 9.592855, 5.4e-4 <= 1.6e-10 + 8.1e-4
    lam_4d, err_4d = _lambda_4d(jets)
    assert lam_4d == pytest.approx(9.592854823272186, rel=1e-9)
    assert abs(lam - lam_4d) <= cert.details["error_estimate"] + err_4d


@pytest.mark.parametrize("which, lam, margin", [
    ("default", 9.593949631370169, 2.6649569917935878e-05),
    ("0.003", 23.59339261249809, 3.186892718076706e-05),
    ("0.004", 146.7028192738433, 0.00024312734603881836)])
def test_lifted_lambda_keeps_the_polar_bits_on_the_old_grid(which, lam, margin):
    # the Levi form read through polar_lift and the generic Levi entries gives
    # the bits the 2x2 polar formulas gave on the golden-angle lambda grid;
    # the real-slice grid moves the moduli by an ulp, and 0.004's lambda by 2.7e-8
    fam = _family_for(which)
    grid = _golden(family.verification_grid(fam, 1)) + _golden(family.verification_grid(fam, 2))
    got, cert = find_lambda(fam.fol.gamma, grid)
    assert (got, cert.margin) == (lam, margin)


def test_polar_lambda_on_the_density_16_grid_passes_the_cartesian_oracle():
    # 9,557 points, where the 4-D minimum eigenvalues at lambda are about
    # 1.5e-6 (h) and 5.9e-7 (2h)
    fam = _family16()
    lam, cert = find_lambda(fam.fol.gamma, family.verification_grid(fam, 16))
    assert cert.passed and cert.grid == "9557 pts"
    assert min(_min_eig_4d(_cartesian_jets(16), lam)) > cert.details["tol"]


def _lambda_levels(fam):
    """The level of each point of ``family._lambda_jets``."""
    t, q2, _ = family._lattice(fam.fol, 2)
    t = np.broadcast_to(t, q2.shape).ravel()
    return np.concatenate([t, family.AXIS_LEVELS, t, t])


# the lambda-grid points whose h_rel = 1e-4 polar stencil leaves the thin
# collar of _PERTURBED (NaN): wall1's top row, 3e-3 below y_cut, on the
# lowest levels
_STENCIL_OUTSIDE = {"default": [], "0.003": [54], "0.004": list(range(54, 62))}


@pytest.mark.parametrize("which, lam", [
    ("default", 9.592311326478931), ("0.003", 23.585807027779314),
    ("0.004", 146.6906264272343)])
def test_exact_roots_agree_with_the_stencil_oracle(which, lam):
    # at h_rel = 1e-4 every stencil root below the top slice lies within its
    # h/2h spread, plus a 2e-5 relative rounding floor (the stencil's own
    # noise reaches 4.5e-6), of the exact root; only the points where the
    # stencil leaves the collar are excluded
    fam = _family_for(which)
    jets = family._lambda_jets(fam)
    exact = levi._rank_one_roots(jets, levi._PSH_TOL)[4]
    a, b = stencil_roots(fam.fol.gamma, jets.r1, jets.r2, 1e-4)
    outside = np.isnan(a + b)
    assert np.flatnonzero(outside).tolist() == _STENCIL_OUTSIDE[which]
    below = (_lambda_levels(fam) < 1.0) & ~outside
    assert below.sum() == 169 - outside.sum()
    assert np.all((np.abs(a - exact) <= np.abs(a - b) + 2e-5 * exact)[below])
    got, cert = family.find_collar_lambda(fam, 1e4)
    assert got == lam and cert.passed and cert.margin > 0
    assert exact.max() < got <= exact.max() + 2.0 * cert.details["error_estimate"]


def test_top_slice_dish_jets_are_one_sided():
    # at tau = 1, y_cut is the end of f2's domain and f2c_x'' jumps: the
    # dish jets take L'' from inside, so they are the limit of the slices
    # below; the polar stencil straddles the jump, and 4 of the 7 top-slice
    # dish roots are 9.9e-5 to 1.3e-3 off (its O(h^2) error on the dish below
    # the top slice is at most 1.7e-5)
    fam = _family16()
    fol = fam.fol
    q = family._lattice(fol, 2)[2][:, -1]
    at, h, h2 = (family._dish_jet(fol, np.full(q.size, t), q) for t in (1.0, 1 - 1e-7, 1 - 2e-7))
    for name in ("g1", "g2", "h11", "h12", "h22", "det", "N"):
        np.testing.assert_allclose(getattr(at, name), 2 * getattr(h, name) - getattr(h2, name),
                                   rtol=1e-10)
    jets = family._lambda_jets(fam)
    dish_top = np.flatnonzero(_lambda_levels(fam) == 1.0)[-7:]
    exact = levi._rank_one_roots(jets, levi._PSH_TOL)[4][dish_top]
    a, _ = stencil_roots(fol.gamma, jets.r1[dish_top], jets.r2[dish_top], 1e-4)
    off = np.abs(a - exact)
    assert np.flatnonzero(off > 9e-5).tolist() == [0, 1, 2, 6] and off.max() < 1.3e-3


@pytest.mark.parametrize("depth_frac", [0.1, 0.2, 0.3, 0.45, 0.6])
def test_the_eps1_0_008_cells_end_in_a_pass_or_a_named_certificate(depth_frac):
    # the 2h polar stencil left wall1's 2.2e-4-wide collar there and ended in
    # a DomainError; the exact jets read no gamma, and the lambda is set at
    # the axis point on level 0.3
    knobs = dataclasses.replace(family.default_knobs(), eps1=0.008, depth_frac=depth_frac)
    if depth_frac == 0.6:
        with pytest.raises(VerificationError) as ei:
            family.run_verification(default_params(), knobs)
        assert ei.value.certificate.name == "clearances"
        return
    ok, rep = family.run_verification(default_params(), knobs)
    cert = rep["checks"]["find_lambda"]
    assert ok and cert["passed"] and cert["margin"] > 0
    assert rep["lambda"] == pytest.approx(449.53665384417343, rel=1e-12)
    assert cert["worst_point"][1]["re"] == pytest.approx(family.AXIS_RADIUS, rel=1e-14)


def _lambda_rows_each_once(r1, r2):
    """The oracle's ``_distinct_rows`` with every row its own: find_lambda's
    stencil on every grid point, repeats included."""
    idx = np.arange(r1.size)
    return idx, idx


@pytest.mark.parametrize("which", ["default", "perturbed", "repeated"])
def test_lambda_on_the_distinct_rows_matches_the_full_stencil(monkeypatch, calls, which):
    # the finite-difference oracle reads gamma on the polar stencil of the
    # grid's distinct rows; the reference reads it on the full 17 x 253 =
    # 4,301-point stencil and hands every value to lambda_from_values. 62 of
    # the 253 points of densities 1 and 2 repeat density 1's points inside
    # density 2's, bit for bit
    fam = _family_for("0.003") if which == "perturbed" else _family16()
    grid = family.verification_grid(fam, 1) + family.verification_grid(fam, 2)
    if which == "repeated":
        grid = [p for p in grid for _ in range(2)]
    gamma = calls(family._Foliation, "gamma")
    got = find_lambda(fam.fol.gamma, grid)
    with pytest.raises(Exhausted) as got_err:
        find_lambda(fam.fol.gamma, grid, lambda_max=5.0)
    with monkeypatch.context() as mp:
        mp.setattr(_levi_oracle, "_distinct_rows", _lambda_rows_each_once)
        want = find_lambda(fam.fol.gamma, grid)
        with pytest.raises(Exhausted) as want_err:
            find_lambda(fam.fol.gamma, grid, lambda_max=5.0)
    assert gamma == [17 * 191] * 2 + [17 * len(grid)] * 2
    assert got[0] == want[0]
    assert json.dumps(got[1].to_dict()) == json.dumps(want[1].to_dict())
    assert got[1].grid == f"{len(grid)} pts"
    assert str(got_err.value) == str(want_err.value)




def test_the_closed_form_grid_holds_every_knot():
    for model in (_model(), _perturbed_model()):
        xs = family._sphere_abscissas(model)
        for x in xs.values():
            assert np.all(np.diff(x) > 0)
        assert set(model.f2.meta["spline"]["breakpoints"]) <= set(xs["H2"].tolist())
        assert set(model.htilde.ppoly.x.tolist()) <= set(xs["S"].tolist())
        assert xs["H1"][-1] == xs["H2"][-1] == model.y_star
        assert (xs["S"][0], xs["S"][-1]) == model.window


def test_no_sphere_certificate_takes_lam_or_calls_gamma(monkeypatch):
    fam = family.build_family(default_params(), 16)

    def no_gamma(self, z1, z2):
        raise AssertionError("gamma called")

    monkeypatch.setattr(family._Foliation, "gamma", no_gamma)
    for check in (family.pseudoconcavity_check, family.compatibility_check):
        assert list(inspect.signature(check).parameters) == ["fam"]
        assert check(fam).passed


def test_pseudoconcavity_certificate():
    cert = family.pseudoconcavity_check(_family16())
    assert cert.passed
    d = cert.details
    assert d["method"] == "closed_form"
    assert all(v < 0 for v in d["per_piece_max"].values())
    # beta ^ d beta peaks on the right wall at f2's knot 0.0847498, where the
    # end ramp of its piecewise-linear L'' starts; the nearest area-uniform
    # point, 0.0834939, reads 4.995299
    assert cert.margin == pytest.approx(4.988358573941308, rel=1e-12)
    knot = _model().f2.meta["spline"]["breakpoints"][-2]
    assert math.log(cert.worst_point[1].real) == pytest.approx(knot, abs=1e-15)
    assert 0.0 < d["error_estimate"] < 1e-11
    assert cert.grid.startswith("278 points (H1 113, H2 128, S 37)")


def test_compatibility_three_subcertificates():
    cert = family.compatibility_check(_family16())
    assert cert.passed
    parts = {c["name"]: c for c in cert.details["parts"]}
    assert set(parts) == {"binding_pairing", "page_area_form", "frame_span"}
    bind = parts["binding_pairing"]
    assert bind["passed"]
    # -c1 / (rho2 - c1) and c2 / (c2 - 1)
    assert bind["details"]["value_c1"] == pytest.approx(-104.0, rel=1e-13)
    assert bind["details"]["value_c2"] == pytest.approx(51.0, rel=1e-13)
    pages = parts["page_area_form"]
    assert pages["passed"] and pages["details"]["method"] == "closed_form"
    assert pages["margin"] == pytest.approx(1.0520863303073411, rel=1e-12)
    for rng in pages["details"]["per_piece_range"].values():
        assert rng[0] > 0
    span = parts["frame_span"]
    assert span["passed"] and span["margin"] == pytest.approx(6.767204e-4, rel=1e-6)


def _turned(z, phase):
    """``z`` turned by ``phase`` and then moved by a few ulps, so that
    ``abs`` returns the bits of ``abs(z)``."""
    r, w = abs(z), z * cmath.exp(1j * phase)
    for i, j in sorted(itertools.product(range(-3, 4), repeat=2), key=lambda s: s[0] ** 2 + s[1] ** 2):
        v = complex(w.real + i * math.ulp(w.real), w.imag + j * math.ulp(w.imag))
        if abs(v) == r:
            return v
    raise AssertionError(f"no turn of {z!r} keeps its modulus")


def _assert_the_oracle_agrees(forms, top, on):
    """The closed forms at the points ``on`` against the 4-D oracle's
    ``forms``: the same sign at both steps, and a value within the oracle's
    h/2h spread plus its rounding floor.  A step difference measures
    truncation, not the rounding noise of a second difference, about eps /
    h_rel^2 = 2e-8 of gamma at h_rel = 1e-4, which |grad gamma| lifts to at
    most 8e-6 of the contact term on these grids."""
    for name in ("contact", "page", "span"):
        closed = getattr(top, name)[on]
        a, b = forms[name]
        assert np.array_equal(np.sign(a), np.sign(closed)), name
        assert np.array_equal(np.sign(b), np.sign(closed)), name
        assert np.all(np.abs(a - closed) <= np.abs(a - b) + 2e-5 * np.abs(closed)), name


@pytest.mark.parametrize("which, contact, page, span", [
    ("default", 4.995298958602527, 1.0520863303073411, 6.767204e-4),
    ("0.003", 5.422294405008791, 1.019795926661679, 4.960433e-4)])
def test_the_4d_oracle_agrees_with_the_closed_forms(which, contact, page, span):
    # at every grid point clear of the knots and corners (clear_of_knots), on
    # the real slice, at h_rel = 1e-4; the certificate's own worst point is a
    # knot, where only the closed form reads the one value both sides share
    fam = _family_for(which)
    top = fam.top_slice
    on = clear_of_knots(fam)
    assert 210 < on.sum() < on.size
    forms = sphere_forms_4d(fam, top.tags[on], top.r1[on] + 0j, top.r2[on] + 0j)
    _assert_the_oracle_agrees(forms, top, on)
    assert -float(np.max(top.contact[on])) == pytest.approx(contact, rel=1e-12)
    assert -float(np.max(forms["contact"][0])) == pytest.approx(contact, rel=1e-4)
    assert float(np.min(forms["page"][0])) == pytest.approx(page, rel=1e-7)
    assert float(np.min(forms["span"][0])) == pytest.approx(span, rel=1e-6)
    # the oracle reads r2 = 0 at |z2| = h, where gamma's wall2 level takes f2
    # at its domain end x_lo = -8, 5.6e-10 below the germ's limit c2
    np.testing.assert_allclose(forms["binding"], top.binding, rtol=1e-7)


@pytest.mark.parametrize("turn", range(3))
def test_the_sweeps_are_torus_invariant(turn):
    # the closed forms read each point at the real point of its torus orbit;
    # the 4-D oracle at the points turned by two random phases agrees
    fam = _family16()
    top = fam.top_slice
    on = clear_of_knots(fam)
    phases = np.random.default_rng(20240603).uniform(0.0, 2.0 * math.pi, (3, 2))[turn]
    z1, z2 = (np.array([_turned(complex(r), ph) for r in rr[on].tolist()])
              for rr, ph in ((top.r1, phases[0]), (top.r2, phases[1])))
    assert z1[0].imag != 0.0 and z2[0].imag != 0.0
    _assert_the_oracle_agrees(sphere_forms_4d(fam, top.tags[on], z1, z2), top, on)


def _sample_frames_by_loop(model, samples):
    """The sweep frames built one sample at a time: the reference for the
    array pass."""
    def unit(v):
        return v / np.linalg.norm(v)

    rows = []
    for z1, z2, tag in samples:
        r1, r2 = abs(z1), abs(z2)
        u1, u2 = z1 / r1, z2 / r2
        if tag == "H1":
            dq = (float(model.f1.dL(math.log(r2))), 1.0)
        elif tag == "H2":
            dq = (-float(model.f2.dL(math.log(r2))), -1.0)
        else:
            dq = (1.0, -float(model.htilde.df(math.log(r1))))
        rows.append((unit(np.array([-z1.imag, z1.real, 0.0, 0.0])),
                     unit(np.array([0.0, 0.0, -z2.imag, z2.real])),
                     unit(np.array([u1.real * dq[0] * r1, u1.imag * dq[0] * r1,
                                    u2.real * dq[1] * r2, u2.imag * dq[1] * r2]))))
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("which", ["default", "perturbed"])
@pytest.mark.parametrize("n", [100, 240, 1000])
def test_sample_frames_match_the_scalar_loop_bit_for_bit(which, n):
    # the 4-D oracle's frames at the real points of the model samples
    model = _model() if which == "default" else _perturbed_model()
    samples = [(complex(abs(pt.z1)), complex(abs(pt.z2)), tag)
               for pt, tag in family.sample_M1(model, n)]
    z1, z2, tags = (np.array(col) for col in zip(*samples))
    got = sphere_frames(model, tags, z1, z2)
    ref = _sample_frames_by_loop(model, samples)
    for name, a, b in zip(("e1", "e2", "V"), got, ref):
        assert a.shape == (n, 4)
        # either side's angular entries at the real slice may be -0.0
        assert (a + 0.0).tobytes() == (b + 0.0).tobytes(), name


# ---------------------------------------------------------------------------
# array passes against the loops they replaced
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _family_for(which):
    """The 16-slice family of the default set or of ``_PERTURBED`` at
    ``eps1`` 0.003 / 0.004."""
    if which == "default":
        return _family16()
    knobs = dataclasses.replace(family.default_knobs(), eps1=float(which))
    return family.build_family(validate_params(_PERTURBED), 16, knobs)


_WHICH = ["default", "0.003", "0.004"]


def _verification_grid_by_loop(fam, density=1):
    fol = fam.fol
    pts = []
    t_vals = np.linspace(0.1, 1.0, 4 * density + 1)
    for t in t_vals:
        yc = float(fol.y_cut(t))
        for q2 in np.linspace(-2.0, yc - 3e-3, 3 * density + 1):
            r2 = math.exp(q2)
            pts.append((complex(fol.wall1(t, r2)), complex(r2)))
            pts.append((complex(fol.wall2(t, q2)), complex(r2)))
        _, xl, xr = map(float, fol.cap(t))
        for s in np.linspace(0.05, 0.95, 3 * density + 1):
            q1 = xl + s * (xr - xl)
            q2 = float(fol.dish(t, q1))
            pts.append((complex(math.exp(q1)), complex(math.exp(q2))))
    for t in (0.3, 1.0):
        pts.append((complex(fol.wall1(t, 1e-4)), 1e-4 + 0j))
    return pts


@pytest.mark.parametrize("which", _WHICH)
@pytest.mark.parametrize("density", [1, 2, 4])
def test_verification_grid_matches_the_loop_bit_for_bit(which, density):
    fam = _family_for(which)
    got = family.verification_grid(fam, density)
    ref = _verification_grid_by_loop(fam, density)
    assert len(got) == len(ref)
    for col in (0, 1):
        a = np.array([p[col] for p in got], dtype=complex)
        b = np.array([p[col] for p in ref], dtype=complex)
        assert a.tobytes() == b.tobytes()


def _level_points_by_loop(fol, slices):
    pts = []
    for t in slices:
        for q2 in (-1.5, -0.2, float(fol.y_cut(t)) - 0.004):
            pts.append((t, fol.wall1(t, math.exp(q2)) * np.exp(0.9j), math.exp(q2) + 0j))
            pts.append((t, fol.wall2(t, q2) * np.exp(-1.7j), math.exp(q2) + 0j))
        _, xl, xr = map(float, fol.cap(t))
        for s in (0.1, 0.5, 0.9):
            q1 = xl + s * (xr - xl)
            q2 = float(fol.dish(t, q1))
            pts.append((t, np.exp(q1 + 0.3j), np.exp(q2 - 1.1j)))
    return tuple(np.array(col) for col in zip(*pts))


@pytest.mark.parametrize("which", _WHICH)
def test_level_points_match_the_loop_bit_for_bit(which):
    fam = _family_for(which)
    for slices in (fam.taus[::2], fam.taus, (0.1, 0.7, 1.0)):
        got = family._level_points(fam.fol, slices)
        ref = _level_points_by_loop(fam.fol, slices)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _nesting_by_loop(fol, taus):
    """The per-ray nesting sweep: the rays, the smallest gap and where it
    sits, or the FoliationError of the first ray that fails."""
    t_arr = np.asarray(taus, float)
    rays = []
    q2_top = float(fol.y_cut(t_arr.min())) - 1e-3
    for q2 in np.linspace(-5.5, q2_top, 28):
        rays.append((f"wall1 q2={q2:.4f}", -fol.wall1(t_arr, math.exp(q2))))
    for q2 in np.linspace(-5.5, q2_top, 28):
        rays.append((f"wall2 q2={q2:.4f}", fol.wall2(t_arr, q2)))
    _, xl, xr = map(float, fol.cap(t_arr.min()))
    for q1 in np.linspace(xl + 2e-3, xr - 2e-3, 8):
        rays.append((f"dome q1={q1:.4f}", fol.dish(t_arr, q1)))
    min_gap, worst = float("inf"), None
    for name, radial in rays:
        gaps = np.diff(radial)
        k = int(np.argmin(gaps))
        if gaps[k] < min_gap:
            min_gap = float(gaps[k])
            worst = (name, taus[k], taus[k + 1])
        if gaps[k] < family.NESTING_FLOOR:
            raise FoliationError(
                f"slices tau={taus[k]:.6g} and tau={taus[k + 1]:.6g} meet "
                f"along ray '{name}' (gap {gaps[k]:.3g} < {family.NESTING_FLOOR:g})")
    return rays, min_gap, worst


def _sweep_inputs(which):
    """``(fol, taus, params)``: a family of ``_family_for``, or, for
    ``"nan_c2"``, the default model under a ``c2`` curve that is NaN below
    tau 0.3, which makes the wall2 and dome sweeps NaN on the lower slices."""
    if which != "nan_c2":
        fam = _family_for(which)
        return fam.fol, fam.taus, fam.model.params
    fol = family._Foliation(_model())
    c2 = fol.c2
    fol.c2 = lambda t: np.where(np.asarray(t) < 0.3, np.nan, c2(t))
    return fol, (0.1, 0.2, 0.4, 1.0), fol.model.params


@pytest.mark.parametrize("kind", ["constant", "c1_only", "c2_only", "creep"])
def test_degenerate_curves_name_the_first_failing_ray(kind, monkeypatch):
    par = default_params()
    const = {"c1": _constant(par.c1), "c2": _constant(par.c2)}
    # the curves that stand in for the linear ones
    curves = {
        "constant": const,
        "c1_only": {"c2": const["c2"]},
        "c2_only": {"c1": const["c1"]},
        # wall1 rays creep (gaps about 1e-10 > 0) while wall2 rays stand
        # still (gaps 0): the first failing ray has not the smallest gap
        "creep": {"c1": lambda t: par.c1 + 1e-9 * (1.0 - np.asarray(t, float)),
                  "c2": const["c2"]},
    }[kind]
    taus = tuple((i + 1) / 8 for i in range(8))
    fol = family._Foliation(family.build_M1(par))
    for name, fn in curves.items():
        setattr(fol, name, fn)
    with pytest.raises(FoliationError) as ref:
        _nesting_by_loop(fol, taus)
    _patch_curves(monkeypatch, curves)
    with pytest.raises(FoliationError) as got:
        family.build_family(par, 8)
    assert str(got.value) == str(ref.value)
    if kind == "creep":
        assert "ray 'wall1 q2=-5.5000'" in str(got.value)
        assert "(gap 0 <" not in str(got.value)


@pytest.mark.parametrize("which", [*_WHICH, "nan_c2"])
def test_nesting_matches_the_loop_bit_for_bit(which):
    fol, taus, _ = _sweep_inputs(which)
    names, radial = family._nesting_rays(fol, taus)
    rays, min_gap, worst = _nesting_by_loop(fol, taus)
    assert names == [name for name, _ in rays]
    assert radial.tobytes() == np.stack([r for _, r in rays]).tobytes()
    if which == "nan_c2":
        # the loop's ``gap < floor`` passes over a NaN gap; a NaN fails
        # like a gap below the floor, at the first ray that has one
        assert worst[0].startswith("wall1")
        with pytest.raises(FoliationError) as ei:
            family._nesting_cert(fol, taus)
        assert "along ray 'wall2 q2=-5.5000' (gap nan <" in str(ei.value)
        return
    cert = family._nesting_cert(fol, taus)
    assert cert.margin == min_gap and cert.worst_point == worst


def _slice_shape_by_loop(fol, taus, params):
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
        _, xl, xr = map(float, fol.cap(t))
        gaps["cap_window"] = min(gaps["cap_window"], xr - xl)
        gaps["cap_above_band"] = min(gaps["cap_above_band"], xl - lz2)
        gaps["peak_headroom"] = min(gaps["peak_headroom"],
                                    q2_strip_top - (yc + float(fol.D(t))))
    return gaps


@pytest.mark.parametrize("which", [*_WHICH, "nan_c2"])
def test_slice_validity_matches_the_loop_bit_for_bit(which):
    fol, taus, params = _sweep_inputs(which)
    for taus in (taus, taus[::3], (0.05, 0.5, 1.2)):
        cert = family._slice_shape_cert(fol, taus, params)
        ref = _slice_shape_by_loop(fol, taus, params)
        assert list(cert.details) == list(ref)
        if which == "nan_c2":
            # every level set holds a NaN slice: a NaN gap and a failing
            # certificate, where the loop's running min drops the NaN
            finite = [k for k, v in cert.details.items() if not math.isnan(v)]
            assert 0 < len(finite) < len(ref)
            assert all(cert.details[k] == ref[k] for k in finite)
            assert math.isnan(cert.margin) and not cert.passed
            continue
        assert np.array(list(cert.details.values())).tobytes() == \
            np.array(list(ref.values())).tobytes()
        assert cert.margin == min(ref.values())


def _membership_by_loop(model, n=400):
    p = model.params
    lz1, lz2 = math.log(p.zeta1), math.log(p.zeta2)
    samples = family.sample_M1(model, n)
    bad = 0
    worst = None
    dist = float("inf")
    for pt, tag in samples:
        if not in_complement_C(p, pt):
            bad += 1
            worst = (tag, pt.z1, pt.z2)
        q = math.log(abs(pt.z1))
        dist = min(dist, max(lz1 - q, q - lz2))
    return bad, worst, dist


def _banded_model(model, lo_q, hi_q):
    """``model`` with the removed band moved between two quantiles of the
    samples' ``|z1|``."""
    r1 = np.array([abs(pt.z1) for pt, _ in family.sample_M1(model, 400)])
    lo, hi = np.quantile(r1, [lo_q, hi_q])
    return dataclasses.replace(model, params=dataclasses.replace(
        model.params, zeta1=float(lo), zeta2=float(hi)))


@pytest.mark.parametrize("case", ["default", "perturbed", "band_low", "band_mid"])
def test_membership_matches_the_loop(case):
    model = _model() if case != "perturbed" else _perturbed_model()
    if case == "band_low":
        model = _banded_model(model, 0.02, 0.1)
    elif case == "band_mid":
        model = _banded_model(model, 0.4, 0.6)
    cert = family._membership_cert(model)
    bad, worst, dist = _membership_by_loop(model)
    assert cert.details == {"violations": bad, "min_band_distance": dist}
    assert cert.worst_point == worst
    assert cert.passed == (bad == 0 and dist > 0)
    if case.startswith("band"):
        samples = family.sample_M1(model, 400)
        r1 = np.array([abs(pt.z1) for pt, _ in samples])
        inside = np.flatnonzero((model.params.zeta1 < r1) & (r1 < model.params.zeta2))
        assert bad == inside.size > 10 and cert.margin == -float(bad)
        pt, tag = samples[inside[-1]]
        assert cert.worst_point == (tag, pt.z1, pt.z2)


def _parent_f2c_x(fol, x):
    """``f2c_x`` composed through ``Profile.L`` with its domain check."""
    f2 = fol.model.f2
    x = np.asarray(x, float)
    core = f2.L(np.clip(x, f2.x_lo, f2.x_hi))
    return np.exp(core + float(f2.dL(f2.x_hi)) * np.maximum(x - f2.x_hi, 0.0))


def _parent_ends(fol, t):
    """The cap window's ends composed separately, each with its own ``y_cut``."""
    xl = np.log(fol.wall1(t, np.exp(fol.y_cut(t))))
    yc = fol.y_cut(t)
    xr = np.log(1.0 + fol.g2(t) * (_parent_f2c_x(fol, yc) - 1.0)) + yc
    return xl, xr


def _parent_dish(fol, t, q1):
    t = np.asarray(t, float)
    q1 = np.asarray(q1, float)
    xl, xr = _parent_ends(fol, t)
    s = (q1 - xl) / (xr - xl)
    return fol.y_cut(t) + np.where(
        s < 0.0, fol.EXT_L * (q1 - xl),
        np.where(s > 1.0, fol.EXT_R * (q1 - xr), fol.D(t) * fol.phat(s)))


def _bits(x):
    return np.asarray(x, float).tobytes()


@pytest.mark.parametrize("which", _WHICH)
def test_dish_matches_the_parent_composition_bit_for_bit(which):
    fol = _family_for(which).fol
    rng = np.random.default_rng(7)
    t = np.concatenate([rng.uniform(fol.TAU_LO, fol.TAU_HI, 2000),
                        [fol.TAU_LO, 1.0, fol.TAU_HI]])
    assert np.sum(t > 1.0) > 300   # y_cut beyond the end of the spline
    xl, xr = _parent_ends(fol, t)
    # both sides of the cap window and its inside
    q1 = xl + rng.uniform(-0.5, 1.5, t.size) * (xr - xl)
    _, cap_l, cap_r = fol.cap(t)
    assert _bits(cap_l) == _bits(xl) and _bits(cap_r) == _bits(xr)
    assert _bits(fol.dish(t, q1)) == _bits(_parent_dish(fol, t, q1))
    q2 = np.linspace(fol.model.f2.x_lo - 0.5, fol.model.f2.x_hi + 0.5, 3001)
    assert _bits(fol.f2c_x(q2)) == _bits(_parent_f2c_x(fol, q2))
    # the sweeps' row-by-column layout and scalar calls
    grid = (t[None, :50], q1[:40, None])
    assert _bits(fol.dish(*grid)) == _bits(_parent_dish(fol, *grid))
    for tt, qq in zip(t[:100].tolist(), q1[:100].tolist()):
        assert _bits(fol.dish(tt, qq)) == _bits(_parent_dish(fol, tt, qq))
        assert _bits(fol.cap(tt)[2]) == _bits(_parent_ends(fol, tt)[1])


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------

def test_run_verification_is_deterministic():
    ok1, rep1 = family.run_verification(default_params())
    ok2, rep2 = family.run_verification(default_params())
    assert ok1 and ok2
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["lambda"] == pytest.approx(9.592311326478931, rel=1e-9)
    for cert in rep1["checks"].values():
        assert cert["passed"]


def test_pipeline_evaluates_gamma_once_per_point_set(calls):
    # one call, on the 81 level-consistency points: the lambda search and
    # the 3-form sweeps read closed forms
    gamma = calls(family._Foliation, "gamma")
    ok, _ = family.run_verification(default_params())
    assert ok
    assert gamma == [81]


def _standalone(par, knobs, n_tau=16, lambda_max=1e4):
    """The pipeline's steps as their own calls, each with its own ``gamma``
    call(s): ``lambda``, the family and the three checks."""
    fam = family.build_family(par, n_tau, knobs)
    lam, cert_lam = family.find_collar_lambda(fam, lambda_max)
    return lam, fam, {"find_lambda": cert_lam,
                      "pseudoconcavity": family.pseudoconcavity_check(fam),
                      "compatibility": family.compatibility_check(fam)}


def _params_knobs(which):
    if which == "default":
        return default_params(), family.default_knobs()
    return (validate_params(_PERTURBED),
            dataclasses.replace(family.default_knobs(), eps1=float(which)))


@pytest.mark.parametrize("which", _WHICH)
def test_run_verification_matches_the_standalone_calls(which):
    par, knobs = _params_knobs(which)
    ok, rep = family.run_verification(par, knobs)
    lam, fam, certs = _standalone(par, knobs)
    assert ok and rep["lambda"] == lam
    assert json.dumps(rep["family"]) == json.dumps(
        {k: c.to_dict() for k, c in sorted(fam.certificates.items())})
    assert json.dumps(rep["checks"]) == json.dumps(
        {k: c.to_dict() for k, c in sorted(certs.items())})


def _nan_level(monkeypatch):
    """Level-consistency point 40 reads NaN: the family certificate fails."""
    gamma = family._Foliation.gamma

    def one_nan(self, z1, z2):
        out = gamma(self, z1, z2)
        out[40] = np.nan
        return out

    monkeypatch.setattr(family._Foliation, "gamma", one_nan)


def _axis_point(monkeypatch):
    """The lambda grid's axis points move to ``|z2| = 1e-200``, where log
    coordinates degenerate: the contact term underflows to 0."""
    monkeypatch.setattr(family, "AXIS_RADIUS", 1e-200)


def _nan_jet(monkeypatch):
    """The right wall's jet reads NaN at lambda-grid point 5."""
    jet = family._wall2_jet

    def one_nan(fol, t, q2):
        out = jet(fol, t, q2)
        if np.ndim(t):   # the lambda grid's levels, not the top slice
            out.h22[5] = np.nan
        return out

    monkeypatch.setattr(family, "_wall2_jet", one_nan)


# (eps1, lambda_max, n_tau, patches): the first error of the standalone
# calls is the pipeline's, a failing family certificate before any of
# find_collar_lambda's errors, and those in find_collar_lambda's order
@pytest.mark.parametrize("eps1, lambda_max, n_tau, patches, error", [
    (0.004, 1e4, 16, (_nan_jet, _axis_point), DomainError),   # before the axis
    (0.004, 5.0, 16, (), Exhausted),
    (0.004, 1e4, 16, (_axis_point,), NotContact),             # on the axis
    (0.004, 5.0, 16, (_axis_point,), NotContact),             # before lambda_max
    (0.004, 5.0, 16, (_nan_level,), VerificationError),
    (0.008, 1e4, 16, (_nan_level, _axis_point), VerificationError),
    (0.004, 1e4, 7, (), DomainError),                         # build_family's
], ids=["not_finite", "exhausted", "axis", "axis_first", "family_first",
        "family_before_axis", "n_tau"])
def test_run_verification_raises_what_the_standalone_calls_raise(
        monkeypatch, eps1, lambda_max, n_tau, patches, error):
    par = default_params()
    knobs = dataclasses.replace(family.default_knobs(), eps1=eps1)
    for patch in patches:
        patch(monkeypatch)
    with pytest.raises(ConcaviaError) as want:
        _standalone(par, knobs, n_tau, lambda_max)
    with pytest.raises(ConcaviaError) as got:
        family.run_verification(par, knobs, n_tau=n_tau, lambda_max=lambda_max)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)
    if isinstance(want.value, VerificationError):
        assert got.value.certificate.to_dict() == want.value.certificate.to_dict()


def test_run_verification_checks_its_arguments_before_the_family(monkeypatch):
    # the slice count is checked before the one gamma call, and so before
    # the family's certificates are read
    _nan_level(monkeypatch)
    with pytest.raises(VerificationError):
        family.build_family(default_params(), 16)
    with pytest.raises(DomainError, match="build_family needs n_tau >= 8"):
        family.run_verification(default_params(), n_tau=7)
