"""End-to-end acceptance battery.

Each test certifies one headline property of the construction and prints a
single ``[PASS]``/``[FAIL]`` line with the measured margins before asserting,
so a bare ``pytest -s tests/test_acceptance.py`` reads as a checklist:

  1. default parameter chain and disjointness margins (sub-millisecond),
  2. gluing-factor branch law and branch independence of the transition,
  3. left-twist conjugation of the monodromy and seam well-definedness,
  4. contact classification of rotational graphs vs. an independently
     assembled alpha ^ d(alpha) sign sweep,
  5. boundary-convexity test on reference and random potentials,
  6. Levi composition and quadratic identities,
  7. the full default pipeline (model, family, lambda search, concavity
     and page/binding compatibility),
  8. the same pipeline on a perturbed parameter set, under two knob
     settings, and the lambda-independence of its contact sign.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import re
import time

import numpy as np
import pytest

from concavia.atlas import default_params, map_Phi, phi, same_point, validate_params
from concavia.levi import (
    ScalarField,
    composition_identity_check,
    d_c,
    grad4,
    hartogs_boundary_test,
    levi_min_eig_batch,
    neg_ddc,
    quadratic_identity_check,
)
from concavia.openbook import TwistSpec, check_disjointness, conjugation_check, welldef_check
from concavia.profiles import ContactTag, Profile, classify_contact, second_derivative_identity_check
from concavia import family

_G1 = (math.sqrt(5.0) - 1.0) / 2.0
_G2 = math.sqrt(2.0) - 1.0


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


# ---------------------------------------------------------------------------
# 1. parameter chain
# ---------------------------------------------------------------------------

def test_default_chain_margins_within_a_millisecond():
    raw = default_params().raw_dict()
    validate_params(raw)  # warm attribute caches before timing
    elapsed = min(
        (lambda t0: (validate_params(raw), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    par = validate_params(raw)
    m_product = par.a - par.rho1 * par.b
    m_ratio = par.a / par.rho1 - par.b
    ok = (
        m_product > 0.0
        and m_ratio > 0.0
        and par.a == pytest.approx(1.04)
        and par.rho1 * par.b == pytest.approx(1.0202, abs=1e-4)
        and par.a / par.rho1 == pytest.approx(1.1556, abs=1e-4)
        and par.b == pytest.approx(1.1336, abs=1e-4)
        and elapsed < 1e-3
    )
    _report(
        "parameter chain",
        ok,
        f"rho1*b={par.rho1 * par.b:.6f} < a={par.a} (margin {m_product:.4f}), "
        f"a/rho1={par.a / par.rho1:.6f} > b={par.b:.6f} (margin {m_ratio:.4f}), "
        f"{elapsed * 1e6:.0f} us",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. gluing soundness
# ---------------------------------------------------------------------------

def test_branch_law_and_transition_branch_independence():
    par = default_params()
    t0 = time.perf_counter()

    worst_rel = 0.0
    n_law = 0
    for i, r in enumerate(np.geomspace(0.55, 0.95, 12)):
        for j in range(10):
            w = r * cmath.exp(2j * math.pi * ((j * _G1 + i * _G2) % 1.0))
            base = phi(w, 0)
            n_law += 1
            for k in range(-3, 4):
                rel = abs(phi(w, k) - w ** k * base) / abs(phi(w, k))
                worst_rel = max(worst_rel, rel)

    mismatches = 0
    n_ind = 0
    lo, hi = 1.0 / par.rho1, 1.0 / par.rho0
    for i, r2 in enumerate(np.linspace(lo + 1e-3, hi - 1e-3, 10)):
        for j, r1 in enumerate(np.geomspace(0.8, 1.2, 10)):
            z1 = r1 * cmath.exp(2j * math.pi * ((i * _G1 + j * _G2) % 1.0))
            z2 = r2 * cmath.exp(2j * math.pi * ((j * _G1) % 1.0))
            base = map_Phi(par, z1, z2, 0)
            n_ind += 1
            for k in (-3, -2, -1, 1, 2, 3):
                if not same_point(par, map_Phi(par, z1, z2, k), base):
                    mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-9 and mismatches == 0 and n_law >= 100 and n_ind >= 100 and elapsed < 1.0
    _report(
        "gluing soundness",
        ok,
        f"branch law worst rel {worst_rel:.2e} on {n_law} points (|k|<=3), "
        f"{mismatches} transition mismatches on {n_ind} points, {elapsed:.2f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. open book monodromy
# ---------------------------------------------------------------------------

def test_left_twist_conjugation_and_seam_closure():
    par = default_params()
    t0 = time.perf_counter()
    conj = conjugation_check(TwistSpec.from_params(par), n=10 ** 4, tol=1e-9)
    seam = welldef_check(par)
    elapsed = time.perf_counter() - t0

    m = re.search(r"(\d+) inner \+ (\d+) outer", seam.grid)
    both_seams = m is not None and int(m.group(1)) > 0 and int(m.group(2)) > 0
    ok = (
        conj.passed
        and conj.grid.startswith("10000 ")
        and seam.passed
        and both_seams
        and seam.details["psi2_shifts"] == [1]
        and elapsed < 5.0
    )
    _report(
        "open book monodromy",
        ok,
        f"conjugation sup err {conj.details['sup_error']:.2e} on {conj.grid}, "
        f"seams {seam.grid} with shift {seam.details['psi2_shifts']}, {elapsed:.2f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. contact classification vs. independent wedge sign
# ---------------------------------------------------------------------------

_X_LO, _X_HI = -1.5, -0.2
# Zero band for the finite-difference wedge: affine profiles measure below
# 1e-4 in magnitude, curved ones above 0.1, so 1e-3 splits them cleanly.
_FLAT_TOL = 1e-3


def _graph_field(L) -> ScalarField:
    """Defining function of the rotational graph ``log|z1| = L(log|z2|)``."""

    def fn(z1, z2):
        return np.asarray(L(np.log(np.abs(z2))), dtype=float) - np.log(np.abs(z1))

    return ScalarField(fn, name="rotational_graph")


def _wedge_value(F: ScalarField, prof: Profile, x: float, th1: float, th2: float) -> float:
    """alpha ^ d(alpha) on an oriented frame of the graph hypersurface.

    Assembled from scratch: normal ``-grad F``, the two angular directions
    and the profile tangent, orientation fixed by the ambient determinant.
    """
    r2 = math.exp(x)
    r1 = math.exp(float(prof.L(x)))
    z1 = r1 * cmath.exp(1j * th1)
    z2 = r2 * cmath.exp(1j * th2)
    p = (z1, z2)
    g = grad4(F, p)
    nu = -g / np.linalg.norm(g)
    u1, u2 = z1 / r1, z2 / r2
    e1 = np.array([-u1.imag, u1.real, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, -u2.imag, u2.real])
    slope = float(prof.dL(x))
    V = np.array([u1.real * slope * r1, u1.imag * slope * r1,
                  u2.real * r2, u2.imag * r2])
    V = V / np.linalg.norm(V)
    if float(np.linalg.det(np.stack([nu, e1, e2, V], axis=1))) < 0.0:
        e2, V = V, e2
    al = [-d_c(F, p, v) for v in (e1, e2, V)]
    da = [neg_ddc(F, p, e2, V), neg_ddc(F, p, e1, V), neg_ddc(F, p, e1, e2)]
    return al[0] * da[0] - al[1] * da[1] + al[2] * da[2]


def _tag_of_wedge(w: float) -> ContactTag:
    if w < -_FLAT_TOL:
        return ContactTag.NegativeContact
    if w > _FLAT_TOL:
        return ContactTag.PositiveContact
    return ContactTag.LeviFlat


def _profile_zoo() -> list[tuple[Profile, ContactTag]]:
    zoo: list[tuple[Profile, ContactTag]] = []

    def add(L, dL, d2L, tag):
        zoo.append((Profile.from_callables(_X_LO, _X_HI, L, dL, d2L), tag))

    # quadratics, both curvature signs
    for a0, b0, c0 in [(0.10, 0.30, 0.15), (-0.05, 0.55, 0.08),
                       (0.20, -0.25, 0.24), (0.00, 0.00, 0.06)]:
        for sgn, tag in ((1.0, ContactTag.NegativeContact),
                         (-1.0, ContactTag.PositiveContact)):
            c = sgn * c0
            add(lambda x, A=a0, B=b0, C=c: A + B * x + C * x * x,
                lambda x, B=b0, C=c: B + 2.0 * C * x,
                lambda x, C=c: 2.0 * C + 0.0 * x,
                tag)

    # exponential germs  beta*x + eps*e^(kappa*x)
    for beta, eps, kap in [(0.4, 0.25, 1.1), (-0.2, 0.35, 0.9)]:
        for sgn, tag in ((1.0, ContactTag.NegativeContact),
                         (-1.0, ContactTag.PositiveContact)):
            e = sgn * eps
            add(lambda x, B=beta, E=e, K=kap: B * x + E * np.exp(K * x),
                lambda x, B=beta, E=e, K=kap: B + E * K * np.exp(K * x),
                lambda x, E=e, K=kap: E * K * K * np.exp(K * x),
                tag)

    # log of a shifted exponential, both signs
    for sgn, tag in ((1.0, ContactTag.NegativeContact),
                     (-1.0, ContactTag.PositiveContact)):
        add(lambda x, S=sgn: S * np.log(0.9 + 0.5 * np.exp(2.0 * x)),
            lambda x, S=sgn: S * np.exp(2.0 * x) / (0.9 + 0.5 * np.exp(2.0 * x)),
            lambda x, S=sgn: S * 1.8 * np.exp(2.0 * x) / (0.9 + 0.5 * np.exp(2.0 * x)) ** 2,
            tag)

    # affine profiles: exactly flat
    for b0, a0 in [(-1.2, 0.05), (-0.6, -0.10), (-0.25, 0.20), (0.0, 0.0),
                   (0.3, 0.15), (0.8, -0.30), (1.5, 0.10)]:
        add(lambda x, A=a0, B=b0: A + B * x,
            lambda x, B=b0: B + 0.0 * x,
            lambda x: 0.0 * x,
            ContactTag.LeviFlat)

    # drop one convex quadratic duplicate shape to land on 21 = 7 + 7 + 7
    assert len(zoo) == 7 + 7 + 7
    return zoo


def test_contact_classification_matches_wedge_sign():
    t0 = time.perf_counter()
    zoo = _profile_zoo()
    disagreements = 0
    tag_errors = 0
    identity_fail = 0
    n_samples = 200
    min_curved = math.inf
    max_flat = 0.0
    for idx, (prof, expected) in enumerate(zoo):
        cls = classify_contact(prof, prof.grid(400, margin=1e-6))
        if cls.tag is not expected:
            tag_errors += 1
        ident = second_derivative_identity_check(prof, prof.grid(200))
        if not ident.passed:
            identity_fail += 1
        F = _graph_field(prof.L)
        off = idx * _G2
        for j in range(n_samples):
            x = _X_LO + (0.06 + 0.88 * ((j * _G1 + off) % 1.0)) * (_X_HI - _X_LO)
            th1 = 2.0 * math.pi * ((j * _G1 + off) % 1.0)
            th2 = 2.0 * math.pi * ((j * _G2) % 1.0)
            w = _wedge_value(F, prof, x, th1, th2)
            if expected is ContactTag.LeviFlat:
                max_flat = max(max_flat, abs(w))
            else:
                min_curved = min(min_curved, abs(w))
            if _tag_of_wedge(w) is not cls.tag:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = (
        disagreements == 0
        and tag_errors == 0
        and identity_fail == 0
        and len(zoo) >= 20
        and elapsed < 30.0
    )
    _report(
        "contact classification",
        ok,
        f"{len(zoo)} profiles x {n_samples} samples, {disagreements} wedge-sign "
        f"disagreements, curved |wedge| >= {min_curved:.3g}, flat <= {max_flat:.2e}, "
        f"{identity_fail} identity failures, {elapsed:.1f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. boundary convexity of rotational Hartogs domains
# ---------------------------------------------------------------------------

def _disk_grid(r: float = 0.9, n_side: int = 7) -> list[complex]:
    t = np.linspace(-r, r, n_side)
    return [complex(a, b) for a in t for b in t]


def test_boundary_convexity_sign_agreement():
    t0 = time.perf_counter()
    grid = _disk_grid()
    failures = 0
    n_run = 0

    for psi, regime in [
        (lambda z: np.abs(z) ** 2, "Convex"),
        (lambda z: -np.abs(z) ** 2, "Concave"),
        (lambda z: np.real(z ** 2), "degenerate"),
    ]:
        cert = hartogs_boundary_test(psi, grid)
        n_run += 1
        if not (cert.passed and cert.details["regime"] == regime):
            failures += 1

    rng = np.random.default_rng(1105)
    for _ in range(20):
        a = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.normal() * 0.5 + 1j * rng.normal() * 0.5
        c = rng.normal() * 0.5 + 1j * rng.normal() * 0.5
        d = rng.normal() * 0.2

        def psi(z, a=a, b=b, c=c, d=d):
            return a * np.abs(z) ** 2 + np.real(b * z ** 2 + c * z) + d

        cert = hartogs_boundary_test(psi, grid)
        n_run += 1
        if not (cert.passed and cert.details["regime"] == ("Convex" if a > 0 else "Concave")):
            failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and n_run == 23 and elapsed < 10.0
    _report(
        "boundary convexity",
        ok,
        f"{n_run} potentials (3 reference + 20 random definite-Laplacian), "
        f"{failures} disagreements, {elapsed:.1f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. composition and quadratic identities
# ---------------------------------------------------------------------------

def _shell_points(n: int) -> list[tuple[complex, complex]]:
    pts = []
    for j in range(n):
        r1 = 0.6 + 0.8 * ((j * _G1) % 1.0)
        r2 = 0.6 + 0.8 * ((j * _G2) % 1.0)
        th1 = 2.0 * math.pi * ((j * _G1 + 0.17) % 1.0)
        th2 = 2.0 * math.pi * ((j * _G2 + 0.71) % 1.0)
        pts.append((r1 * cmath.exp(1j * th1), r2 * cmath.exp(1j * th2)))
    return pts


def test_composition_and_quadratic_identities():
    t0 = time.perf_counter()
    pts = _shell_points(100)

    sq = ScalarField(lambda z1, z2: np.abs(z1) ** 2 + np.abs(z2) ** 2, name="sq_norm")
    mixed = ScalarField(
        lambda z1, z2: np.abs(z1) ** 2 + 0.5 * np.abs(z2) ** 2
        + 0.3 * np.real(z1 * np.conj(z2)),
        name="mixed",
    )
    exp_triple = (np.exp, np.exp, np.exp)
    cubic_triple = (lambda t: t ** 3 + t, lambda t: 3.0 * t * t + 1.0, lambda t: 6.0 * t)

    quad_certs = [quadratic_identity_check(f, pts) for f in (sq, mixed)]
    comp_certs = [composition_identity_check(f, g, pts, tol=1e-5)
                  for f in (sq, mixed) for g in (exp_triple, cubic_triple)]
    elapsed = time.perf_counter() - t0

    worst_quad = max(c.details["max_rel_err"] for c in quad_certs)
    worst_comp = max(c.details["max_rel_err"] for c in comp_certs)
    ok = (
        all(c.passed for c in quad_certs + comp_certs)
        and worst_quad < 1e-5
        and worst_comp < 1e-5
        and elapsed < 10.0
    )
    _report(
        "composition identities",
        ok,
        f"quadratic rel err {worst_quad:.2e}, composed rel err {worst_comp:.2e} "
        f"over {len(pts)} sample/vector pairs x {len(comp_certs)} field/transform "
        f"combinations, {elapsed:.1f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. full default pipeline
# ---------------------------------------------------------------------------

def test_default_pipeline_certifies_model_family_and_potential():
    t0 = time.perf_counter()
    par = default_params()
    fam = family.build_family(par, 16)
    n_slices = len(fam.taus)

    ok_run, rep = family.run_verification(par)
    lam = rep["lambda"]

    # independent re-check of the returned lambda on a doubled grid; probe
    # exp(lam*gamma), whose Levi form is the potential's times e^lam > 0, at
    # two steps and remove the O(h^2) error per point before the minimum
    gam = family.gamma_field(fam)
    grid2 = family.verification_grid(fam, 2)
    z1 = np.array([p[0] for p in grid2], dtype=complex)
    z2 = np.array([p[1] for p in grid2], dtype=complex)
    m1, m3 = (levi_min_eig_batch(
        lambda a, b: np.exp(lam * np.asarray(gam.fn(a, b), dtype=float)),
        z1, z2, h_rel) for h_rel in (1e-5, 3e-5))
    refined_min = float((m1 + (m1 - m3) / 8.0).min())

    model_margins = {k: c["margin"] for k, c in rep["model"]["certificates"].items()}
    parts = rep["checks"]["compatibility"]["details"]["parts"]
    elapsed = time.perf_counter() - t0

    ok = (
        ok_run
        and all(m > 0.0 for m in model_margins.values())
        and n_slices >= 16
        and 0.0 < lam <= 1e4
        and rep["checks"]["find_lambda"]["passed"]
        and refined_min > 1e-8
        and rep["checks"]["pseudoconcavity"]["passed"]
        and rep["checks"]["gamma_regularity"]["passed"]
        and len(parts) == 3
        and all(p["passed"] for p in parts)
        and elapsed < 300.0
    )
    _report(
        "default pipeline",
        ok,
        f"model margins min {min(model_margins.values()):.2e} (all > 0), "
        f"{n_slices} nested slices, lambda={lam:.4f} with refined min eig "
        f"{refined_min:.3g} on {len(grid2)} points, concavity + "
        f"{len(parts)} compatibility parts pass, {elapsed:.0f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. perturbed parameter set
# ---------------------------------------------------------------------------

_PERTURBED = {
    "rho0": 0.9, "rho1": 0.92, "rho2": 1.04, "s": 1.12, "c": 0.91,
    "eps": 0.007, "c1": 1.035, "c2": 1.02, "zeta1": 1.032, "zeta2": 1.034,
}


def test_perturbed_parameter_set_passes_full_suite():
    t0 = time.perf_counter()
    par = validate_params(_PERTURBED)
    m_product = par.a - par.rho1 * par.b
    m_ratio = par.a / par.rho1 - par.b

    disj = check_disjointness(par)
    conj = conjugation_check(TwistSpec.from_params(par), n=2000)
    seam = welldef_check(par)

    base = map_Phi(par, 1.05, 1.0 / ((par.rho0 + par.rho1) / 2.0), 0)
    branch_ok = all(
        same_point(par, map_Phi(par, 1.05, 1.0 / ((par.rho0 + par.rho1) / 2.0), k), base)
        for k in (-2, 2)
    )

    runs = {eps1: family.run_verification(
        par, dataclasses.replace(family.default_knobs(), eps1=eps1, eps2=0.005))
        for eps1 in (0.003, 0.004)}
    elapsed = time.perf_counter() - t0

    ok = (
        m_product > 0.0
        and m_ratio > 0.0
        and disj.passed
        and conj.passed
        and seam.passed
        and seam.details["psi2_shifts"] == [1]
        and branch_ok
        and all(ok_run for ok_run, _ in runs.values())
        and all(0.0 < rep["lambda"] <= 1e4 for _, rep in runs.values())
        and elapsed < 300.0
    )
    pipelines = ", ".join(f"eps1={eps1}: lambda={rep['lambda']:.1f} passed={ok_run}"
                          for eps1, (ok_run, rep) in runs.items())
    _report(
        "perturbed parameters",
        ok,
        f"chain margins ({m_product:.4f}, {m_ratio:.4f}), open book + gluing pass, "
        f"pipelines {pipelines}, {elapsed:.0f} s",
    )
    assert ok


def test_contact_sign_is_independent_of_lambda():
    # alpha = -d^C exp(lam (gamma - 1)) = lam u beta with beta = -d^C gamma,
    # so alpha ^ d alpha = (lam u)^2 beta ^ d beta: per-sample signs cannot
    # depend on lam, and on M1 (gamma = 1 to the family's level-consistency
    # bound 1e-8, so |u^2 - 1| < 3e-6 here) the values scale as lam^2.
    fam = family.build_family(validate_params(_PERTURBED), 16, family.default_knobs())
    samples = family.sample_M1(fam.model, 240)
    frames = family._normalize_grid(fam.model, samples)
    lams = (10.0, 50.0, 146.6925048828125)
    scaled = []
    for lam in lams:
        vals = family._contact_volumes(fam, lam, frames)
        scaled.append(vals / lam ** 2)
        cert = family.pseudoconcavity_check(fam, lam, samples)
        assert cert.passed and cert.details["disagreements"] == 0, (lam, cert.to_dict())
    worst = max(float(np.max(np.abs(s / scaled[0] - 1.0))) for s in scaled)
    ok = all(np.array_equal(np.sign(s), np.sign(scaled[0])) for s in scaled) and worst < 1e-5
    _report(
        "lambda-independent contact sign",
        ok,
        f"{len(frames)} samples at lambda in {lams}: identical signs, "
        f"alpha ^ d alpha / lambda^2 agrees to {worst:.1e}",
    )
    assert ok
