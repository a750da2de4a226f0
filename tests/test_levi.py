"""Levi-form machinery against closed-form complex-analysis oracles."""

import math

import numpy as np
import pytest

from concavia.errors import ConcaviaError, Exhausted, NotContact, NotRegular, RegionError
from concavia.levi import (
    HermitianForm,
    ScalarField,
    apply_J,
    composition_identity_check,
    d_c,
    exp_jet,
    fd_consistency,
    find_lambda,
    grad4,
    hartogs_boundary_test,
    is_strictly_psh,
    jet,
    jet_d_c,
    jet_neg_ddc,
    levi_matrix,
    levi_min_eig,
    levi_min_eig_batch,
    neg_ddc,
    quadratic_identity_check,
)

E = np.eye(4)


def sq_norm(z1, z2):
    return np.abs(z1) ** 2 + np.abs(z2) ** 2


def re_z1_sq(z1, z2):
    return np.real(z1 ** 2)


def mixed_sig(z1, z2):
    return np.abs(z1) ** 2 - 2.0 * np.abs(z2) ** 2


def _shell_points(rng, n, r_lo=0.7, r_hi=1.3):
    v = rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.uniform(r_lo, r_hi, size=(n, 1))
    v *= r
    return [(complex(a, b), complex(c, d)) for a, b, c, d in v]


# ---------------------------------------------------------------------------
# J and first-order operators
# ---------------------------------------------------------------------------

def test_apply_J_components_and_square():
    assert np.allclose(apply_J(np.array([1.0, 2.0, 3.0, 4.0])), [-2.0, 1.0, -4.0, 3.0])
    v = np.array([0.3, -1.2, 0.7, 2.0])
    assert np.allclose(apply_J(apply_J(v)), -v)


def test_d_c_on_re_z1():
    u = ScalarField(lambda z1, z2: np.real(z1), name="re_z1")
    p = (0.4 + 0.2j, -0.1 + 0.7j)
    assert abs(d_c(u, p, E[0])) < 1e-10          # du(J dx1) = du(dy1) = 0
    assert abs(d_c(u, p, E[1]) - (-1.0)) < 1e-10  # du(J dy1) = -du(dx1)


def test_d_c_linearity():
    u = ScalarField(sq_norm)
    p = (0.5 + 0.1j, 0.3 - 0.2j)
    rng = np.random.default_rng(7)
    for _ in range(10):
        v, w = rng.normal(size=4), rng.normal(size=4)
        a, b = rng.normal(size=2)
        lhs = d_c(u, p, a * v + b * w)
        rhs = a * d_c(u, p, v) + b * d_c(u, p, w)
        assert abs(lhs - rhs) < 1e-8


def test_region_enforcement():
    u = ScalarField(lambda z1, z2: np.log(np.abs(z1)),
                    region=lambda z1, z2: abs(z1) > 0.1, name="log_r1")
    with pytest.raises(RegionError):
        d_c(u, (0.0, 1.0), E[0])
    with pytest.raises(RegionError):
        levi_matrix(u, (0.05, 1.0))


def test_fd_consistency_richardson():
    u = ScalarField(lambda z1, z2: np.exp(np.real(z1)) + np.abs(z2) ** 2)
    assert fd_consistency(u, (0.3 + 0.4j, 0.2j), E[2]) < 1e-4


# ---------------------------------------------------------------------------
# Jets: closed forms and exact composition
# ---------------------------------------------------------------------------

def test_jet_matches_closed_form():
    rng = np.random.default_rng(9)
    pts = _shell_points(rng, 12)
    z1 = np.array([p[0] for p in pts])
    z2 = np.array([p[1] for p in pts])
    x = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=1)
    for fn, diag in ((sq_norm, [2.0, 2.0, 2.0, 2.0]), (mixed_sig, [2.0, 2.0, -4.0, -4.0])):
        val, g, H = jet(fn, z1, z2)
        np.testing.assert_allclose(val, fn(z1, z2), rtol=1e-15)
        np.testing.assert_allclose(g, np.array(diag) * x, atol=1e-8)
        np.testing.assert_allclose(H, np.broadcast_to(np.diag(diag), H.shape), atol=1e-5)


def test_exp_jet_matches_jet_of_the_exponential():
    rng = np.random.default_rng(37)
    pts = _shell_points(rng, 12)
    z1 = np.array([p[0] for p in pts])
    z2 = np.array([p[1] for p in pts])

    def wavy(a, b):
        return sq_norm(a, b) + 0.3 * np.real(a ** 2) + 0.1 * np.real(a * np.conj(b))

    for lam, shift in ((0.5, 0.0), (1.0, 1.0), (2.0, 0.7)):
        got = exp_jet(jet(wavy, z1, z2), lam, shift)
        ref = jet(lambda a, b: np.exp(lam * (wavy(a, b) - shift)), z1, z2)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-14)
        np.testing.assert_allclose(got[1], ref[1], rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(got[2], ref[2], rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Levi matrices: closed forms
# ---------------------------------------------------------------------------

def test_levi_identity_for_sq_norm():
    L = levi_matrix(ScalarField(sq_norm), (0.2 + 0.1j, -0.4 + 0.3j))
    assert np.allclose(L.entries, np.eye(2), atol=1e-6)
    assert L.defect < 1e-9


def test_levi_pluriharmonic_is_zero():
    L = levi_matrix(ScalarField(re_z1_sq), (0.7 - 0.2j, 0.5 + 0.5j))
    assert np.allclose(L.entries, 0.0, atol=1e-6)


def test_levi_mixed_signature():
    L = levi_matrix(ScalarField(mixed_sig), (1.1 + 0.3j, 0.2 - 0.8j))
    assert np.allclose(L.entries, np.diag([1.0, -2.0]), atol=1e-6)
    ev = L.eigenvalues()
    assert ev[0] < 0 < ev[1]


def test_levi_off_diagonal_oracle():
    # u = Re(z1 * conj(z2)) has d^2 u / dz1 dzbar2 = 1/2
    u = ScalarField(lambda z1, z2: np.real(z1 * np.conj(z2)))
    L = levi_matrix(u, (0.3 + 0.9j, -0.6 + 0.2j))
    assert np.allclose(L.entries, np.array([[0, 0.5], [0.5, 0]]), atol=1e-6)


def test_hermitian_form_eigs_match_numpy():
    A = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, -1.0]])
    H = HermitianForm.from_matrix(A)
    assert np.allclose(H.eigenvalues(), np.linalg.eigvalsh(A))
    assert H.min_eig == pytest.approx(np.linalg.eigvalsh(A)[0])


def test_batch_min_eig_matches_pointwise():
    rng = np.random.default_rng(11)
    pts = _shell_points(rng, 20)
    z1 = np.array([p[0] for p in pts])
    z2 = np.array([p[1] for p in pts])
    batch = levi_min_eig_batch(mixed_sig, z1, z2)
    for k, p in enumerate(pts):
        single = levi_matrix(ScalarField(mixed_sig), p).min_eig
        # agreement up to stencil rounding (coordinate sums differ by ulps,
        # amplified by the 1/h^2 of the second difference)
        assert batch[k] == pytest.approx(single, abs=1e-5)


# ---------------------------------------------------------------------------
# Normalization bridge: -dd^C u (v, Jv) = 2 v* L v  (1/2 convention)
# ---------------------------------------------------------------------------

def test_bridge_factor_two_hand_case():
    u = ScalarField(sq_norm)
    p = (0.3 + 0.2j, 0.1 - 0.5j)
    val = neg_ddc(u, p, E[0], apply_J(E[0]))
    assert val == pytest.approx(2.0, abs=1e-5)  # 2 * e1* I e1


def test_bridge_factor_two_random_sweep():
    # the bridge -dd^C u(v, Jv) = 2 v* L v, and the jet forms of d^C u(v) and
    # -dd^C u(v, w) on independent (v, w) against the nested references
    rng = np.random.default_rng(23)
    fields = [ScalarField(sq_norm), ScalarField(re_z1_sq), ScalarField(mixed_sig)]
    worst = worst_jet = 0.0
    for _ in range(50):
        u = fields[rng.integers(len(fields))]
        p = _shell_points(rng, 1)[0]
        v, w = rng.normal(size=(2, 4))
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        direct = neg_ddc(u, p, v, apply_J(v))
        L = levi_matrix(u, p)
        vc = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
        bridged = 2.0 * L.quad(vc)
        worst = max(worst, abs(direct - bridged) / max(1.0, abs(bridged)))
        _, g, H = jet(u, [p[0]], [p[1]])
        ref = neg_ddc(u, p, v, w)
        worst_jet = max(worst_jet,
                        abs(jet_neg_ddc(H[0], v, w) - ref) / max(1.0, abs(ref)),
                        abs(jet_d_c(g[0], w) - d_c(u, p, w)))
        # swapping the legs of the 2-form negates it bitwise
        assert jet_neg_ddc(H[0], w, v) == -jet_neg_ddc(H[0], v, w)
    assert worst < 1e-5
    assert worst_jet < 1e-5


# ---------------------------------------------------------------------------
# Strict plurisubharmonicity certificates
# ---------------------------------------------------------------------------

def test_psh_sq_norm_passes_with_unit_margin():
    rng = np.random.default_rng(3)
    cert = is_strictly_psh(ScalarField(sq_norm), _shell_points(rng, 64))
    assert cert.passed
    assert cert.margin == pytest.approx(1.0, abs=1e-5)


def test_psh_log_modulus_fails_strictness():
    # log|z1| is pluriharmonic off the axis: Levi == 0, so never *strictly* psh
    pts = [(0.5 + 0.1j * k, 0.2 - 0.05j * k) for k in range(1, 40)]
    cert = is_strictly_psh(ScalarField(lambda z1, z2: np.log(np.abs(z1))), pts)
    assert not cert.passed
    assert abs(cert.margin) < 1e-4


def test_psh_exponential_hand_oracle():
    lam = 1.0
    u = ScalarField(lambda z1, z2: np.exp(lam * sq_norm(z1, z2)))
    L = levi_matrix(u, (1.0, 0.0))
    e = math.e
    # Levi(e^gamma) = e^gamma (Levi(gamma) + dgamma dgamma*) = e*[[2,0],[0,1]]
    assert np.allclose(L.entries, e * np.array([[2.0, 0.0], [0.0, 1.0]]), atol=1e-4)
    rng = np.random.default_rng(5)
    cert = is_strictly_psh(u, _shell_points(rng, 48, 0.5, 1.1))
    assert cert.passed


def test_psh_worst_point_is_reported():
    pts = [(0.1, 0.1), (1.5, 0.0)]
    cert = is_strictly_psh(ScalarField(mixed_sig), pts)
    assert not cert.passed
    assert cert.worst_point is not None


# ---------------------------------------------------------------------------
# Hartogs-type boundary battery
# ---------------------------------------------------------------------------

def _planar_grid(n=25, r=0.9):
    t = np.linspace(-r, r, int(math.isqrt(n)) + 2)
    return [complex(a, b) for a in t for b in t]


def test_hartogs_convex_case():
    cert = hartogs_boundary_test(lambda z: np.abs(z) ** 2, _planar_grid())
    assert cert.passed
    assert cert.details["regime"] == "Convex"


def test_hartogs_concave_case():
    cert = hartogs_boundary_test(lambda z: -np.abs(z) ** 2, _planar_grid())
    assert cert.passed
    assert cert.details["regime"] == "Concave"


def test_hartogs_degenerate_case():
    cert = hartogs_boundary_test(lambda z: np.real(z ** 2), _planar_grid())
    assert cert.passed
    assert cert.details["regime"] == "degenerate"


def test_hartogs_random_definite_laplacians():
    rng = np.random.default_rng(31)
    grid = _planar_grid()
    for _ in range(20):
        a = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.normal() * 0.5 + 1j * rng.normal() * 0.5
        c = rng.normal() * 0.5 + 1j * rng.normal() * 0.5
        d = rng.normal() * 0.2

        def psi(z, a=a, b=b, c=c, d=d):
            return (a * np.abs(z) ** 2 + np.real(b * z ** 2 + c * z) + d)

        cert = hartogs_boundary_test(psi, grid)
        assert cert.passed, cert.to_dict()
        assert cert.details["regime"] == ("Convex" if a > 0 else "Concave")


# ---------------------------------------------------------------------------
# Composition lemma
# ---------------------------------------------------------------------------

EXP_TRIPLE = (np.exp, np.exp, np.exp)
ID_TRIPLE = (lambda t: t, lambda t: 1.0, lambda t: 0.0)


def test_quadratic_identity_sweep():
    rng = np.random.default_rng(41)
    cert = quadratic_identity_check(sq_norm, _shell_points(rng, 100))
    assert cert.passed
    assert cert.details["max_rel_err"] < 1e-6


def test_composition_identity_reduces_for_identity_g():
    rng = np.random.default_rng(43)
    cert = composition_identity_check(sq_norm, ID_TRIPLE, _shell_points(rng, 10))
    assert cert.passed
    assert cert.details["max_rel_err"] < 1e-12


def test_composition_exp_hand_oracle_at_unit_point():
    # gamma = |z|^2, g = exp at (1, 0), v = dx1:
    #   lhs = 2 v* Levi(e^gamma) v = 4e;  rhs = e*2 + e*2 = 4e
    p = (1.0, 0.0)
    v = E[0]
    lhs = neg_ddc(lambda z1, z2: np.exp(sq_norm(z1, z2)), p, v, apply_J(v))
    assert lhs == pytest.approx(4.0 * math.e, rel=1e-5)


def test_composition_identity_random_pairs():
    rng = np.random.default_rng(47)
    cert = composition_identity_check(sq_norm, EXP_TRIPLE, _shell_points(rng, 10))
    assert cert.passed, cert.to_dict()

    def wavy(z1, z2):
        return sq_norm(z1, z2) + 0.3 * np.real(z1 ** 2) + 0.1 * np.real(z1 * np.conj(z2))

    cert2 = composition_identity_check(wavy, EXP_TRIPLE, _shell_points(rng, 10))
    assert cert2.passed, cert2.to_dict()


# ---------------------------------------------------------------------------
# Lambda search
# ---------------------------------------------------------------------------

def _patch_points(n=40, seed=13):
    # cloud around (0.8i, 0.6) where |z|^2 - 3 x1^2 has a contact tangency
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        y1 = 0.8 + rng.uniform(-0.04, 0.04)
        x1 = rng.uniform(-0.02, 0.02)
        x2 = 0.6 + rng.uniform(-0.04, 0.04)
        y2 = rng.uniform(-0.03, 0.03)
        pts.append((complex(x1, y1), complex(x2, y2)))
    return pts


def indefinite_gamma(z1, z2):
    return sq_norm(z1, z2) - 3.0 * np.real(z1) ** 2


def test_find_lambda_psh_input_needs_tiny_lambda():
    rng = np.random.default_rng(17)
    pts = _shell_points(rng, 40)
    lam, cert = find_lambda(sq_norm, pts)
    assert lam <= 1.0
    assert cert.passed
    assert cert.details["lambda"] == lam


def test_find_lambda_indefinite_patch():
    pts = _patch_points()
    lam, cert = find_lambda(indefinite_gamma, pts)
    # rank-one update analysis at the patch center gives lambda* ~ 1.1
    assert 0.9 < lam < 4.0
    assert cert.passed
    # a quarter of the found value must fail outright
    weak = is_strictly_psh(
        lambda z1, z2: np.exp((lam / 4.0) * indefinite_gamma(z1, z2)), pts)
    assert not weak.passed


def test_find_lambda_doubling_is_monotone():
    pts = _patch_points()
    lam, _ = find_lambda(indefinite_gamma, pts)
    strong = is_strictly_psh(
        lambda z1, z2: np.exp(min(2.0 * lam, 50.0) * indefinite_gamma(z1, z2)), pts)
    assert strong.passed


def test_find_lambda_refined_grid_verification():
    coarse, fine = _patch_points(40), _patch_points(80, seed=29)
    lam, cert = find_lambda(indefinite_gamma, coarse + fine)
    assert cert.passed
    assert cert.grid == "120 pts"
    # lambda is a maximum of per-point values, so it can only grow with the grid
    assert lam >= find_lambda(indefinite_gamma, coarse)[0]
    assert lam >= find_lambda(indefinite_gamma, fine)[0]


def test_find_lambda_closed_form_matches_bisection():
    # 60 bisection steps on the factored minimum eigenvalue, required to pass
    # at both steps, find max_p max(a_p, b_p); the closed form adds the
    # Richardson difference |a_p - b_p| at the point that sets lambda
    pts = _patch_points()
    z1 = np.array([p[0] for p in pts])
    z2 = np.array([p[1] for p in pts])
    jets = [jet(indefinite_gamma, z1, z2, h) for h in (1e-5, 2e-5)]

    def passes(lam):
        return all(levi_min_eig(H + lam * g[:, :, None] * g[:, None, :]).min() > 1e-8
                   for _, g, H in jets)

    lo, hi = 0.0, 10.0
    assert not passes(lo) and passes(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    lam, cert = find_lambda(indefinite_gamma, pts)
    assert cert.details["method"] == "closed_form"
    assert lam - cert.details["error_estimate"] == pytest.approx(hi, rel=1e-12)
    # gamma is quadratic, so the two steps differ by rounding only
    assert cert.details["error_estimate"] < 1e-4 * lam


@pytest.mark.parametrize("slab", [(1.5, 2.5), (0.5, 2.5)])
def test_find_lambda_nan_jet_is_a_named_error(slab):
    # gamma is NaN on a thin slab in x2 beside one patch point, ``slab``
    # steps of h = 1e-5 away: (1.5, 2.5) reaches only the 2h jet, (0.5, 2.5)
    # both jets
    pts = _patch_points()
    p1, p2 = pts[7]
    lo, hi = (p2.real + s * 1e-5 for s in slab)

    def holed(z1, z2):
        hole = (np.abs(z1 - p1) < 1e-4) & (np.real(z2) > lo) & (np.real(z2) < hi)
        return np.where(hole, np.nan, indefinite_gamma(z1, z2))

    with pytest.raises(ConcaviaError, match="not finite") as ei:
        find_lambda(holed, pts)
    assert repr(pts[7]) in str(ei.value)


def test_find_lambda_not_regular_at_critical_point():
    pts = [(0.0, 0.0), (0.5, 0.5)]
    with pytest.raises(NotRegular):
        find_lambda(sq_norm, pts)


def test_find_lambda_not_contact_with_witness():
    rng = np.random.default_rng(19)
    pts = _shell_points(rng, 12)
    with pytest.raises(NotContact) as ei:
        find_lambda(lambda z1, z2: -sq_norm(z1, z2), pts)
    assert ei.value.witness is not None


def test_find_lambda_exhausted():
    with pytest.raises(Exhausted):
        find_lambda(indefinite_gamma, _patch_points(), lambda_max=0.5)


def test_grad4_matches_closed_form():
    p = (0.3 + 0.4j, -0.2 + 0.6j)
    g = grad4(sq_norm, p)
    assert np.allclose(g, [0.6, 0.8, -0.4, 1.2], atol=1e-8)
