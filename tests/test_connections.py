import numpy as np
import pytest

from gconn.actions import get_action, isotropy_algebra, orbit_tangent
from gconn.connections import (DegeneracyError, alpha_so3r3, at,
                               clean_alpha, dual_form_verify,
                               equivariance_residual, gamma_apply,
                               inertia_factor, mu_q, pair_check,
                               projection_P_mu, simple_mechanical_mu)
from gconn.curvature import tame
from gconn.groups import exp_so3, hat
from gconn.linalg import rank_nullspace


@pytest.fixture
def mu_t():
    return mu_q(lambda t: t)


def test_mu_q_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        mu_q(lambda t: t - 5.0)


def test_mu_q_matrix(mu_t):
    m = np.array([1.0, 2.0, -1.0])
    assert np.allclose(mu_t.matrix(m), (m @ m) * hat(m))
    v = np.array([0.5, 0.0, 1.0])
    assert np.allclose(mu_t(m, v), (m @ m) * np.cross(m, v))


def test_inertia_factor_kernel_is_isotropy(mu_t):
    m = np.array([0.0, 1.5, 0.0])
    chi = inertia_factor(mu_t, m)
    assert chi.shape == (3, 3)
    assert np.linalg.norm(chi @ m) < 1e-12
    # symmetric positive semidefinite for this family
    assert np.linalg.norm(chi - chi.T) < 1e-12


@pytest.fixture
def zero_form():
    A = get_action("so3-on-r3")
    return type(mu_q(lambda t: t))(A, lambda m: np.zeros((3, 3)), name="zero")


def test_inertia_factor_degenerate_raises(zero_form):
    with pytest.raises(DegeneracyError):
        inertia_factor(zero_form, np.array([1.0, 0.0, 0.0]))


def test_projection_and_gamma_degenerate_raise(zero_form):
    m = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DegeneracyError):
        projection_P_mu(zero_form, m)
    with pytest.raises(DegeneracyError):
        gamma_apply(zero_form, m, np.zeros(3))


def test_point_evaluation_degenerate_raises(zero_form):
    pt = at(zero_form, [1.0, 0.0, 0.0])
    assert not pt.nondegenerate
    with pytest.raises(DegeneracyError):
        pt.P
    with pytest.raises(DegeneracyError):
        pt.gamma(np.zeros(3))


def test_point_evaluation_is_shared(mu_t):
    m = np.array([0.4, -1.0, 0.3])
    pt = at(mu_t, m)
    assert at(mu_t, pt) is pt
    assert np.array_equal(pt.chi, mu_t.matrix(m) @ mu_t.action.gen_matrix(m))
    assert np.array_equal(projection_P_mu(mu_t, pt), projection_P_mu(mu_t, m))
    with pytest.raises(ValueError):
        at(mu_q(lambda t: 1.0), pt)


def _count_gen_matrix(monkeypatch, A):
    calls = []
    original = type(A).gen_matrix

    def counted(self, m):
        calls.append(1)
        return original(self, m)

    monkeypatch.setattr(type(A), "gen_matrix", counted)
    return calls


def test_tamed_projection_evaluates_generators_once(monkeypatch):
    A = get_action("hxh-on-su3")
    nu = tame(simple_mechanical_mu(A))
    g = A.random_point(np.random.default_rng(27))
    calls = _count_gen_matrix(monkeypatch, A)
    projection_P_mu(nu, g)
    assert len(calls) == 1


def test_tamed_point_decomposes_chi_once(decompositions):
    A = get_action("hxh-on-su3")
    nu = tame(simple_mechanical_mu(A))
    rng = np.random.default_rng(31)
    g = A.random_point(rng)
    pt = at(nu, g)
    assert pt.nondegenerate
    P = pt.P
    target = pt.chi @ rng.standard_normal(A.algebra.dim)
    w = pt.gamma(target)
    # one SVD of chi (kernel test, P, the solve and its scale) and one of K
    assert decompositions == {"svd": 2}
    chi_pinv = np.linalg.pinv(pt.chi, rcond=pt.tol_rank)
    assert np.array_equal(P, pt.K @ (chi_pinv @ pt.M))
    assert np.linalg.norm(w - pt.K @ (chi_pinv @ target)) <= 1e-15 * max(
        1.0, np.linalg.norm(w))


def test_point_kernel_is_ker_mu(mu_t):
    m = np.array([0.4, -1.0, 0.3])
    pt = at(mu_t, m)
    assert pt.kernel is pt.kernel
    assert np.array_equal(pt.kernel.basis, rank_nullspace(pt.M)[1].basis)
    assert pt.kernel.dim == 1
    assert np.linalg.norm(pt.M @ pt.kernel.basis) < 1e-12


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_tamed_matrix_matches_row_by_row_raising(name):
    A = get_action(name)
    mu = simple_mechanical_mu(A)
    nu = tame(mu)
    rng = np.random.default_rng(28)
    for _ in range(3):
        g = A.random_point(rng)
        M = mu.matrix(g)
        chi = M @ A.gen_matrix(g)
        old = chi @ np.array([A.algebra.gram_inv @ row for row in M.T]).T
        assert np.linalg.norm(nu.matrix(g) - old) <= 1e-13 * max(
            1.0, np.linalg.norm(old))


def test_dual_form_verify_records_degeneracy(zero_form):
    rep = dual_form_verify(zero_form, samples=2,
                           rng=np.random.default_rng(29))
    ker = [c for c in rep.checks if c.check_id == "ker-chi"]
    assert len(ker) == 2 and not any(c.passed for c in ker)


def test_dual_form_verify_one_point_per_sample(monkeypatch):
    A = get_action("hxh-on-su3")
    mu = simple_mechanical_mu(A)
    calls = _count_gen_matrix(monkeypatch, A)
    dual_form_verify(mu, samples=3, rng=np.random.default_rng(30))
    # the sampled point m and its image g.m for the equivariance check
    assert len(calls) == 2 * 3


def test_dual_form_verify_decomposes_four_matrices_per_sample(
        decompositions):
    mu = simple_mechanical_mu(get_action("hxh-on-su3"))
    rep = dual_form_verify(mu, samples=3, rng=np.random.default_rng(30))
    assert rep.all_passed, rep.to_text()
    # chi, M and K once each at the point, and the stacked splitting basis
    assert decompositions == {"svd": 4 * 3}


def test_near_singular_chi_names_its_cond():
    # g = exp(t x) tilts the second circle's axis by t off the first, so
    # chi's smaller singular value falls like t^2 while K keeps rank two
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    near = at(mu, exp_so3(np.array([1e-3, 0.0, 0.0])))
    svd = near.chi_svd
    assert near.nondegenerate and svd.rank == 2
    assert svd.cond == svd.s[0] / svd.s[1] > 1e5
    past = at(mu, exp_so3(np.array([1e-5, 0.0, 0.0])))
    assert past.K_svd.rank == 2 and past.chi_svd.rank == 1
    with pytest.raises(DegeneracyError) as exc:
        past.inertia()
    assert str(exc.value).endswith(f"(cond {past.chi_svd.cond:.3e}, "
                                   f"gap {past.chi_svd.gap:.3e})")
    # the gap shows what was dropped: nothing near, and past it chi's
    # t^2 / 2 singular value, t^2 / 4 of the kept 2, not an exact zero
    assert svd.gap == 0.0
    assert past.chi_svd.gap == pytest.approx(1e-10 / 4, rel=1e-3)


def test_gamma_inverts_chi_on_orbit_tangent(mu_t):
    rng = np.random.default_rng(20)
    A = mu_t.action
    for _ in range(10):
        m = rng.standard_normal(3)
        xi = rng.standard_normal(3)
        chi = inertia_factor(mu_t, m)
        v = gamma_apply(mu_t, m, chi @ xi)
        assert np.linalg.norm(v - A.gen_matrix(m) @ xi) < 1e-8 * max(
            1, np.linalg.norm(v))


def test_projection_P_mu_properties(mu_t):
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = rng.standard_normal(3)
        P = projection_P_mu(mu_t, m)
        assert np.linalg.norm(P @ P - P) < 1e-9
        orb = orbit_tangent(mu_t.action, m)
        # range of P is the orbit tangent, kernel contains the radial line
        for j in range(3):
            assert orb.contains(P[:, j], 1e-8)
        assert np.linalg.norm(P @ m) < 1e-9


def test_dual_form_equivariance_sample(mu_t):
    rng = np.random.default_rng(22)
    m = rng.standard_normal(3)
    g = exp_so3(rng.standard_normal(3))
    v = rng.standard_normal(3)
    assert equivariance_residual(mu_t, g, m, v) < 1e-10


@pytest.mark.parametrize("name,make", [
    ("so3-on-r3", lambda A: mu_q(lambda t: t)),
    ("so3-on-s2", simple_mechanical_mu),
    ("s1s1-on-so3", simple_mechanical_mu),
    ("hxh-on-su3", simple_mechanical_mu),
])
def test_dual_form_verify_passes(name, make):
    A = get_action(name)
    mu = make(A)
    rep = dual_form_verify(mu, samples=8, rng=np.random.default_rng(23))
    assert rep.all_passed, rep.to_text()


def test_alpha_projection_is_orthogonal():
    alpha = alpha_so3r3(lambda m: 0.0)
    rng = np.random.default_rng(24)
    for _ in range(5):
        m = rng.standard_normal(3)
        P = alpha.action.gen_matrix(m) @ alpha.matrix(m)
        n2 = m @ m
        expect = np.eye(3) - np.outer(m, m) / n2
        assert np.linalg.norm(P - expect) < 1e-12


def test_clean_alpha_kills_radial_term():
    alpha = alpha_so3r3(lambda m: 1.7)
    plain = alpha_so3r3(lambda m: 0.0)
    cl = clean_alpha(alpha)
    rng = np.random.default_rng(25)
    for _ in range(5):
        m = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.allclose(cl(m, v), plain(m, v), atol=1e-12)


def test_pair_check_passes_for_compatible_pair():
    mu = mu_q(lambda t: t)
    A = mu.action
    alpha = alpha_so3r3(lambda m: 0.0)
    chi_field = lambda m: mu.matrix(m) @ A.gen_matrix(m)
    rep = pair_check(alpha, chi_field, samples=8,
                     rng=np.random.default_rng(26),
                     singular_points=[np.zeros(3)])
    assert rep.all_passed, rep.to_text()


def test_mechanical_mu_on_s2_annihilates_normal():
    A = get_action("so3-on-s2")
    mu = simple_mechanical_mu(A)
    m = np.array([0.0, 0.6, 0.8])
    assert np.linalg.norm(mu(m, m)) < 1e-12
    iso = isotropy_algebra(A, m)
    chi = inertia_factor(mu, m)
    assert np.linalg.norm(chi @ iso.basis) < 1e-12
