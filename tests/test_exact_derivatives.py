"""The exact first derivatives of the torus-action forms, of the SO(3)
forms on R^3 and of the eastward partial moving frame, against their
finite-difference oracles.

An exact derivative and a central difference with step h differ by the
truncation error c h^2, so halving h must divide their gap by four; a wrong
exact derivative leaves a gap that does not shrink.
"""

import numpy as np
import pytest

from gconn import curvature as curvature_module
from gconn import frames
from gconn.actions import get_action
from gconn.connections import at, fd_oracle, mu_q, simple_mechanical_mu
from gconn.curvature import (_d_chi, curvature, d_oneform, docile,
                             field_bracket, horizontal_field,
                             involutivity_check, structure_residual, tame)
from gconn.frames import (FRAME_STEP, PartialMovingFrame, _sample_off_poles,
                          eastward_field, pmf_from_field)
from gconn.groups import hat
from gconn.linalg import curve_derivative, norm, numerics

TORUS = ["hxh-on-su3", "s1s1-on-so3"]


def _h2_ratio(exact, curve, h=1e-3):
    """Gap of the central difference of ``curve`` to ``exact`` at h over
    the gap at h/2, and the gap at h/2 relative to max(1, |exact|)."""
    far = norm(curve_derivative(curve, h) - exact)
    near = norm(curve_derivative(curve, h / 2) - exact)
    return far / near, near / max(1.0, norm(exact))


def _regular_point(A, mu, rng, cond=1e-2):
    for _ in range(1000):
        m = A.random_point(rng)
        pt = at(mu, m)
        r = pt.K_svd.rank
        if pt.chi_svd.s[r - 1] > cond * pt.chi_svd.s[0]:
            return m
    raise RuntimeError("no regular point")


def _forms(name):
    mu = simple_mechanical_mu(get_action(name))
    return [mu, tame(mu)]


def test_ad_matrix_is_the_bracket():
    for name in TORUS:
        alg = get_action(name).manifold_alg
        rng = np.random.default_rng(60)
        a, b = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
        assert norm(alg.ad_matrix(a) @ b - alg.bracket(a, b)) < 1e-12


@pytest.mark.parametrize("name", TORUS)
def test_dgen_matrix_follows_the_h2_law(name):
    A = get_action(name)
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = A.random_point(rng)
        w = A.random_tangent(rng, m)
        dK = A.dgen_matrix(m, w, A.gen_matrix(m))
        ratio, gap = _h2_ratio(
            dK, lambda t: A.gen_matrix(A.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


@pytest.mark.parametrize("name", TORUS)
def test_dmatrix_of_both_forms_follows_the_h2_law(name):
    A = get_action(name)
    rng = np.random.default_rng(62)
    for mu in _forms(name):
        assert mu.dmatrix is not None, mu.name
        for _ in range(3):
            m = A.random_point(rng)
            w = A.random_tangent(rng, m)
            dM = mu.dmatrix(m, w, A.gen_matrix(m))
            ratio, gap = _h2_ratio(
                dM, lambda t: mu.matrix(A.retract(m, w, t)))
            assert 3.9 < ratio < 4.1 and gap < 1e-5, mu.name


@pytest.mark.parametrize("name", TORUS)
def test_horizontal_field_derivative_follows_the_h2_law(name):
    A = get_action(name)
    rng = np.random.default_rng(63)
    for mu in _forms(name):
        for _ in range(3):
            m = _regular_point(A, mu, rng)
            X = horizontal_field(mu, rng.standard_normal(A.vec_dim))
            w = A.random_tangent(rng, m)
            ratio, gap = _h2_ratio(X.derivative(at(mu, m), w),
                                   lambda t: X(A.retract(m, w, t)))
            assert 3.9 < ratio < 4.1 and gap < 1e-5, mu.name


def test_forms_without_exact_generators_keep_finite_differences():
    for name in ("so3-on-s2", "so3-on-us2"):
        A = get_action(name)
        assert A.dgen_matrix is None
        assert simple_mechanical_mu(A).dmatrix is None
        assert tame(simple_mechanical_mu(A)).dmatrix is None
        assert not hasattr(horizontal_field(simple_mechanical_mu(A),
                                            np.ones(A.vec_dim)), "derivative")
    # rotating R^3 has exact generators, so its forms are exact
    A = get_action("so3-on-r3")
    assert A.dgen_matrix is not None
    assert mu_q(lambda t: t).dmatrix is not None
    assert simple_mechanical_mu(A).dmatrix is not None
    assert tame(simple_mechanical_mu(A)).dmatrix is not None


def test_fd_oracle_is_the_same_form_without_its_derivative():
    A = get_action("hxh-on-su3")
    nu = tame(simple_mechanical_mu(A))
    oracle = fd_oracle(nu)
    g = A.random_point(np.random.default_rng(64))
    assert oracle.dmatrix is None and oracle.name == nu.name
    assert np.array_equal(oracle.matrix(g), nu.matrix(g))


@pytest.mark.parametrize("name", TORUS)
def test_exact_d_oneform_and_d_chi_match_the_oracle(name):
    A = get_action(name)
    rng = np.random.default_rng(65)
    for mu in _forms(name):
        oracle = fd_oracle(mu)
        for _ in range(5):
            m = A.random_point(rng)
            u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(
                A.vec_dim)
            d = d_oneform(mu, m, u, v)
            assert norm(d - d_oneform(oracle, m, u, v)) <= 1e-7 * max(
                1.0, norm(d)), mu.name
            dchi = _d_chi(mu, m, u)
            # the oracle's nested step 1e-4 leaves an h^2 gap of ~1e-8
            assert norm(dchi - _d_chi(oracle, m, u)) <= 1e-6 * max(
                1.0, norm(dchi)), mu.name


@pytest.mark.parametrize("name", TORUS)
def test_exact_curvature_matches_the_oracle(name):
    A = get_action(name)
    nu = tame(simple_mechanical_mu(A))
    oracle = fd_oracle(nu)
    rng = np.random.default_rng(66)
    for _ in range(5):
        g = _regular_point(A, nu, rng)
        u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
        om = curvature(nu, g, u, v)
        assert np.max(np.abs(om - curvature(oracle, g, u, v))) < 1e-6


@pytest.mark.parametrize("name", TORUS)
def test_exact_field_bracket_matches_the_oracle(name):
    A = get_action(name)
    rng = np.random.default_rng(68)
    for mu in _forms(name):
        oracle = fd_oracle(mu)
        for _ in range(3):
            m = _regular_point(A, mu, rng)
            a, b = rng.standard_normal((2, A.vec_dim))
            X, Y = horizontal_field(mu, a), horizontal_field(mu, b)
            assert hasattr(X, "derivative")
            br = field_bracket(A, X, Y, at(mu, m))
            fd = field_bracket(A, horizontal_field(oracle, a),
                               horizontal_field(oracle, b), m)
            assert norm(br - fd) <= 1e-7 * max(1.0, norm(br)), mu.name


@pytest.mark.parametrize("name", TORUS)
def test_exact_involutivity_matches_the_oracle(name):
    A = get_action(name)
    rng = np.random.default_rng(67)
    for mu in _forms(name):
        for _ in range(2):
            m = _regular_point(A, mu, rng, cond=1e-3)
            # every pair of basis fields
            exact = involutivity_check(mu, m)
            fd = involutivity_check(fd_oracle(mu), m)
            assert exact.all_passed and fd.all_passed, exact.to_text()
            for a, b in zip(exact.checks, fd.checks):
                assert a.check_id == b.check_id
                assert abs(a.residual - b.residual) < 1e-6


@pytest.mark.parametrize("name", TORUS)
def test_oracle_curvature_evaluates_generators_at_five_points(monkeypatch,
                                                              name):
    A = get_action(name)
    oracle = fd_oracle(tame(simple_mechanical_mu(A)))
    rng = np.random.default_rng(45)
    g = A.random_point(rng)
    u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
    calls = []
    original = type(A).gen_matrix

    def counted(self, m):
        calls.append(1)
        return original(self, m)

    monkeypatch.setattr(type(A), "gen_matrix", counted)
    curvature(oracle, g, u, v)
    # one at g and one at each of the four finite-difference points
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# SO(3) on R^3 and the eastward partial moving frame

S2 = get_action("so3-on-s2")


def test_so3_r3_dgen_matrix_is_exact():
    # gen_matrix is linear in m, so the h^2 coefficient is zero and the
    # central difference matches at every step up to roundoff
    A = get_action("so3-on-r3")
    rng = np.random.default_rng(70)
    for _ in range(3):
        m, w = rng.standard_normal((2, 3))
        dK = A.dgen_matrix(m, w, A.gen_matrix(m))
        assert np.array_equal(dK, -hat(w))
        for h in (1e-3, 5e-4):
            fd = curve_derivative(lambda t: A.gen_matrix(A.retract(m, w, t)),
                                  h)
            assert norm(fd - dK) < 1e-11


@pytest.mark.parametrize("q", [lambda t: t, lambda t: 1.0 + np.exp(-t)],
                         ids=["t", "1+exp(-t)"])
def test_mu_q_dmatrix_follows_the_h2_law(q):
    mu = mu_q(q)
    A = mu.action
    rng = np.random.default_rng(71)
    for _ in range(3):
        m, w = rng.standard_normal((2, 3))
        dM = mu.dmatrix(m, w, A.gen_matrix(m))
        ratio, gap = _h2_ratio(dM, lambda t: mu.matrix(A.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_mu_q_differences_q_at_the_step_in_force():
    seen = []

    def q(t):
        seen.append(t)
        return 1.0 + t

    mu = mu_q(q)
    m, w = np.array([0.3, -0.4, 1.2]), np.array([1.0, 0.5, -0.2])
    s = float(m @ m)
    seen.clear()
    with numerics(fd_step=2e-5):
        mu.dmatrix(m, w, None)
    assert sorted(seen) == sorted([s + 2e-5, s - 2e-5, s])


def test_eastward_field_derivative_follows_the_h2_law():
    rng = np.random.default_rng(72)
    for _ in range(3):
        m = _sample_off_poles(rng)
        w = S2.random_tangent(rng, m)
        dY = eastward_field.derivative(m, w)
        ratio, gap = _h2_ratio(
            dY, lambda t: eastward_field(S2.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_eastward_field_derivative_refuses_the_poles():
    with pytest.raises(frames.DomainError):
        eastward_field.derivative(np.array([0.0, 0.0, 1.0]),
                                  np.array([1.0, 0.0, 0.0]))


def test_dnat_phi_follows_the_h2_law():
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(73)
    for _ in range(3):
        m = _sample_off_poles(rng)
        dm = S2.random_tangent(rng, m)
        R = pmf.phi(m)
        # d/dt phi(m(t)) phi(m)^T at 0 is hat of the trivialized derivative
        ratio, gap = _h2_ratio(hat(pmf.dnat_phi(m, dm)),
                               lambda t: pmf.phi(S2.retract(m, dm, t)) @ R.T)
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_dnat_slip_follows_the_h2_law():
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(74)
    for _ in range(3):
        m = _sample_off_poles(rng)
        g = S2.random_group(rng)
        v = S2.random_tangent(rng, m)
        B = pmf.slip(g, m)
        ratio, gap = _h2_ratio(
            hat(pmf.dnat_slip(g, m, v)),
            lambda t: pmf.slip(g, S2.retract(m, v, t)) @ B.T)
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_seed_field_without_derivative_takes_finite_differences(monkeypatch):
    exact = pmf_from_field(eastward_field)
    plain = PartialMovingFrame(lambda m: eastward_field(m))
    assert exact.dY is not None and plain.dY is None
    steps = []

    def spied(f, h=None):
        steps.append(h)
        return curve_derivative(f, h)

    monkeypatch.setattr(frames, "curve_derivative", spied)
    rng = np.random.default_rng(75)
    for _ in range(5):
        m = _sample_off_poles(rng)
        g = S2.random_group(rng)
        v = S2.random_tangent(rng, m)
        assert norm(plain.dnat_phi(m, v) - exact.dnat_phi(m, v)) < 1e-8
        assert norm(plain.dnat_slip(g, m, v)
                    - exact.dnat_slip(g, m, v)) < 1e-8
    # dY at m for dnat_phi, at m and at g m for dnat_slip
    assert steps == [FRAME_STEP] * 15


def test_so3_forms_and_frame_take_no_difference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("central difference taken")

    for module in (curvature_module, frames):
        monkeypatch.setattr(module, "curve_derivative", refuse)
    rng = np.random.default_rng(76)
    mu = mu_q(lambda t: t)
    origin = np.zeros(3)
    assert docile(mu, origin)[0] and not docile(mu_q(lambda t: 1.0),
                                                origin)[0]
    m, u, v = rng.standard_normal((3, 3))
    structure_residual(mu, m, u, v)
    pmf = pmf_from_field(eastward_field)
    m = _sample_off_poles(rng)
    pmf.dnat_phi(m, v)
    pmf.dnat_slip(S2.random_group(rng), m, v)


@pytest.mark.parametrize("radius", [0.05, 0.127, 0.3])
def test_structure_residual_holds_near_the_origin(radius):
    # with the nested difference step of d chi, this residual grew as
    # the origin approached (about 1e-4 at |m| = 0.05)
    mu = mu_q(lambda t: t)
    rng = np.random.default_rng(1209)
    for _ in range(5):
        m = rng.standard_normal(3)
        m *= radius / norm(m)
        u, v = rng.standard_normal((2, 3))
        assert structure_residual(mu, m, u / norm(u), v / norm(v)) < 1e-10
