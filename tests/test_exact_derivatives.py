"""The exact first derivatives of the forms, actions, fields and the
eastward partial moving frame, against finite differences.

An exact derivative and the reference 2-point central difference
``fd_reference.central`` with step h differ by the truncation error c h^2,
so halving h must divide their gap by four; a wrong exact derivative leaves
a gap that does not shrink.  ``fd_oracle`` forms run
through the same ``d_oneform`` and ``field_bracket`` as exact ones, so those
two are checked against the independent references of ``fd_reference``.
"""

import re
import sys

import numpy as np
import pytest

import fd_reference
from conftest import regular_point
from gconn import connections, frames, linalg
from gconn import curvature as curvature_module
from gconn.actions import get_action
from gconn.cli import ScenarioConfig, run_scenario
from gconn.connections import (alpha_so3r3, at, clean_alpha, fd_oracle, mu_q,
                               pair_check, simple_mechanical_mu)
from gconn.curvature import (curvature, d_oneform, docile, field_bracket,
                             horizontal_field, involutivity_check,
                             structure_residual, tame)
from gconn.frames import (PartialMovingFrame, _sample_off_poles,
                          eastward_field, pmf_from_field)
from gconn.groups import hat
from gconn.linalg import curve_derivative, norm
from gconn.slices import _xi_field, adapted_dual_form, trivial_adaptor

TORUS = ["hxh-on-su3", "s1s1-on-so3"]


def _h2_ratio(exact, curve, h=1e-3):
    """Gap of the central difference of ``curve`` to ``exact`` at h over
    the gap at h/2, and the gap at h/2 relative to max(1, |exact|)."""
    far = norm(fd_reference.central(curve, h) - exact)
    near = norm(fd_reference.central(curve, h / 2) - exact)
    return far / near, near / max(1.0, norm(exact))


def _forms(name):
    mu = simple_mechanical_mu(get_action(name))
    return [mu, tame(mu)]


def _commutator_coords(alg, a, b):
    """[a, b] by the matrix commutator taken back through ``coords``: the
    formula ``LieAlgebra.bracket`` used before it read the structure
    constants, kept as the reference."""
    A, B = alg.matrix(a), alg.matrix(b)
    return alg.coords(A @ B - B @ A)


def test_ad_matrix_is_the_bracket():
    for name in TORUS:
        alg = get_action(name).manifold_alg
        rng = np.random.default_rng(60)
        for _ in range(20):
            a, b = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
            ref = _commutator_coords(alg, a, b)
            assert norm(alg.ad_matrix(a) @ b - ref) < 1e-12
            assert norm(alg.bracket(a, b) - ref) < 1e-12


@pytest.mark.parametrize("name", TORUS + ["so3-on-s2", "so3-on-us2"])
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
            dM = mu.dmatrix(m, w)
            ratio, gap = _h2_ratio(
                dM, lambda t: mu.matrix(A.retract(m, w, t)))
            assert 3.9 < ratio < 4.1 and gap < 1e-5, mu.name


@pytest.mark.parametrize("name", TORUS)
def test_horizontal_field_derivative_follows_the_h2_law(name):
    A = get_action(name)
    rng = np.random.default_rng(63)
    for mu in _forms(name):
        for _ in range(3):
            m = regular_point(A, mu, rng)
            X = horizontal_field(mu, rng.standard_normal(A.vec_dim))
            w = A.random_tangent(rng, m)
            ratio, gap = _h2_ratio(X.derivative(at(mu, m), w),
                                   lambda t: X(A.retract(m, w, t)))
            assert 3.9 < ratio < 4.1 and gap < 1e-5, mu.name


def test_forms_without_exact_generators_keep_finite_differences():
    # every action now has exact generators, so the forms built from them
    # are exact on the spheres too; a form built without a derivative is
    # differenced only as its fd_oracle
    rng = np.random.default_rng(64)
    for name in ("so3-on-r3", "so3-on-s2", "so3-on-us2"):
        A = get_action(name)
        m = A.random_point(rng)
        w = A.random_tangent(rng, m)
        for mu in (simple_mechanical_mu(A), tame(simple_mechanical_mu(A))):
            assert norm(mu.dmatrix(m, w)
                        - fd_oracle(mu).dmatrix(m, w)) < 1e-8, mu.name
    alpha = alpha_so3r3(lambda m: 0.3 * np.exp(-(m @ m)))
    m, w = rng.standard_normal((2, 3))
    with pytest.raises(TypeError):
        alpha.dmatrix(m, w)
    assert np.isfinite(fd_oracle(alpha).dmatrix(m, w)).all()


def test_fd_oracle_is_the_same_form_without_its_derivative():
    # the same name and matrix; its dmatrix is the central difference of
    # that matrix along the retraction, not the form's own derivative
    A = get_action("hxh-on-su3")
    nu = tame(simple_mechanical_mu(A))
    oracle = fd_oracle(nu)
    rng = np.random.default_rng(64)
    g = A.random_point(rng)
    w = A.random_tangent(rng, g)
    assert oracle.name == nu.name
    assert np.array_equal(oracle.matrix(g), nu.matrix(g))
    fd = curve_derivative(lambda t: nu.matrix(A.retract(g, w, t)))
    assert np.array_equal(oracle.dmatrix(g, w), fd)
    assert not np.array_equal(fd, nu.dmatrix(g, w))


def test_forms_without_a_derivative_raise_a_typed_error(monkeypatch):
    alpha = alpha_so3r3(lambda m: 0.3 * np.exp(-(m @ m)))
    forms = [alpha, clean_alpha(alpha)]
    # pair_check's chi*alpha, caught as it checks equivariance
    original = connections.equivariance_residual

    def caught(mu, *args):
        forms.append(mu)
        return original(mu, *args)

    monkeypatch.setattr(connections, "equivariance_residual", caught)
    pair_check(alpha_so3r3(lambda m: 0.0), mu_q(lambda t: t), samples=1,
               rng=np.random.default_rng(0), singular_points=[])
    assert forms[2].name == "chi*alpha"
    rng = np.random.default_rng(69)
    m, u, v = rng.standard_normal((3, 3))
    for mu in forms[:3]:
        with pytest.raises(TypeError, match=re.escape(
                f"the form {mu.name} has no dmatrix; fd_oracle({mu.name})")):
            d_oneform(mu, m, u, v)
        assert np.isfinite(d_oneform(fd_oracle(mu), m, u, v)).all()


@pytest.mark.parametrize("name", TORUS + ["so3-on-s2"])
def test_exact_d_oneform_and_d_chi_match_the_oracle(name):
    # against the three-term difference and the differenced chi, which
    # share no code with d_oneform and the point's dchi
    A = get_action(name)
    rng = np.random.default_rng(65)
    for mu in _forms(name):
        for _ in range(5):
            m = A.random_point(rng)
            u, v = A.random_tangent(rng, m), A.random_tangent(rng, m)
            d = d_oneform(mu, m, u, v)
            assert norm(d - fd_reference.d_oneform(mu, m, u, v)) <= 1e-7 * max(
                1.0, norm(d)), mu.name
            dchi = at(mu, m).dchi(u)
            # the reference's nested step 1e-4 leaves an h^2 gap of ~1e-8
            assert norm(dchi - fd_reference.d_chi(mu, m, u)) <= 1e-6 * max(
                1.0, norm(dchi)), mu.name


@pytest.mark.parametrize("name", TORUS)
def test_exact_curvature_matches_the_oracle(name):
    A = get_action(name)
    nu = tame(simple_mechanical_mu(A))
    oracle = fd_oracle(nu)
    rng = np.random.default_rng(66)
    for _ in range(5):
        g = regular_point(A, nu, rng)
        u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
        om = curvature(nu, g, u, v)
        assert np.max(np.abs(om - curvature(oracle, g, u, v))) < 1e-6


@pytest.mark.parametrize("name", TORUS)
def test_exact_field_bracket_matches_the_oracle(name):
    # against central differences of the field values
    A = get_action(name)
    rng = np.random.default_rng(68)
    for mu in _forms(name):
        for _ in range(3):
            m = regular_point(A, mu, rng)
            a, b = rng.standard_normal((2, A.vec_dim))
            X, Y = horizontal_field(mu, a), horizontal_field(mu, b)
            br = field_bracket(A, X, Y, at(mu, m))
            fd = fd_reference.field_bracket(A, X, Y, m)
            assert norm(br - fd) <= 1e-7 * max(1.0, norm(br)), mu.name


@pytest.mark.parametrize("name", TORUS)
def test_exact_involutivity_matches_the_oracle(name):
    A = get_action(name)
    rng = np.random.default_rng(67)
    for mu in _forms(name):
        for _ in range(2):
            m = regular_point(A, mu, rng, cond=1e-3)
            # every pair of basis fields; the reference run takes d mu and
            # the bracket by differencing values
            exact = involutivity_check(mu, m)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(curvature_module, "d_oneform",
                           fd_reference.d_oneform)
                mp.setattr(curvature_module, "field_bracket",
                           fd_reference.field_bracket)
                fd = involutivity_check(mu, m)
            assert exact.all_passed and fd.all_passed, exact.to_text()
            for a, b in zip(exact.checks, fd.checks):
                assert a.check_id == b.check_id
                assert abs(a.residual - b.residual) < 1e-6


@pytest.mark.parametrize("name", TORUS)
def test_oracle_curvature_evaluates_generators_at_nine_points(monkeypatch,
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
    # one at g and one at each of the eight finite-difference points
    assert len(calls) == 9


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
            fd = fd_reference.central(
                lambda t: A.gen_matrix(A.retract(m, w, t)), h)
            assert norm(fd - dK) < 1e-11


@pytest.mark.parametrize("q", [lambda t: t, lambda t: 1.0 + np.exp(-t)],
                         ids=["t", "1+exp(-t)"])
def test_mu_q_dmatrix_follows_the_h2_law(q):
    mu = mu_q(q)
    A = mu.action
    rng = np.random.default_rng(71)
    for _ in range(3):
        m, w = rng.standard_normal((2, 3))
        dM = mu.dmatrix(m, w)
        ratio, gap = _h2_ratio(dM, lambda t: mu.matrix(A.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_mu_q_differences_q_at_linalg_fd_step(monkeypatch):
    seen = []

    def q(t):
        seen.append(t)
        return 1.0 + t

    mu = mu_q(q)
    m, w = np.array([0.3, -0.4, 1.2]), np.array([1.0, 0.5, -0.2])
    s = float(m @ m)
    seen.clear()
    monkeypatch.setattr(linalg, "FD_STEP", 2e-5)
    mu.dmatrix(m, w)
    # q' by the 4-point difference at +-h and +-2h, and q itself
    assert sorted(seen) == sorted([s + 2e-5, s - 2e-5, s + 4e-5, s - 4e-5, s])


@pytest.mark.parametrize("seed", range(6))
def test_d_exact_vs_fd_catches_a_halved_radial_term(monkeypatch, seed):
    # a mutation that the identity records cannot see: mu_q's derivative
    # keeping half of its radial term 2 q'(|m|^2) <m, w> hat(m); measured
    # d-exact-vs-fd residuals 6.9 to 22.5 at seeds 0-5, against 1e-6
    def halved(q):
        mu = mu_q(q)

        def dmatrix(pt, w):
            m, w = np.asarray(pt.m, dtype=float), np.asarray(w, dtype=float)
            s = m @ m
            dq = curve_derivative(lambda t: q(s + t))
            return hat(dq * (m @ w) * m + q(s) * w)

        return connections.DualForm(mu.action, mu._matrix_fn, name=mu.name,
                                    dmatrix=dmatrix)

    monkeypatch.setattr(connections, "mu_q", halved)
    rep = run_scenario(ScenarioConfig("so3-r3-basics", seed=seed))
    [record] = [c for c in rep.checks if c.check_id == "d-exact-vs-fd"]
    assert not record.passed


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


def test_seed_field_without_derivative_takes_finite_differences():
    # a seed field without a derivative is refused; finite differences are
    # what a caller attaches as the field's derivative
    with pytest.raises(AttributeError, match="derivative"):
        PartialMovingFrame(lambda m: eastward_field(m))
    calls = []

    def plain(m):
        return eastward_field(m)

    def differenced(m, w):
        calls.append(m)
        return curve_derivative(lambda t: plain(S2.retract(m, w, t)))

    plain.derivative = differenced
    exact = pmf_from_field(eastward_field)
    fd = PartialMovingFrame(plain)
    rng = np.random.default_rng(75)
    for _ in range(5):
        m = _sample_off_poles(rng)
        g = S2.random_group(rng)
        v = S2.random_tangent(rng, m)
        assert norm(fd.dnat_phi(m, v) - exact.dnat_phi(m, v)) < 1e-8
        assert norm(fd.dnat_slip(g, m, v) - exact.dnat_slip(g, m, v)) < 1e-8
    # dY at m for dnat_phi, at m and at g m for dnat_slip
    assert len(calls) == 15


def test_so3_forms_and_frame_take_no_difference(monkeypatch):
    # none but mu_q's scalar difference of q, the one part of its
    # derivative not known in closed form
    original = linalg.curve_derivative
    scalars = []

    def refuse(f):
        code = sys._getframe(1).f_code
        caller = getattr(code, "co_qualname", code.co_name)
        if caller != "mu_q.<locals>.dmatrix":
            raise AssertionError("central difference taken")
        scalars.append(original(f))
        return scalars[-1]

    # every alias of curve_derivative in every gconn module
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gconn"
                and getattr(module, "curve_derivative", None) is original):
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
    # the mechanical form on the sphere, now that its generators are exact
    assert involutivity_check(simple_mechanical_mu(S2), m).all_passed
    assert scalars and all(isinstance(d, float) for d in scalars)


# ---------------------------------------------------------------------------
# the sphere's projection, the horizontal fields of rotating R^3 and S^2,
# and the adapted form near the singular point of s1s1-on-so3


def test_s2_dproject_tangent_follows_the_h2_law():
    rng = np.random.default_rng(77)
    for _ in range(3):
        m = S2.random_point(rng)
        w = S2.random_tangent(rng, m)
        v = rng.standard_normal(3)
        ratio, gap = _h2_ratio(
            S2.dproject_tangent(m, w, v),
            lambda t: S2.project_tangent(S2.retract(m, w, t), v))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_us2_dproject_tangent_is_not_known():
    A = get_action("so3-on-us2")
    rng = np.random.default_rng(78)
    p = A.random_point(rng)
    with pytest.raises(NotImplementedError):
        A.dproject_tangent(p, A.random_tangent(rng, p), np.ones(6))


def test_r3_horizontal_field_derivative_follows_the_h2_law():
    A = get_action("so3-on-r3")
    rng = np.random.default_rng(79)
    for mu in (mu_q(lambda t: 1.0 + np.exp(-t)), simple_mechanical_mu(A)):
        for _ in range(3):
            m = regular_point(A, mu, rng)
            X = horizontal_field(mu, rng.standard_normal(3))
            w = A.random_tangent(rng, m)
            ratio, gap = _h2_ratio(X.derivative(at(mu, m), w),
                                   lambda t: X(A.retract(m, w, t)))
            assert 3.9 < ratio < 4.1 and gap < 1e-5, mu.name


def test_s2_horizontal_field_has_zero_derivative():
    # the action is transitive: every horizontal field vanishes identically
    mu = simple_mechanical_mu(S2)
    rng = np.random.default_rng(80)
    for _ in range(5):
        m = S2.random_point(rng)
        X = horizontal_field(mu, rng.standard_normal(3))
        w = S2.random_tangent(rng, m)
        assert norm(X(m)) <= 1e-12
        assert norm(X.derivative(at(mu, m), w)) <= 1e-12


def _near_singular_points(rng, n):
    """The adapted form of the CLI's s1s1-so3-slice at abel_involutivity's
    draw: retract(g0, v, 0.25 rand) for random v."""
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    g0, sigma = np.eye(3), np.eye(3)[2]
    mu_t = adapted_dual_form(mu, trivial_adaptor(A, g0), 0.5 * at(mu, g0).chi,
                             lambda g: np.eye(2) / (1.0 + sigma @ g @ sigma))
    for _ in range(n):
        m = A.retract(g0, A.random_tangent(rng, g0), 0.25 * rng.random())
        yield mu_t, m, A.random_tangent(rng, m)


def test_adapted_dmatrix_follows_the_h2_law():
    rng = np.random.default_rng(81)
    for mu_t, m, w in _near_singular_points(rng, 3):
        A = mu_t.action
        ratio, gap = _h2_ratio(mu_t.dmatrix(m, w),
                               lambda t: mu_t.matrix(A.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


def test_xi_field_derivative_follows_the_h2_law():
    rng = np.random.default_rng(82)
    for mu_t, m, w in _near_singular_points(rng, 3):
        X = _xi_field(mu_t, rng.standard_normal(3))
        ratio, gap = _h2_ratio(X.derivative(at(mu_t, m), w),
                               lambda t: X(mu_t.action.retract(m, w, t)))
        assert 3.9 < ratio < 4.1 and gap < 1e-5


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


def test_structure_residual_differentiates_once_per_direction(monkeypatch):
    # d mu, d chi and the covariant derivative read the point's dM: the
    # tamed hxh form is differentiated along u, v and their horizontal
    # parts u - P u, v - P v, once each; it reads its base form's
    # evaluation at the point, which shares K and each dK(w), so the base
    # form is evaluated once and dgen_matrix runs once per direction
    A = get_action("hxh-on-su3")
    mu = simple_mechanical_mu(A)
    tamed = tame(mu)
    rng = np.random.default_rng(90)
    m = regular_point(A, tamed, rng)
    u, v = A.random_tangent(rng, m), A.random_tangent(rng, m)
    directions, dgen_calls, base_calls = [], [], []
    dmatrix, matrix = tamed._dmatrix_fn, mu._matrix_fn
    dgen_matrix = type(A).dgen_matrix

    def counted(pt, w):
        directions.append(np.asarray(w, dtype=float).tobytes())
        return dmatrix(pt, w)

    def counted_dgen(self, *args):
        dgen_calls.append(1)
        return dgen_matrix(self, *args)

    def counted_matrix(*args):
        base_calls.append(1)
        return matrix(*args)

    monkeypatch.setattr(tamed, "_dmatrix_fn", counted)
    monkeypatch.setattr(type(A), "dgen_matrix", counted_dgen)
    monkeypatch.setattr(mu, "_matrix_fn", counted_matrix)
    assert structure_residual(tamed, m, u / norm(u), v / norm(v)) < 1e-5
    assert len(directions) == len(set(directions)) == 4
    assert (len(dgen_calls), len(base_calls)) == (4, 1)


def test_point_derivatives_are_stored_once_and_read_only():
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    rng = np.random.default_rng(91)
    m = A.random_point(rng)
    w = A.random_tangent(rng, m)
    pt = at(mu, m)
    stored = [pt.dM(w), pt.dchi(w)]
    for d in stored:
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 1.0
    # an equal direction reads the stored array
    assert pt.dM(w.copy()) is stored[0]
    assert pt.dchi(list(w)) is stored[1]
    assert np.array_equal(stored[0], mu.dmatrix(m, w))
    assert np.array_equal(stored[1], stored[0] @ pt.K
                          + pt.M @ A.dgen_matrix(m, w, pt.K))
