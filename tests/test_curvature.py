import numpy as np
import pytest

from conftest import regular_point

from gconn import linalg
from gconn.actions import get_action
from gconn.connections import (DualForm, at, fd_oracle, mu_q,
                               simple_mechanical_mu)
from gconn.curvature import (curvature, curvature_leftright_closed,
                             d_oneform, docile, field_bracket,
                             good_chi_residual, horizontal_field,
                             interior_product_residual, involutivity_check,
                             structure_residual, tame)
from gconn.linalg import InconsistentSystemError


def test_d_oneform_exact_on_linear_form():
    """mu(m, v) = m x v has d mu(u, v) = 2 u x v everywhere on R^3."""
    mu = mu_q(lambda t: 1.0)
    rng = np.random.default_rng(30)
    for _ in range(5):
        m, u, v = (rng.standard_normal(3) for _ in range(3))
        d = d_oneform(mu, m, u, v)
        assert np.linalg.norm(d - 2 * np.cross(u, v)) < 1e-8


def test_d_oneform_antisymmetric():
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    rng = np.random.default_rng(31)
    g = A.random_point(rng)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    assert np.linalg.norm(d_oneform(mu, g, u, v)
                          + d_oneform(mu, g, v, u)) < 1e-9


def _constant(c):
    """The field with constant coordinates c, and its zero derivative."""
    c = np.asarray(c, dtype=float)
    X = lambda p: c
    X.derivative = lambda p, w: np.zeros_like(c)
    return X


def test_field_bracket_coordinate_fields_commute_on_r3():
    A = get_action("so3-on-r3")
    X = _constant([1.0, 0.0, 0.0])
    Y = _constant([0.0, 1.0, 0.0])
    m = np.array([0.3, -0.7, 1.1])
    assert np.linalg.norm(field_bracket(A, X, Y, m)) < 1e-10
    # a field without its derivative is refused
    with pytest.raises(AttributeError, match="derivative"):
        field_bracket(A, X, lambda p: np.array([0.0, 1.0, 0.0]), m)


def test_field_bracket_right_invariant_fields():
    # right-invariant extensions: [X_a, X_b] = -X_[a,b]
    A = get_action("s1s1-on-so3")
    rng = np.random.default_rng(32)
    g = A.random_point(rng)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    br = field_bracket(A, _constant(a), _constant(b), g)
    assert np.linalg.norm(br + np.cross(a, b)) < 1e-10


def test_field_bracket_takes_a_point_evaluation():
    mu = mu_q(lambda t: t)
    A = mu.action
    m = np.array([0.8, -0.3, 1.2])
    pt = at(mu, m)
    X = horizontal_field(mu, np.array([1.0, 0.0, 0.0]))
    Y = horizontal_field(mu, np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(field_bracket(A, X, Y, pt),
                          field_bracket(A, X, Y, m))


def test_docility_dichotomy_at_origin():
    origin = np.zeros(3)
    flag1, witness = docile(mu_q(lambda t: 1.0), origin)
    assert not flag1
    u, v, val = witness
    assert np.linalg.norm(val - 2 * np.cross(u, v)) < 1e-6
    flagt, w = docile(mu_q(lambda t: t), origin)
    assert flagt and w is None


def test_curvature_zero_at_origin_for_vanishing_weight():
    mu = mu_q(lambda t: t)
    rng = np.random.default_rng(33)
    om = curvature(mu, np.zeros(3), rng.standard_normal(3),
                   rng.standard_normal(3))
    assert np.linalg.norm(om) < 1e-7


def test_curvature_raises_on_docility_failure():
    mu = mu_q(lambda t: 1.0)
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(InconsistentSystemError):
        curvature(mu, np.zeros(3), u, v)


def test_curvature_reads_the_one_consistency_tolerance(monkeypatch):
    """curvature has no tolerance of its own: at a TOL_CONSIST loose enough
    to accept the docility failure above, it returns the minimum-norm
    solution, zero, since chi(0) = 0."""
    monkeypatch.setattr(linalg, "TOL_CONSIST", 10.0)
    e = np.eye(3)
    om = curvature(mu_q(lambda t: 1.0), np.zeros(3), e[0], e[1])
    assert np.array_equal(om, np.zeros(3))


def test_tame_preserves_kernel():
    A = get_action("hxh-on-su3")
    mu = simple_mechanical_mu(A)
    nu = tame(mu)
    rng = np.random.default_rng(34)
    for _ in range(3):
        g = A.random_point(rng)
        km = at(mu, g).kernel
        kn = at(nu, g).kernel
        assert km.dim == kn.dim
        assert km.contains_subspace(kn, 1e-8)


def test_tame_requires_symmetric_inertia():
    A = get_action("so3-on-r3")
    # an artificial form whose inertia factor is not symmetric
    skew = DualForm(A, lambda pt: np.array([[0.0, 1, 0], [0, 0, 1],
                                            [1, 0, 0]]) @ ((pt.m @ pt.m) *
                                           np.eye(3)), name="skewed")
    nu = tame(skew)
    with pytest.raises(ValueError):
        nu.matrix(np.array([1.0, 0.2, -0.4]))


@pytest.mark.parametrize("tol_consist", [None, 1e-6])
def test_tame_tests_symmetry_at_the_consistency_tolerance(monkeypatch,
                                                          tol_consist):
    """At m = e3 the mechanical form plus 1e-7 e3 e1^T has an inertia
    factor 1e-7 (relative to |chi|) off symmetric: linalg.TOL_CONSIST
    refuses it, and accepts it when patched to 1e-6."""
    A = get_action("so3-on-r3")
    m = np.array([0.0, 0.0, 1.0])
    tilt = 1e-7 * np.outer(np.eye(3)[2], np.eye(3)[0])
    tilted = DualForm(A, lambda pt: pt.K.T + tilt, name="tilted")
    chi = at(tilted, m).chi
    assert np.linalg.norm(chi - chi.T) == pytest.approx(
        1e-7 * np.linalg.norm(chi))
    nu = tame(tilted)
    if tol_consist is None:
        with pytest.raises(ValueError, match="not symmetric"):
            nu.matrix(m)
        return
    monkeypatch.setattr(linalg, "TOL_CONSIST", tol_consist)
    assert np.isfinite(nu.matrix(m)).all()


def test_untamed_su3_form_fails_docility_at_vertical_rotation():
    """At rotations inside the torus the raw mechanical form is not docile;
    taming repairs it."""
    A = get_action("hxh-on-su3")
    mu = simple_mechanical_mu(A)
    g = A.manifold_alg.exp(0.8 * np.eye(8)[7])
    E = np.eye(8)
    probes = [E[2], E[5]]
    flag, _ = docile(mu, g, probes=probes)
    assert not flag
    flag_tamed, _ = docile(tame(mu), g, probes=probes)
    assert flag_tamed


def test_closed_curvature_values_at_vertical_rotation():
    A = get_action("hxh-on-su3")
    E = np.eye(8)
    theta = 0.9
    g = A.manifold_alg.exp(theta * E[7])
    c = 2.0 / np.tan(2 * theta)
    om = curvature_leftright_closed(A, g, E[2], E[5])
    assert np.linalg.norm(om - (E[0] + c * E[4])) < 1e-9
    om2 = curvature_leftright_closed(A, g, E[3], E[6])
    assert np.linalg.norm(om2 - (E[0] + c * E[4])) < 1e-9
    assert np.linalg.norm(curvature_leftright_closed(A, g, E[2], E[6])
                          + E[4]) < 1e-9
    assert np.linalg.norm(curvature_leftright_closed(A, g, E[3], E[5])
                          - E[4]) < 1e-9
    # vanishing on pairs not meeting the sigma/xi block
    assert np.linalg.norm(curvature_leftright_closed(A, g, E[0], E[5])) < 1e-9
    assert np.linalg.norm(curvature_leftright_closed(A, g, E[2], E[4])) < 1e-9


def test_closed_matches_fd_curvature():
    A = get_action("hxh-on-su3")
    nu = tame(simple_mechanical_mu(A))
    oracle = fd_oracle(nu)
    rng = np.random.default_rng(35)
    for _ in range(5):
        g = A.random_point(rng)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        cf = curvature_leftright_closed(A, g, u, v)
        assert np.max(np.abs(cf - curvature(nu, g, u, v))) < 1e-8
        assert np.max(np.abs(cf - curvature(oracle, g, u, v))) < 1e-5


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_curvature_evaluates_generators_once_per_point(monkeypatch, name):
    A = get_action(name)
    nu = tame(simple_mechanical_mu(A))
    rng = np.random.default_rng(45)
    g = A.random_point(rng)
    u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
    calls = []
    original = type(A).gen_matrix

    def counted(self, m):
        calls.append(1)
        return original(self, m)

    monkeypatch.setattr(type(A), "gen_matrix", counted)
    curvature(nu, g, u, v)
    # one at g: the exact derivative needs no other point (the oracle's
    # five are pinned in test_exact_derivatives)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_closed_curvature_decomposes_once(monkeypatch, decompositions, name):
    A = get_action(name)
    rng = np.random.default_rng(46)
    g = A.random_point(rng)
    u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
    curvature_leftright_closed(A, g, u, v)   # takes the gram factor once
    # K is taken before the spies: its one call per point is pinned below
    K = A.gen_matrix(g)
    monkeypatch.setattr(type(A), "gen_matrix", lambda self, m: K)
    decompositions.clear()
    # the per-point entry under its name, and np.linalg's build-time ones
    # (the gram factor's) under theirs
    for module, fn, key in [(linalg, "solve", "solve"),
                            (np.linalg, "cholesky", "np.linalg.cholesky"),
                            (np.linalg, "inv", "np.linalg.inv")]:
        def counted(a, *args, _key=key, _f=getattr(module, fn)):
            decompositions[_key, np.shape(a)] += 1
            return _f(a, *args)
        monkeypatch.setattr(module, fn, counted)
    curvature_leftright_closed(A, g, u, v)
    # one SVD of R K projects xi and omega and solves the tamed system,
    # with one r x r solve (r = 2 dim h at a point without isotropy)
    r = K.shape[1]
    assert decompositions == {"svd": 1, ("solve", (r, r)): 1}


def test_closed_curvature_computes_Ad_once(monkeypatch):
    # g conjugates h once, inside the one gen_matrix call; the whole
    # algebra is never conjugated
    A = get_action("hxh-on-su3")
    rng = np.random.default_rng(46)
    g = A.random_point(rng)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    calls = []

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    counting(type(A.manifold_alg), "Ad_matrix")
    counting(type(A), "gen_matrix")
    curvature_leftright_closed(A, g, u, v)
    assert calls == ["gen_matrix"]


def test_s1s1_curvature_flat():
    A = get_action("s1s1-on-so3")
    rng = np.random.default_rng(36)
    for _ in range(10):
        g = A.random_point(rng)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert np.linalg.norm(
            curvature_leftright_closed(A, g, u, v)) < 1e-10


def test_structure_residual_small():
    mu = mu_q(lambda t: t)
    rng = np.random.default_rng(37)
    for _ in range(5):
        m = rng.standard_normal(3)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert structure_residual(mu, m, u, v) < 1e-5


def test_interior_product_identity():
    mu = mu_q(lambda t: t)
    rng = np.random.default_rng(38)
    for _ in range(5):
        m = rng.standard_normal(3)
        eta, v = rng.standard_normal(3), rng.standard_normal(3)
        assert interior_product_residual(mu, m, eta, v) < 1e-6


def test_good_chi_annihilator():
    mu = mu_q(lambda t: t)
    rng = np.random.default_rng(39)
    for _ in range(5):
        m = rng.standard_normal(3)
        # ker mu_m and the isotropy algebra are both the line through m
        u = (rng.random() + 0.2) * m
        assert good_chi_residual(mu, m, u, m) < 1e-6


def test_involutivity_at_regular_point():
    mu = mu_q(lambda t: t)
    rep = involutivity_check(mu, np.array([0.8, -0.3, 1.2]))
    assert rep.all_passed, rep.to_text()


def test_involutivity_pair_evaluates_each_point_once(monkeypatch,
                                                     decompositions):
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    g = A.random_point(np.random.default_rng(47))
    E = np.eye(3)
    calls = []
    original = type(A).gen_matrix

    def counted(self, m):
        calls.append(1)
        return original(self, m)

    monkeypatch.setattr(type(A), "gen_matrix", counted)
    rep = involutivity_check(mu, g, pairs=[(E[0], E[1])])
    assert rep.all_passed, rep.to_text()
    # g once: the bracket and d_oneform are exact at g
    assert len(calls) == 1
    assert decompositions["pinv"] == 0


@pytest.mark.parametrize("name", ["so3-on-r3", "s1s1-on-so3", "hxh-on-su3"])
def test_involutivity_differentiates_along_the_two_fields_only(monkeypatch,
                                                               name):
    """Omega(X, Y) is gamma(d mu(X, Y)) of the horizontal X(m), Y(m): the
    derivatives are taken along those two directions, which the bracket's
    field derivatives take as well, so one pair differentiates the
    generators twice."""
    A = get_action(name)
    mu = simple_mechanical_mu(A)
    m = regular_point(A, mu, np.random.default_rng(48))
    E = np.eye(A.vec_dim)
    directions = []

    def counting(cls, attr):
        original = getattr(cls, attr)

        def counted(self, pt, w, *args):
            directions.append(attr)
            return original(self, pt, w, *args)

        monkeypatch.setattr(cls, attr, counted)

    counting(type(A), "dgen_matrix")
    rep = involutivity_check(mu, m, pairs=[(E[0], E[1])])
    assert rep.all_passed, rep.to_text()
    assert directions == ["dgen_matrix"] * 2
