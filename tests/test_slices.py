import numpy as np
import pytest

from gconn.actions import get_action
from gconn.connections import DualForm, fd_oracle, simple_mechanical_mu
from gconn.curvature import _d_chi
from gconn.groups import cay, exp_so3
from gconn import slices
from gconn.linalg import central_difference
from gconn.slices import (Adaptor, AdaptorContractError, SliceCandidate,
                          abel_involutivity, adapted_dual_form,
                          adapted_inertia, almost_horizontal_basis,
                          cayley_slice, slice_verify, trivial_adaptor)

SIGMA = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def setup():
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    g0 = np.eye(3)
    adaptor = trivial_adaptor(A, g0)
    return A, mu, g0, adaptor


def _pi():
    return 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _iota(g):
    r = float(SIGMA @ (np.asarray(g) @ SIGMA))
    return np.eye(2) / (1.0 + r)


def test_adapted_inertia_at_base(setup):
    A, mu, g0, adaptor = setup
    assert adaptor.iso0.dim == 1
    chi_phi = adapted_inertia(mu, adaptor, g0)
    assert np.allclose(chi_phi, [[1.0, -1.0], [-1.0, 1.0]])


def test_adapted_inertia_contract_violation(setup):
    A, mu, g0, _ = setup
    # an adaptor anchored at a *regular* point has trivial iso0, so the
    # kernel of chi_phi at the singular base cannot fit inside it
    g_reg = exp_so3(np.array([0.5, 0.2, -0.1]))
    bad = trivial_adaptor(A, g_reg)
    assert bad.iso0.dim == 0
    with pytest.raises(AdaptorContractError):
        adapted_inertia(mu, bad, g0)


def test_adapted_form_has_constant_rank(setup):
    A, mu, g0, adaptor = setup
    mu_t = adapted_dual_form(mu, adaptor, _pi(), _iota)
    rng = np.random.default_rng(41)
    # rank 1 both at the singular base point and at nearby points
    for g in [g0] + [A.retract(g0, rng.standard_normal(3), 0.3)
                     for _ in range(5)]:
        M = mu_t.matrix(g)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[0] > 1e-3
        assert s[1] < 1e-10 * s[0]


def test_adapted_form_rejects_wrong_iota(setup):
    A, mu, g0, adaptor = setup
    mu_t = adapted_dual_form(mu, adaptor, _pi(), lambda g: 3.0 * np.eye(2))
    with pytest.raises(ValueError):
        mu_t.matrix(g0)


def test_almost_horizontal_dimension(setup):
    A, mu, g0, adaptor = setup
    rng = np.random.default_rng(42)
    # at the base: ker mu is 2-dim (orbit is 1-dim there), plus the
    # conjugated reference isotropy generator line at nearby points
    xi0 = almost_horizontal_basis(mu, adaptor, g0)
    assert xi0.dim == 2
    g = A.retract(g0, rng.standard_normal(3), 0.2)
    xi = almost_horizontal_basis(mu, adaptor, g)
    assert xi.dim == 2


def test_cayley_slice_input_validation():
    with pytest.raises(ValueError):
        cayley_slice(2 * SIGMA, np.eye(3))
    with pytest.raises(ValueError):
        cayley_slice(SIGMA, np.eye(3), r=2.5)


def test_cayley_slice_geometry():
    S = cayley_slice(SIGMA, np.eye(3))
    assert np.allclose(S.psi(np.zeros(2)), np.eye(3))
    p = np.array([0.3, -0.4])
    g = S.psi(p)
    # points of the slice are rotations about axes orthogonal to sigma
    eta = np.array([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0],
                    g[1, 0] - g[0, 1]])
    assert abs(eta @ SIGMA) < 1e-12
    # tangent evaluator matches finite differences (right-trivialized)
    dp = np.array([1.0, 0.5])
    h = 1e-6
    fd = (S.psi(p + h * dp) - S.psi(p - h * dp)) / (2 * h) @ g.T
    fd_vec = np.array([fd[2, 1], fd[0, 2], fd[1, 0]])
    assert np.linalg.norm(S.tangent(p, dp) - fd_vec) < 1e-8


def test_locate_and_contains():
    S = cayley_slice(SIGMA, np.eye(3))
    p0 = np.array([-0.2, 0.35])
    p, resid = S.locate(S.psi(p0))
    assert resid < 1e-12
    assert np.linalg.norm(p - p0) < 1e-10
    assert S.contains(S.psi(p0))
    # a vertical rotation is off the slice
    assert not S.contains(exp_so3(0.5 * SIGMA))


def test_locate_jacobian_is_exact():
    S = cayley_slice(SIGMA, exp_so3(np.array([0.2, -0.1, 0.4])))
    for p0 in ([0.0, 0.0], [0.3, -0.2], [-0.55, 0.4]):
        p0 = np.array(p0)
        fd = central_difference(lambda q: S.psi(q).ravel(), p0, 1e-6)
        assert np.max(np.abs(S.jacobian(p0, S.psi(p0)) - fd)) < 1e-8
        p, resid = S.locate(S.psi(p0))
        assert resid <= 1e-12
        assert np.linalg.norm(p - p0) < 1e-10


def _zero_start(S):
    """The same slice with Gauss-Newton always started at 0."""
    return SliceCandidate(S.m0, S.psi, S.tangent, S.param_dim, S.radius,
                          S.velocity, lambda m: np.zeros(S.param_dim))


def test_locate_on_the_slice_evaluates_psi_twice():
    S = cayley_slice(SIGMA, exp_so3(np.array([0.2, -0.1, 0.4])))
    psi, calls = S.psi, []

    def counted(p):
        calls.append(1)
        return psi(p)

    S.psi = counted
    for p0 in ([0.0, 0.0], [0.3, -0.2], [-0.55, 0.4], [0.1, 0.9]):
        p0 = np.array(p0)
        calls.clear()
        p, resid = S.locate(psi(p0))
        # one Gauss-Newton step from the chart, below 1e-14, and the final
        # residual
        assert len(calls) == 2
        assert resid <= 1e-15
        assert np.linalg.norm(p - p0) <= 1e-15


def test_locate_steps_by_the_svd_pseudo_inverse(decompositions):
    S = cayley_slice(SIGMA, exp_so3(np.array([0.2, -0.1, 0.4])))
    p0 = np.array([0.3, -0.2])
    p, resid = S.locate(S.psi(p0))
    assert resid <= 1e-15
    # one Gauss-Newton step from the chart: one SVD of its Jacobian, and
    # no lstsq with a cutoff of its own
    assert decompositions == {"svd": 1}


def test_chart_start_matches_zero_start():
    S = cayley_slice(SIGMA, np.eye(3))
    Z = _zero_start(S)
    rng = np.random.default_rng(49)
    for _ in range(300):
        p = rng.standard_normal(2)
        m = S.psi(0.6 * rng.random() * p / np.linalg.norm(p))
        R = exp_so3(2 * np.pi * rng.random() * SIGMA)
        a, b = 0.2 * rng.standard_normal(2)
        nearby = exp_so3(a * SIGMA) @ m @ exp_so3(-b * SIGMA)
        for target in (R @ m @ R.T, nearby):
            pc, rc = S.locate(target)
            pz, rz = Z.locate(target)
            assert np.linalg.norm(pc - pz) <= 1e-14
            assert abs(rc - rz) <= 1e-14


def test_locate_falls_back_to_the_zero_start():
    S = cayley_slice(SIGMA, np.eye(3))
    Z = _zero_start(S)
    half_turn = np.diag([1.0, -1.0, -1.0])       # I + R exactly singular
    assert not np.isfinite(S.chart(half_turn)).all()
    near_half_turn = exp_so3(np.pi * np.array([1.0, 0.0, 0.0]))
    outside = S.psi(np.array([1.2, -0.9]))       # chart value |p| = 1.5
    for m in (near_half_turn, outside):
        assert np.linalg.norm(S.chart(m)) >= S.radius
    for m in (half_turn, near_half_turn, outside):
        pc, rc = S.locate(m)
        pz, rz = Z.locate(m)
        assert np.array_equal(pc, pz) and rc == rz


def test_slice_verify(setup):
    A, mu, g0, _ = setup
    S = cayley_slice(SIGMA, g0)

    def stab(rng):
        R = exp_so3(2 * np.pi * rng.random() * SIGMA)
        return (R, R)

    def nearby(rng):
        a, b = 0.2 * rng.standard_normal(2)
        return (exp_so3((a + 0.05) * SIGMA), exp_so3(b * SIGMA))

    rep = slice_verify(S, A, g0, samples=10,
                       rng=np.random.default_rng(43),
                       stabilizer_sampler=stab, nearby_sampler=nearby)
    assert rep.all_passed, rep.to_text()


def test_abel_involutivity(setup):
    A, mu, g0, adaptor = setup
    rep = abel_involutivity(mu, adaptor, _pi(), _iota, samples=10,
                            rng=np.random.default_rng(44))
    assert rep.all_passed, rep.to_text()


def test_abel_sample_evaluates_each_point_once(setup, monkeypatch):
    A, mu, g0, adaptor = setup
    gen_calls, adapted_calls, plain_points = [], [], []
    gen_matrix = type(A).gen_matrix
    matrix = DualForm.matrix

    def counted_gen(self, m):
        gen_calls.append(1)
        return gen_matrix(self, m)

    def counted_adapted(*args, **kwargs):
        adapted_calls.append(1)
        return adapted_inertia(*args, **kwargs)

    def counted_matrix(self, m, K=None):
        if self is mu:
            plain_points.append(m)
        return matrix(self, m, K)

    monkeypatch.setattr(type(A), "gen_matrix", counted_gen)
    monkeypatch.setattr(slices, "adapted_inertia", counted_adapted)
    monkeypatch.setattr(DualForm, "matrix", counted_matrix)
    rng = np.random.default_rng(48)
    rep = abel_involutivity(mu, adaptor, _pi(), _iota, samples=1, rng=rng)
    assert rep.all_passed, rep.to_text()
    # the adapted form at m and at the four bracket difference points
    assert len(adapted_calls) == 5
    # the same five points: the two d chi_phi terms are exact at m
    assert len(gen_calls) == 5
    # the plain form once at each of them, so once at the sample point m
    rng = np.random.default_rng(48)
    m = A.retract(g0, A.random_tangent(rng, g0), 0.25 * rng.random())
    assert len(plain_points) == 5
    assert sum(np.array_equal(p, m) for p in plain_points) == 1


def test_adaptor_without_dnatL_reports_an_unknown_derivative(setup):
    A, mu, g0, adaptor = setup
    m = A.retract(g0, np.array([0.2, -0.1, 0.3]), 1.0)
    w = np.array([0.4, 0.1, -0.2])
    # the trivial adaptor's zero derivative is exact
    assert np.array_equal(adaptor.dnatL(m, w), np.zeros(2))
    assert np.array_equal(_d_chi(mu, m, w, adaptor=adaptor), _d_chi(mu, m, w))
    # a phi without dnatL has no derivative, and d chi_phi stays a central
    # difference: the same bits as the oracle's
    unknown = Adaptor(A, g0, phi=lambda m: A.identity())
    assert unknown.dnatL is None
    assert np.array_equal(_d_chi(mu, m, w, adaptor=unknown),
                          _d_chi(fd_oracle(mu), m, w, adaptor=unknown))
    # a given dnatL is read
    seen = []
    known = Adaptor(A, g0, phi=lambda m: A.identity(),
                    dnatL=lambda m, v: seen.append(v) or np.zeros(2))
    assert np.array_equal(_d_chi(mu, m, w, adaptor=known), _d_chi(mu, m, w))
    assert len(seen) == 1
