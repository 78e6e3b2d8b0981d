import numpy as np
import pytest

from gconn.actions import get_action
from gconn import curvature
from gconn.cli import ScenarioConfig, run_scenario
from gconn.connections import simple_mechanical_mu
from gconn.groups import exp_so3
from gconn import linalg, slices
from gconn.slices import (AdaptorContractError, abel_involutivity,
                          adapted_dual_form, adapted_inertia,
                          almost_horizontal_basis, cayley_slice,
                          slice_verify, trivial_adaptor)

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


@pytest.mark.parametrize("tol_consist", [None, 1e-6])
def test_iota_is_tested_at_the_consistency_tolerance(setup, monkeypatch,
                                                     tol_consist):
    """iota scaled by 1 + 1e-7 misses pi = pi iota chi by 1e-7 at g0
    (|pi| = 1): linalg.TOL_CONSIST refuses it, and accepts it when
    patched to 1e-6."""
    A, mu, g0, adaptor = setup
    mu_t = adapted_dual_form(mu, adaptor, _pi(),
                             lambda g: (1.0 + 1e-7) * _iota(g))
    if tol_consist is None:
        with pytest.raises(ValueError, match="residual 1.000e-07"):
            mu_t.matrix(g0)
        return
    monkeypatch.setattr(linalg, "TOL_CONSIST", tol_consist)
    assert np.isfinite(mu_t.matrix(g0)).all()


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


def test_cayley_slice_refuses_a_base_that_is_not_a_rotation():
    R = exp_so3(np.array([0.2, -0.1, 0.4]))
    shear = np.eye(3)
    shear[0, 1] = 1.0
    for g0 in (np.diag([1.0, 1.0, -1.0]), -R, 1.5 * R, shear,
               np.zeros((3, 3)), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="g0 must be a rotation"):
            cayley_slice(SIGMA, g0)
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        cayley_slice(SIGMA, np.eye(4))
    # a rotation's inverse is its transpose
    assert np.array_equal(cayley_slice(SIGMA, R)._g0_inv, R.T)


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
    assert np.linalg.norm(S.tangent(p) @ dp - fd_vec) < 1e-8


def test_locate_and_contains():
    S = cayley_slice(SIGMA, np.eye(3))
    p0 = np.array([-0.2, 0.35])
    p, resid = S.locate(S.psi(p0))
    assert resid < 1e-12
    assert np.linalg.norm(p - p0) < 1e-10
    assert S.contains(S.psi(p0))
    # a vertical rotation is off the slice
    assert not S.contains(exp_so3(0.5 * SIGMA))


def test_locate_inverts_psi_at_a_tilted_base():
    S = cayley_slice(SIGMA, exp_so3(np.array([0.2, -0.1, 0.4])))
    for p0 in ([0.0, 0.0], [0.3, -0.2], [-0.55, 0.4]):
        p0 = np.array(p0)
        p, resid = S.locate(S.psi(p0))
        assert resid <= 1e-12
        assert np.linalg.norm(p - p0) < 1e-10


def test_locate_on_the_slice_evaluates_psi_once():
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
        # the chart, and psi once for the residual
        assert len(calls) == 1
        assert resid <= 1e-15
        assert np.linalg.norm(p - p0) <= 1e-15


def test_locate_decomposes_no_matrix(decompositions):
    S = cayley_slice(SIGMA, exp_so3(np.array([0.2, -0.1, 0.4])))
    p0 = np.array([0.3, -0.2])
    p, resid = S.locate(S.psi(p0))
    assert resid <= 1e-15
    # the chart is closed form: no SVD, lstsq or pseudo-inverse
    assert decompositions == {}


@pytest.mark.parametrize("g0", [np.eye(3), exp_so3([0.2, -0.1, 0.4])],
                         ids=["identity", "tilted"])
def test_locate_is_the_least_squares_point(g0):
    """locate gives the residual of a least-squares fit of psi to the
    target, started at 0, to 1e-12: at slice points conjugated by rotations
    about sigma, at nearby images of slice points, and at rotations whose
    chart is inside the radius."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    S = cayley_slice(SIGMA, g0)
    rng = np.random.default_rng(49)
    targets = []
    for _ in range(100):
        p = rng.standard_normal(2)
        m = S.psi(0.6 * rng.random() * p / np.linalg.norm(p))
        R = exp_so3(2 * np.pi * rng.random() * SIGMA)
        a, b = 0.2 * rng.standard_normal(2)
        targets += [R @ m @ R.T, exp_so3(a * SIGMA) @ m @ exp_so3(-b * SIGMA)]
        g = exp_so3(0.6 * rng.standard_normal(3)) @ g0
        if np.linalg.norm(S.chart(g)) < S.radius:
            targets.append(g)
    assert len(targets) >= 250
    for target in targets:
        _, resid = S.locate(target)
        fit = least_squares(lambda p: (S.psi(p) - target).ravel(),
                            np.zeros(2), method="lm", xtol=1e-15,
                            ftol=1e-15, gtol=1e-15)
        assert abs(resid - np.linalg.norm(fit.fun)) <= 1e-12


def test_locate_reads_a_half_turn_as_off_the_slice():
    S = cayley_slice(SIGMA, np.eye(3))
    half_turn = np.diag([1.0, -1.0, -1.0])       # I + R exactly singular
    p, resid = S.locate(half_turn)
    assert np.array_equal(p, [np.inf, np.inf]) and resid == np.inf
    near_half_turn = exp_so3(np.pi * np.array([1.0, 0.0, 0.0]))
    outside = S.psi(np.array([1.2, -0.9]))       # chart value |p| = 1.5
    for m in (near_half_turn, outside):
        assert np.linalg.norm(S.chart(m)) >= S.radius
    for m in (half_turn, near_half_turn, outside):
        assert not S.contains(m)


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


def test_abel_involutivity_records_hold_to_1e_5(setup):
    A, mu, g0, adaptor = setup
    rep = abel_involutivity(mu, adaptor, _pi(), _iota, samples=2,
                            rng=np.random.default_rng(44))
    assert {(c.check_id, c.tolerance) for c in rep.checks} == {
        ("xi-involutive", 1e-5), ("bracket-tangent", 1e-5),
        ("corrections-vanish", 1e-5)}


def test_abel_sample_evaluates_each_point_once(setup, monkeypatch):
    A, mu, g0, adaptor = setup
    gen_calls, adapted_calls, plain_points = [], [], []
    gen_matrix = type(A).gen_matrix
    matrix = mu._matrix_fn

    def counted_gen(self, m):
        gen_calls.append(1)
        return gen_matrix(self, m)

    def counted_adapted(*args, **kwargs):
        adapted_calls.append(1)
        return adapted_inertia(*args, **kwargs)

    def counted_matrix(pt):
        plain_points.append(pt.m)
        return matrix(pt)

    monkeypatch.setattr(type(A), "gen_matrix", counted_gen)
    monkeypatch.setattr(slices, "adapted_inertia", counted_adapted)
    monkeypatch.setattr(mu, "_matrix_fn", counted_matrix)
    rng = np.random.default_rng(48)
    rep = abel_involutivity(mu, adaptor, _pi(), _iota, samples=1, rng=rng)
    assert rep.all_passed, rep.to_text()
    # the adapted form at m once: the derivatives of the exact bracket
    # read the adapted point evaluation, which reads the plain one
    assert len(adapted_calls) == 1
    # the generators only at m: every derivative is taken there
    assert len(gen_calls) == 1
    # the plain form once, at the sample point m
    m = slices.near_base_point(A, g0, np.random.default_rng(48))
    assert len(plain_points) == 1
    assert all(np.array_equal(p, m) for p in plain_points)


def test_reversed_bracket_fails_every_abel_record(monkeypatch):
    # a mutation: field_bracket with the sign of its derivative term b
    # reversed must fail every bracket record of the near-singular check
    def run():
        rep = run_scenario(ScenarioConfig("s1s1-so3-slice", seed=1))
        return [c for c in rep.checks
                if c.check_id in ("xi-involutive", "bracket-tangent")]

    assert all(c.passed for c in run())

    def reversed_bracket(action, X, Y, m):
        Xm, Ym = X(m), Y(m)
        b = X.derivative(m, Ym) - Y.derivative(m, Xm)
        return b - action.manifold_alg.bracket(Xm, Ym)

    for module in (curvature, slices):
        monkeypatch.setattr(module, "field_bracket", reversed_bracket)
    records = run()
    assert len(records) == 40
    assert not any(c.passed for c in records)


def test_tangent_matrix_form_equals_the_per_column_calls():
    # the tangent matrix holds the tangents along the parameter axes: each
    # column has the bits of its product with that axis
    rng = np.random.default_rng(49)
    for _ in range(20):
        sigma = rng.standard_normal(3)
        S = cayley_slice(sigma / np.linalg.norm(sigma),
                         exp_so3(rng.standard_normal(3)))
        p = 0.6 * rng.standard_normal(2)
        T = S.tangent(p)
        assert T.shape == (3, 2)
        for j, e in enumerate(np.eye(2)):
            assert np.array_equal(T[:, j], T @ e)
        # any matrix of directions, one column each
        D = rng.standard_normal((2, 3))
        assert np.allclose(T @ D, np.array([T @ d for d in D.T]).T,
                           rtol=0, atol=1e-15)
