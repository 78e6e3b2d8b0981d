"""The closed-form curvature of the two-sided torus actions: accuracy near
the singular set, agreement with the normal equations it replaced, and
loud failure on bad input."""

import numpy as np
import pytest

from closed_reference import curvature_leftright_normal
from gconn import curvature, linalg
from gconn.actions import get_action
from gconn.connections import fd_oracle, simple_mechanical_mu
from gconn.cli import ScenarioConfig, check_closed_vs_fd, run_scenario
from gconn.curvature import curvature_leftright_closed
from gconn.report import VerificationReport


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
@pytest.mark.parametrize("slot", [0, 1], ids=["xi", "omega"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(name, slot, bad):
    A = get_action(name)
    rng = np.random.default_rng(52)
    g = A.random_point(rng)
    uv = [rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)]
    uv[slot][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        curvature_leftright_closed(A, g, *uv)


def _cond_chi(A, g):
    K = A.gen_matrix(g)
    return np.linalg.cond(K.T @ A.manifold_alg.gram @ K)


def _closed_vs_fd_draws(seed):
    """The (g, u, v) of each sample that ``check_closed_vs_fd`` draws at a
    CLI seed (20 samples), recorded in place of both curvatures."""
    draws = []

    def record(A, g, u, v):
        draws.append((g, u, v))
        return np.zeros(8)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "curvature_leftright_closed", record)
        mp.setattr(curvature, "curvature", lambda *args: np.zeros(8))
        check_closed_vs_fd(VerificationReport("draws"),
                           np.random.default_rng(seed), 20)
    return draws


# (seed, sample index) of every closed-vs-fd draw at seeds 0-5 with
# cond(chi) >= 1e3.  The normal equations were wrong by 45 at (0, 13) and
# 150 at (2, 3), and raised InconsistentSystemError at (2, 7) and (3, 18).
_ILL_CONDITIONED = [(0, 12), (0, 13), (1, 16), (2, 3), (2, 4), (2, 7),
                    (2, 17), (3, 11), (3, 18), (4, 5), (4, 14), (5, 0),
                    (5, 18)]


def test_ill_conditioned_rows_are_the_replayed_ones():
    A = get_action("hxh-on-su3")
    rows = [(seed, i) for seed in range(6)
            for i, (g, _, _) in enumerate(_closed_vs_fd_draws(seed))
            if _cond_chi(A, g) >= 1e3]
    assert rows == _ILL_CONDITIONED


def _extended_reference(A, g, u, v):
    """K chi^-1 nab at 40 digits from the float generators and inputs, where
    chi is invertible (isotropy dimension 0), so that the tamed system
    chi # chi zeta = chi # nab has the one solution chi^-1 nab."""
    mpmath = pytest.importorskip("mpmath")
    alg = A.manifold_alg
    with mpmath.workdps(40):
        K = mpmath.matrix(A.gen_matrix(g).tolist())
        G = mpmath.matrix(alg.gram.tolist())
        chi_inv = mpmath.inverse(K.T * G * K)
        W = mpmath.matrix(np.column_stack([u, v]).tolist())
        W = W - K * (chi_inv * (K.T * G * W))
        ad = mpmath.zeros(alg.dim)
        for i, e in enumerate(np.eye(alg.dim)):
            ad += W[i, 0] * mpmath.matrix(alg.ad_matrix(e).tolist())
        nab = K.T * G * (ad * W.column(1))
        k = K.cols // 2
        nab = mpmath.diag([1] * k + [-1] * k) * nab
        z = K * (chi_inv * nab)
        return np.array([float(x) for x in z])


@pytest.mark.parametrize("seed, index", _ILL_CONDITIONED,
                         ids=[f"seed{s}-{i}" for s, i in _ILL_CONDITIONED])
def test_ill_conditioned_draw_matches_the_extended_precision_reference(
        seed, index):
    # measured: the closed form at most 8.3e-13, at (3, 18) with cond(chi)
    # 9.3e5; closed-vs-fd's oracle, differences of the untamed form, at most
    # 9.3e-8, at (2, 7).  Differences of the tamed form raise
    # DegeneracyError at (0, 13), (2, 3), (2, 7) and (3, 18).
    A = get_action("hxh-on-su3")
    g, u, v = _closed_vs_fd_draws(seed)[index]
    want = _extended_reference(A, g, u, v)
    got = curvature_leftright_closed(A, g, u, v)
    assert np.max(np.abs(got - want)) <= 1e-11
    oracle = curvature.curvature(fd_oracle(simple_mechanical_mu(A)), g, u, v)
    assert np.max(np.abs(oracle - want)) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_closed_vs_fd_catches_a_scaled_closed_form(monkeypatch, seed):
    # a (1 + 1e-6) scaling: measured closed-vs-fd residuals 4.1e-5 to
    # 2.2e-4 at seeds 0-5, against the record's 1e-5
    closed = curvature.curvature_leftright_closed
    monkeypatch.setattr(curvature, "curvature_leftright_closed",
                        lambda *args: closed(*args) * (1 + 1e-6))
    rep = run_scenario(ScenarioConfig("hxh-su3-curvature", seed=seed))
    [record] = [c for c in rep.checks if c.check_id == "closed-vs-fd"]
    assert not record.passed


_PAIRS = [(i, j) for i in range(8) for j in range(i + 1, 8)]


def _agrees_with_normal_equations(A, g, u, v, tol=1e-12):
    want = curvature_leftright_normal(A, g, u, v)
    got = curvature_leftright_closed(A, g, u, v)
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("theta", [np.pi / 5, np.pi / 3, 1.0, 0.9])
def test_agrees_with_normal_equations_along_the_table_curve(theta):
    A = get_action("hxh-on-su3")
    E = np.eye(8)
    g = A.manifold_alg.exp(theta * E[7])
    for i, j in _PAIRS:
        assert _agrees_with_normal_equations(A, g, E[i], E[j]), (i, j)


_CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


@pytest.mark.parametrize("torus", [0.0, 1.0], ids=["cycle", "cycle-torus"])
def test_agrees_with_normal_equations_at_a_weyl_point(torus):
    # at a Weyl point the isotropy has dimension 2, nab leaves the range of
    # chi and the tamed solve depends on its # weighting: without it the
    # result moves by more than 1 (5.6 measured) while the curvature is 0
    A = get_action("hxh-on-su3")
    E = np.eye(8)
    g = _CYCLE @ A.manifold_alg.exp(torus * (0.4 * E[0] - 0.3 * E[1]))
    assert np.linalg.matrix_rank(A.gen_matrix(g)) == 2
    rng = np.random.default_rng(50)
    unweighted = []
    for _ in range(3):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert _agrees_with_normal_equations(A, g, u, v)
        unweighted.append(np.max(np.abs(
            curvature_leftright_normal(A, g, u, v, sharp=np.eye(4))
            - curvature_leftright_closed(A, g, u, v))))
    for i, j in _PAIRS:
        assert _agrees_with_normal_equations(A, g, E[i], E[j]), (i, j)
    assert max(unweighted) > 1.0


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_agrees_with_normal_equations_at_well_conditioned_points(name):
    # measured: at most 8.8e-14 relative on hxh-on-su3
    A = get_action(name)
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(60):
        g = A.random_point(rng)
        u, v = rng.standard_normal(A.vec_dim), rng.standard_normal(A.vec_dim)
        if _cond_chi(A, g) <= 1e2:
            checked += 1
            assert _agrees_with_normal_equations(A, g, u, v)
    assert checked >= 30


def test_flat_record_does_not_depend_on_the_rank_cutoff(monkeypatch):
    # chi sharp chi squared the conditioning of chi, and the s1s1 record read
    # 5.0e-12, 1.7e-10 and 1.7e-10 at these cutoffs; R K keeps the one
    # decision at all three (4.2e-14)
    flat = set()
    for tol_rank in (1e-8, 1e-9, 1e-10):
        monkeypatch.setattr(linalg, "TOL_RANK", tol_rank)
        rep = run_scenario(ScenarioConfig("s1s1-so3-slice", seed=1))
        flat |= {c.residual for c in rep.checks if c.check_id == "flat"}
    assert len(flat) == 1 and flat.pop() < 1e-12


def test_s1s1_stays_flat_over_a_seeded_sweep():
    # the flat record's draw, 10,000 times; measured max 7.8e-11, a margin
    # of about 1,300 below the record's 1e-7.  One SVD of #^(1/2) chi for
    # both the projection and the solve exceeds 1e-7 on 13 of these draws
    # (max 4.9e-5).
    A = get_action("s1s1-on-so3")
    rng = np.random.default_rng(0)
    norms = []
    for _ in range(10_000):
        g = A.random_point(rng)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        norms.append(np.linalg.norm(curvature_leftright_closed(A, g, u, v)))
    assert np.max(norms) < 1e-7     # NaN fails
