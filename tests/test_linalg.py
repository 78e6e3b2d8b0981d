import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gconn.linalg import (SVD, InconsistentSystemError, Subspace,
                          central_difference, curve_derivative, norm,
                          range_space, rank_nullspace, solve_consistent)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def test_subspace_basis_orthonormal():
    rng = np.random.default_rng(1)
    vecs = [rng.standard_normal(5) for _ in range(3)]
    S = Subspace(vecs)
    assert S.dim == 3
    assert np.allclose(S.basis.T @ S.basis, np.eye(3))


def test_subspace_dedupes_dependent_vectors():
    v = np.array([1.0, 2.0, 0.0])
    S = Subspace([v, 2 * v, -v])
    assert S.dim == 1
    assert S.contains(7 * v, 1e-12)
    assert not S.contains(np.array([0.0, 0.0, 1.0]), 1e-8)


def test_empty_subspace():
    S = Subspace([], ambient_dim=4)
    assert S.dim == 0
    assert np.allclose(S.project(np.ones(4)), 0.0)


def test_rank_nullspace_consistency():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 6))
    A[3] = A[0] + A[1]  # force rank 3
    r, kern = rank_nullspace(A)
    assert r == 3
    assert kern.dim == 3
    assert np.linalg.norm(A @ kern.basis) < 1e-10


def test_range_space_matches_columns():
    A = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 6.0]])
    R = range_space(A)
    assert R.dim == 1
    assert R.contains(A[:, 1], 1e-12)


def test_range_space_empty_and_non_finite():
    R = range_space(np.zeros((3, 0)))
    assert (R.dim, R.ambient_dim) == (0, 3)
    # rank + nullity = columns holds for a matrix without rows too
    r, kern = rank_nullspace(np.zeros((0, 3)))
    assert (r, kern.dim) == (0, 3)
    with pytest.raises(ValueError):
        range_space(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_solve_consistent_min_norm():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = solve_consistent(A, np.array([2.0, 3.0]))
    assert np.allclose(x, [2.0, 3.0, 0.0])


def test_solve_consistent_raises_on_inconsistency():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(InconsistentSystemError) as exc:
        solve_consistent(A, np.array([1.0, 0.0]))
    assert exc.value.residual > 0.1


def test_solve_consistent_decomposes_once(decompositions):
    rng = np.random.default_rng(13)
    cases = []
    for shape, rank in [((4, 4), 4), ((5, 5), 3), ((3, 6), 2), ((6, 3), 3)]:
        A = rng.standard_normal((shape[0], rank)) @ rng.standard_normal(
            (rank, shape[1]))
        cases.append((A, A @ rng.standard_normal(shape[1])))
    xs = [solve_consistent(A, b, 1e-8) for A, b in cases]
    # one SVD per call: no pinv and no spectral norm on top of it
    assert decompositions == {"svd": len(cases)}
    for (A, b), x in zip(cases, xs):
        ref = np.linalg.pinv(A, 1e-8) @ b
        assert np.max(np.abs(x - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("call", [
    lambda A, b: SVD(A).rank,
    lambda A, b: Subspace(A),
    lambda A, b: rank_nullspace(A),
    lambda A, b: range_space(A),
    lambda A, b: solve_consistent(A, np.ones(2)),
    lambda A, b: solve_consistent(np.eye(2), b),
    lambda A, b: SVD(np.eye(2)).solve(b),
], ids=["SVD", "Subspace", "rank_nullspace", "range_space",
        "solve_consistent-A", "solve_consistent-b", "SVD.solve-b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(call, bad):
    A = np.array([[bad, 1.0], [0.0, 1.0]])
    b = np.array([bad, 1.0])
    # numpy's LinAlgError is a ValueError too; the match tells them apart
    with pytest.raises(ValueError, match="non-finite"):
        call(A, b)


def test_svd_answers_share_one_cutoff():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    svd = SVD(A)
    assert svd.rank == 2
    assert (svd.kernel.dim, svd.range.dim, svd.row_space.dim) == (2, 2, 2)
    assert np.linalg.norm(A @ svd.kernel.basis) < 1e-12
    assert svd.row_space.contains_subspace(range_space(A.T), 1e-12)
    assert np.array_equal(svd.pinv, np.linalg.pinv(A, 1e-8))
    assert svd.cond == svd.s[0] / svd.s[1]
    assert svd.gap == svd.s[2] / svd.s[1] < 1e-8
    assert SVD(np.diag([2.0, 1.0])).gap == 0.0


def test_inconsistent_solve_names_its_cond():
    svd = SVD(np.diag([1.0, 1e-3, 0.0]))
    with pytest.raises(InconsistentSystemError,
                       match=r"cond 1\.000e\+03, gap 0\.000e\+00\)$"):
        svd.solve(np.array([0.0, 0.0, 1.0]))
    assert SVD(np.zeros((2, 2))).cond == np.inf
    assert SVD(np.zeros((2, 3))).gap == np.inf
    # a value dropped by the cutoff rather than exactly zero shows in the gap
    svd = SVD(np.diag([1.0, 1e-3, 1e-9]))
    assert svd.rank == 2
    with pytest.raises(InconsistentSystemError,
                       match=r"cond 1\.000e\+03, gap 1\.000e-06\)$") as exc:
        svd.solve(np.array([0.0, 0.0, 1.0]))
    assert (exc.value.cond, exc.value.gap) == (svd.cond, svd.gap)


def test_central_difference_jacobian():
    def f(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    x = np.array([1.5, -0.7])
    J = central_difference(f, x, 1e-6)
    expect = np.array([[2 * x[0], 0.0], [x[1], x[0]]])
    assert np.linalg.norm(J - expect) < 1e-8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(finite, min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_projection_idempotent_property(rows):
    S = Subspace([np.array(r) for r in rows], ambient_dim=4)
    v = np.arange(4.0)
    p = S.project(v)
    assert np.linalg.norm(S.project(p) - p) < 1e-8 * max(1, np.linalg.norm(p))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(finite, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_plus_nullity_property(rows):
    A = np.array(rows)
    r, kern = rank_nullspace(A)
    assert r + kern.dim == A.shape[1]
    assert range_space(A).dim == r


def test_directional_and_curve_derivatives_agree():
    # the curve derivative of t -> sin(x + t v) is the directional
    # derivative cos(x) v, with a central difference's h^2 error
    x = np.array([0.2, 0.4, 0.6])
    v = np.array([1.0, -2.0, 0.5])
    want = np.cos(x) * v

    def err(h):
        return np.linalg.norm(curve_derivative(lambda t: np.sin(x + t * v), h)
                              - want)

    assert err(1e-5) < 1e-9
    assert 90.0 < err(1e-3) / err(1e-4) < 110.0


def test_norm_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(500):
        v = rng.standard_normal(rng.integers(1, 20))
        v *= 10.0 ** rng.integers(-8, 9)
        A = rng.standard_normal(rng.integers(1, 9, size=2))
        for x in (v, A, np.asfortranarray(A), A.T, A[::2, 1:]):
            n = norm(x)
            assert type(n) is float
            assert n == np.linalg.norm(x)
    ints = np.array([[3, -4], [12, 0]])
    assert norm(ints) == np.linalg.norm(ints) == 13.0
    assert norm([3, 4]) == 5.0
    assert norm(np.zeros((0, 3))) == np.linalg.norm(np.zeros((0, 3)))
    # an imaginary part is never dropped
    with pytest.raises(TypeError):
        norm(np.array([1.0, 1j]))
