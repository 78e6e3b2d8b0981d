import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gconn import linalg
from gconn.linalg import (FD_STEP, SVD, InconsistentSystemError, Subspace,
                          central_difference, curve_derivative, eigh, norm,
                          range_space, rank_nullspace, solve,
                          solve_consistent, svd)

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
    xs = [solve_consistent(A, b) for A, b in cases]
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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_rank_cutoff_is_1e_8_of_the_largest_singular_value(scale):
    assert SVD(np.diag([scale, 1.01e-8 * scale])).rank == 2
    assert SVD(np.diag([scale, 0.99e-8 * scale])).rank == 1


def test_step_is_1e_5():
    # the 4-point difference probes +-h and +-2h
    assert _steps(curve_derivative) == {1e-5, 2e-5}
    assert _steps(lambda f: central_difference(f, np.zeros(1))) == {1e-5,
                                                                   2e-5}


def test_inconsistent_solve_names_its_cond():
    svd = SVD(np.diag([1.0, 1e-3, 0.0]))
    with pytest.raises(InconsistentSystemError,
                       match=r"^SVD\.solve: .*"
                             r"cond 1\.000e\+03, gap 0\.000e\+00\)$"):
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


def _parameters():
    """(file:function, parameter, default or None) of every function of the
    package."""
    src = Path(__file__).resolve().parents[1] / "src" / "gconn"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [None] * (len(positional) - len(a.defaults))
            for arg, default in zip(positional + a.kwonlyargs,
                                    defaults + a.defaults + a.kw_defaults):
                yield f"{path.name}:{node.name}", arg.arg, default


def test_no_solve_takes_its_own_consistency_tolerance():
    """linalg.TOL_CONSIST is the one consistency tolerance and every
    record's threshold is fixed at the record: no function of the package
    has a ``tol_consist`` or ``tol_eq`` parameter, and only the two
    containment tests of ``Subspace``, which callers use at 1e-6 and at
    1e-8, take a ``tol``."""
    found = [(where, name) for where, name, _ in _parameters()
             if name in ("tol_consist", "tol_eq", "tol")]
    assert found == [("linalg.py:contains", "tol"),
                     ("linalg.py:contains_subspace", "tol")]


def test_no_function_takes_a_rank_cutoff_or_a_step_size():
    """linalg.TOL_RANK is the one rank cutoff and linalg.FD_STEP the one
    default difference step: no function of the package has a
    ``tol_rank`` or ``fd_step`` parameter."""
    assert [(where, name) for where, name, _ in _parameters()
            if name in ("tol_rank", "fd_step")] == []


def test_no_function_takes_a_generator_matrix():
    """A form and its point evaluation are read from the point alone: the
    one function of the package with a ``K`` parameter is the actions'
    ``dgen_matrix`` (with its overrides), the derivative of the generator
    matrix K that the point evaluation holds."""
    assert {where for where, name, _ in _parameters()
            if name == "K"} == {"actions.py:dgen_matrix"}


def test_no_generator_has_a_default():
    """Every draw comes from the caller's generator: no ``rng`` parameter
    has a default, which would draw from a seed the caller never chose."""
    assert [where for where, name, default in _parameters()
            if name == "rng" and default is not None] == []


def test_central_difference_jacobian():
    def f(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    x = np.array([1.5, -0.7])
    J = central_difference(f, x)
    expect = np.array([[2 * x[0], 0.0], [x[1], x[0]]])
    assert np.linalg.norm(J - expect) < 1e-8


def test_a_quartic_is_differenced_exactly():
    # the 4-point difference errs by h^4 f^(5) / 30, so by roundoff alone
    # on a quartic; a 2-point one errs by h^2 f^(3) / 6: by 4e-9 on the
    # 40 t^3 term of the curve, and by 5e-10 on the Jacobian
    def curve(t):
        return np.array([(1.0 + t) ** 4, 40.0 * t ** 3 + t * t - t])

    assert norm(curve_derivative(curve) - [4.0, -1.0]) < 1e-10

    def f(x):
        return np.array([x[0] ** 4 - 20.0 * x[0] ** 3 * x[1],
                         10.0 * x[1] ** 3 + x[0] * x[1]])

    x = np.array([0.5, -0.3])
    expect = np.array([[4 * x[0] ** 3 - 60 * x[0] ** 2 * x[1],
                        -20 * x[0] ** 3],
                       [x[1], 30 * x[1] ** 2 + x[0]]])
    assert norm(central_difference(f, x) - expect) < 1e-10


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


def test_directional_and_curve_derivatives_agree(monkeypatch):
    # the curve derivative of t -> sin(x + t v) is the directional
    # derivative cos(x) v, with the 4-point difference's h^4 error
    x = np.array([0.2, 0.4, 0.6])
    v = np.array([1.0, -2.0, 0.5])
    want = np.cos(x) * v

    def err(h):
        monkeypatch.setattr(linalg, "FD_STEP", h)
        return norm(curve_derivative(lambda t: np.sin(x + t * v)) - want)

    assert err(1e-5) < 1e-10
    assert 15.0 < err(1e-2) / err(5e-3) < 17.0


def _steps(difference):
    """The steps a difference evaluates its function at."""
    seen = []
    difference(lambda t: seen.append(abs(float(np.ravel(t)[0]))) or t)
    return set(seen)


def test_cutoff_and_step_are_read_at_each_call(monkeypatch):
    A = np.diag([1.0, 1e-3])

    def wide():
        return _steps(lambda f: central_difference(f, np.zeros(1)))

    assert SVD(A).rank == Subspace(A).dim == range_space(A).dim == 2
    assert _steps(curve_derivative) == wide() == {FD_STEP, 2 * FD_STEP}
    monkeypatch.setattr(linalg, "TOL_RANK", 1e-2)
    monkeypatch.setattr(linalg, "FD_STEP", 2e-5)
    assert SVD(A).rank == Subspace(A).dim == range_space(A).dim == 1
    assert _steps(curve_derivative) == wide() == {2e-5, 4e-5}


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


# every matrix shape the package decomposes, and the square ones it inverts
# and solves with
SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (8, 4),
          (9, 2)]
SQUARE = [shape for shape in SHAPES if shape[0] == shape[1]]


def _layouts(rng, shape):
    """A float matrix of ``shape`` as a C-ordered, an F-ordered and a
    strided array, and an int matrix."""
    A = rng.standard_normal(shape)
    big = rng.standard_normal((2 * shape[0], shape[1] + 1))
    return [A, np.asfortranarray(A), big[::2, 1:],
            rng.integers(-9, 10, size=shape)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("shape", SHAPES)
def test_svd_is_numpys_svd_bit_for_bit(shape):
    rng = np.random.default_rng(31)
    for A in _layouts(rng, shape):
        want, d = np.linalg.svd(A), SVD(A)
        assert all(map(_same_bits, svd(A), want))
        assert all(map(_same_bits, (d.U, d.s, d.Vt), want))


@pytest.mark.parametrize("shape", SQUARE)
def test_solve_eigh_are_numpys_bit_for_bit(shape):
    rng = np.random.default_rng(32)
    n = shape[0]
    for A in _layouts(rng, shape):
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2)),
                  np.asfortranarray(rng.standard_normal((n, n)))):
            assert _same_bits(solve(A, b), np.linalg.solve(A, b))
        H = (A + A.T) + 1j * (A - A.T)  # Hermitian
        assert all(map(_same_bits, eigh(H), np.linalg.eigh(H)))


def test_hermitian_eigh_is_numpys_bit_for_bit():
    rng = np.random.default_rng(33)
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = Z + Z.conj().T
    for M in (H, np.asfortranarray(H), H.T):
        assert all(map(_same_bits, eigh(M), np.linalg.eigh(M)))


@pytest.mark.parametrize("call", [
    lambda S: solve(S, np.ones(2)),
    lambda S: solve(S, np.ones((2, 3))),
], ids=["solve-1d", "solve-2d"])
def test_singular_system_raises_linalg_error(call):
    S = np.array([[1.0, 2.0], [2.0, 4.0]])
    # without np.linalg's errstate numpy warns first; the entry then raises
    with pytest.warns(RuntimeWarning, match="invalid value"), \
            pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        call(S)


def test_nan_result_raises_linalg_error():
    N = np.full((2, 2), np.nan)
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError,
                           match="SVD did not converge"):
            svd(N)
        with pytest.raises(np.linalg.LinAlgError,
                           match="Eigenvalues did not converge"):
            eigh(N + 0j)


def test_non_square_input_raises_value_error():
    with pytest.raises(ValueError) as exc:
        solve(np.ones((2, 3)), np.ones(2))
    assert not isinstance(exc.value, np.linalg.LinAlgError)
    with pytest.raises(ValueError):
        eigh(np.ones((3, 2)))


def test_svd_refuses_non_finite_input_before_decomposing(decompositions):
    with pytest.raises(ValueError, match="SVD: non-finite entries") as exc:
        SVD(np.array([[1.0, np.inf], [0.0, 1.0]]))
    assert type(exc.value) is ValueError
    assert decompositions == {}
