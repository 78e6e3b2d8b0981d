import numpy as np
import pytest

from conftest import (general_Ad, is_special_orthogonal,
                      is_special_unitary)
from gconn.actions import get_action
from gconn.groups import (LieAlgebra, cay, cross, exp_so3, hat, inverse,
                          so3_algebra, su3_basis, vee)


def test_hat_vee_roundtrip():
    v = np.array([0.3, -1.2, 2.5])
    assert np.allclose(vee(hat(v)), v)
    y = np.array([1.0, 0.5, -0.25])
    assert np.allclose(hat(v) @ y, np.cross(v, y))


def test_exp_so3_is_rotation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = exp_so3(rng.standard_normal(3))
        assert is_special_orthogonal(g)
    # small-angle branch
    assert np.allclose(exp_so3(1e-14 * np.ones(3)), np.eye(3), atol=1e-13)


def test_cay_rotation_angle():
    eta = np.array([0.0, 0.0, 0.8])
    g = cay(eta)
    assert is_special_orthogonal(g)
    # rotation about eta by 2 atan(|eta|/2)
    th = 2.0 * np.arctan(0.4)
    assert np.allclose(g, exp_so3(th * np.array([0, 0, 1.0])))
    assert np.allclose(cay(np.zeros(3)), np.eye(3))


def test_so3_algebra_structure():
    alg = so3_algebra()
    assert alg.dim == 3
    assert np.allclose(alg.gram, np.eye(3))
    e = np.eye(3)
    # bracket matches the cross product in coordinates
    assert np.allclose(alg.bracket(e[0], e[1]), e[2])
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(alg.bracket(a, b), np.cross(a, b), atol=1e-12)


def test_su3_gram_diagonal():
    alg = su3_basis()
    assert alg.dim == 8
    assert np.allclose(alg.gram, np.diag([2.0, 6.0, 2, 2, 2, 2, 2, 2]))


def test_su3_commutators():
    # indices: d1=0, d2=1, s1..s3=2..4, x1..x3=5..7
    alg = su3_basis()
    E = np.eye(8)
    cases = [
        (2, 5, E[0] - E[1]),        # [s1, x1] = d1 - d2
        (3, 6, E[0] + E[1]),        # [s2, x2] = d1 + d2
        (2, 6, E[4]),               # [s1, x2] = s3
        (3, 5, -E[4]),              # [s2, x1] = -s3
        (2, 3, E[7]),               # [s1, s2] = x3
        (5, 6, -E[7]),              # [x1, x2] = -x3
        (2, 7, -E[3]),              # [s1, x3] = -s2
        (3, 7, E[2]),               # [s2, x3] = s1
    ]
    for i, j, want in cases:
        got = alg.bracket(E[i], E[j])
        assert np.linalg.norm(got - want) < 1e-12, (i, j, got)


def test_su3_jacobi():
    alg = su3_basis()
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        total = (alg.bracket(a, alg.bracket(b, c))
                 + alg.bracket(b, alg.bracket(c, a))
                 + alg.bracket(c, alg.bracket(a, b)))
        assert np.linalg.norm(total) < 1e-10


def test_su3_exp_is_special_unitary():
    alg = su3_basis()
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = alg.exp(rng.standard_normal(8))
        assert is_special_unitary(g)


def test_Ad_is_homomorphism_and_isometry():
    alg = su3_basis()
    rng = np.random.default_rng(6)
    g = alg.exp(0.7 * rng.standard_normal(8))
    h = alg.exp(0.7 * rng.standard_normal(8))
    Ag, Ah = alg.Ad_matrix(g), alg.Ad_matrix(h)
    assert np.linalg.norm(alg.Ad_matrix(g @ h) - Ag @ Ah) < 1e-9
    # the pairing -tr(AB) is Ad-invariant
    assert np.linalg.norm(Ag.T @ alg.gram @ Ag - alg.gram) < 1e-9


def test_Ad_conjugates_bracket():
    alg = so3_algebra()
    rng = np.random.default_rng(7)
    g = exp_so3(rng.standard_normal(3))
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    Ag = alg.Ad_matrix(g)
    lhs = Ag @ alg.bracket(a, b)
    rhs = alg.bracket(Ag @ a, Ag @ b)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_coords_rejects_off_span():
    alg = so3_algebra()
    with pytest.raises(ValueError):
        alg.coords(np.eye(3))  # symmetric, not in so(3)


@pytest.mark.parametrize("make", [su3_basis, so3_algebra])
def test_Ad_matrix_matches_columnwise_coords(make):
    alg = make()
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = alg.exp(rng.standard_normal(alg.dim))
        gi = np.linalg.inv(g)
        cols = np.array([alg.coords(g @ B @ gi) for B in alg.basis]).T
        assert np.linalg.norm(alg.Ad_matrix(g) - cols) < 1e-12


def test_Ad_matrix_rejects_non_unitary():
    alg = su3_basis()
    with pytest.raises(ValueError):
        alg.Ad_matrix(np.diag([2.0, 0.5, 1.0]))


def test_coords_rejects_hermitian_on_su3():
    alg = su3_basis()
    H = np.array([[1.0, 2.0 + 1j, 0.0],
                  [2.0 - 1j, -1.0, 0.5],
                  [0.0, 0.5, 0.0]])
    with pytest.raises(ValueError):
        alg.coords(H)


def test_cross_matches_numpy_exactly():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        c = cross(a, b)
        assert c.dtype == np.float64
        assert np.array_equal(c, np.cross(a, b))
    ia, ib = np.array([3, -7, 2]), np.array([5, 1, -4])
    assert np.array_equal(cross(ia, ib), np.cross(ia, ib))
    assert cross(ia, ib).dtype == np.cross(ia, ib).dtype
    la, lb = [0.1, 2.0, -3.5], [1.5, -0.25, 4.0]
    assert np.array_equal(cross(la, lb), np.cross(la, lb))
    with pytest.raises(ValueError):
        cross(np.ones(2), np.ones(3))


def _same_bits(a, b):
    """Equal dtype, shape and bits (so signed zeros count)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.int64),
                               np.ascontiguousarray(b).view(np.int64)))


def _signed_zero_samples(rng, n, count):
    """Seeded coordinate vectors, some of whose entries are +0.0 or -0.0."""
    for _ in range(count):
        c = rng.standard_normal(n)
        c[rng.random(n) < 0.3] = 0.0
        c[rng.random(n) < 0.3] = -0.0
        yield c


def test_hat_matches_indexing_formula_bit_for_bit():
    def reference(v):
        v = np.asarray(v, dtype=float).ravel()
        return np.array([[0.0, -v[2], v[1]],
                         [v[2], 0.0, -v[0]],
                         [-v[1], v[0], 0.0]])

    rng = np.random.default_rng(17)
    for v in _signed_zero_samples(rng, 3, 500):
        assert _same_bits(hat(v), reference(v))
    for v in ([0.0, -0.0, 1.5], [1, -2, 3], np.array([[0.5], [-0.0], [2.0]])):
        assert _same_bits(hat(v), reference(v))


@pytest.mark.parametrize("make", [su3_basis, so3_algebra])
def test_algebra_matrix_matches_python_sum_bit_for_bit(make):
    alg = make()

    def reference(coords):
        coords = np.asarray(coords, dtype=float).ravel()
        M = sum(c * B for c, B in zip(coords, alg.basis))
        return np.asarray(M, dtype=complex if np.iscomplexobj(alg.basis[0])
                          else float)

    rng = np.random.default_rng(18)
    for c in _signed_zero_samples(rng, alg.dim, 500):
        assert _same_bits(alg.matrix(c), reference(c))
    for c in (np.zeros(alg.dim), -np.zeros(alg.dim)):
        assert _same_bits(alg.matrix(c), reference(c))


def test_so3_real_coordinates_match_the_complex_path_bit_for_bit():
    alg = so3_algebra()
    rng = np.random.default_rng(19)
    for _ in range(500):
        g = exp_so3(2.0 * rng.standard_normal(3))
        stack = g @ alg._stacked @ g.T
        for Ms in (stack, stack[:1], stack[1:], hat(rng.standard_normal(3))[None]):
            assert _same_bits(alg._coords_columns(Ms),
                              alg._coords_columns(Ms.astype(complex)))
    # a nonzero imaginary part is outside the real span
    M = hat([0.3, -1.0, 2.0]) + 1e-3j * hat([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        alg.coords(M)
    with pytest.raises(ValueError):
        alg.coords(np.diag([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Ad(g, C): the rotation and unitary paths, against the general reference

def test_su_n_is_decided_from_the_basis():
    su3 = su3_basis()
    assert su3._su_n and not so3_algebra()._su_n
    # a scaled basis spans su(3) as well; a traceful one does not
    assert LieAlgebra("su3x2", [2.0 * B for B in su3.basis],
                      su3._pairing)._su_n
    traceful = [su3.basis[0] + 1j * np.eye(3)] + su3.basis[1:]
    assert not LieAlgebra("u", traceful, su3._pairing)._su_n


@pytest.mark.parametrize("name, tol", [("hxh-on-su3", 1e-14),
                                       ("s1s1-on-so3", 1e-15)])
def test_Ad_paths_agree_with_the_general_path(name, tol):
    """2,000 draws: the unitary path on su(3) agrees with the general path
    to 3.6e-15 (measured; the entries reach about 2), the rotation path on
    so(3) to 5.6e-16."""
    A = get_action(name)
    alg, H = A.manifold_alg, A.algebra.h
    eye = np.eye(alg.dim)
    rng = np.random.default_rng(40)
    for _ in range(2000):
        g = A.random_point(rng)
        assert np.max(np.abs(alg.Ad(g, H) - general_Ad(alg, g, H))) <= tol
        assert np.max(np.abs(alg.Ad_matrix(g)
                             - general_Ad(alg, g, eye))) <= tol


def test_unitary_path_stays_in_the_span():
    """The span test the unitary path drops would have passed: each
    conjugate g B_i g^H is reproduced by its coordinates to 1e-12."""
    alg = su3_basis()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(2000):
        g = alg.exp(rng.standard_normal(8))
        rhs = alg._realified(g @ alg._stacked @ g.conj().T)
        d = alg._flat @ alg.Ad_matrix(g) - rhs
        resid = np.sqrt((d * d).sum(axis=0))
        scale = np.maximum(1.0, np.sqrt((rhs * rhs).sum(axis=0)))
        worst = max(worst, float(np.max(resid / scale)))
    assert worst <= 1e-12


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_Ad_matrix_times_C_is_Ad_bit_for_bit(name):
    A = get_action(name)
    alg = A.manifold_alg
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = A.random_point(rng)
        for C in (A.algebra.h, rng.standard_normal((alg.dim, 3))):
            assert np.array_equal(alg.Ad_matrix(g) @ C, alg.Ad(g, C))


def test_unitary_path_makes_no_projection_and_refuses_the_rest(
        monkeypatch):
    """The unitary path projects without the span test; a g that is not
    unitary (a scaled unitary, a shear) is refused before any
    projection."""
    alg = su3_basis()
    calls = []
    coords_columns = LieAlgebra._coords_columns

    def spy(*args, **kwargs):
        calls.append("_coords_columns")
        return coords_columns(*args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "_coords_columns", spy)
    rng = np.random.default_rng(43)
    for _ in range(50):
        alg.Ad_matrix(alg.exp(rng.standard_normal(8)))
    assert calls == []
    shear = np.eye(3)
    shear[0, 1] = 1.0
    for g in (1.1 * alg.exp(rng.standard_normal(8)), shear):
        with pytest.raises(ValueError, match="not unitary"):
            alg.Ad(g, np.eye(8)[:, :2])
    assert calls == []


def test_inverse_is_the_conjugate_transpose_of_a_unitary_only():
    su3 = su3_basis()
    rng = np.random.default_rng(44)
    for g in (su3.exp(rng.standard_normal(8)), exp_so3([0.3, -1.2, 0.4]),
              np.diag([1.0, -1.0, 1.0]), np.eye(5)):
        assert np.array_equal(inverse(g), g.conj().T)
    shear = np.eye(3)
    shear[0, 1] = 1.0
    for g in (shear, 1.1 * su3.exp(rng.standard_normal(8)), 2.0 * np.eye(3),
              np.zeros((3, 3)), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            inverse(g)
    for g in (np.ones((2, 3)), np.ones(3), np.eye(3)[None]):
        with pytest.raises(ValueError, match="not square"):
            inverse(g)
