"""The so(3) kernels that compute on float triples, and the one-product
``Subspace.contains_subspace``, against the numpy formulas and the
per-column loop they replaced, kept here as the reference (the bracket's
reference is in ``test_exact_derivatives``).

The triple kernels sum dot products in their own order, so a result may
differ from the numpy one in its last bits; the tolerance is fixed at
1e-14 * max(1, |ref|) for every kernel but ``mu_q``'s derivative and
``cay_inv``.  ``mu_q``'s derivative takes a central difference of q at
|m|^2, which amplifies a last-bit change of |m|^2 by 1/h, so it is held to
1e-9 * max(1, |ref|).  ``cay_inv`` divides by 1 + tr R, which goes to 0 at
a half turn, so both its formulas lose digits as 1 / (1 + tr R) there: it
is held to 1e-14 * max(1, |eta|) only where 1 + tr R >= 1 (rotation angles
up to 2 pi / 3), as the round trip from ``cay`` for |eta| <= 2 and against
the reference.  Every error the frame kernels raise is raised at the same
condition and threshold; the group kernels' refusals are tested at their
stated conditions.
"""

import math

import numpy as np
import pytest

from conftest import general_Ad
from gconn import linalg
from gconn.actions import get_action
from gconn.connections import mu_q
from gconn.frames import (DomainError, PartialMovingFrame, _sample_off_poles,
                          dnat_rho, eastward_field, pmf_from_field, rho_us2)
from gconn.groups import (LieAlgebra, cay, cay_inv, cross, exp_so3, hat,
                          so3_algebra, su3_basis)
from gconn.linalg import Subspace
from gconn.slices import cayley_slice

N = 2000
TOL = 1e-14
S2 = get_action("so3-on-s2")
US2 = get_action("so3-on-us2")


def _close(value, ref, tol=TOL):
    ref = np.asarray(ref, dtype=float)
    gap = np.linalg.norm(np.asarray(value, dtype=float) - ref)
    return gap <= tol * max(1.0, np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# the numpy formulas, as they read before the kernels moved to triples

def ref_rho_us2(p):
    m, u = p[:3], p[3:]
    return np.array([m, u, np.cross(m, u)]).T


def ref_dnat_rho(p, v):
    m, u, dm, du = p[:3], p[3:], v[:3], v[3:]
    return np.cross(m, dm) + (np.cross(u, du) @ m) * m


def ref_eastward(m):
    e = np.array([-m[1], m[0], 0.0])
    return e / np.linalg.norm(e)


def ref_eastward_derivative(m, w):
    e = np.array([-m[1], m[0], 0.0])
    n = np.linalg.norm(e)
    y = e / n
    dz = np.array([-w[1], w[0], 0.0])
    return (dz - (y @ dz) * y) / n


def ref_phi(m):
    return ref_rho_us2(np.concatenate([m, ref_eastward(m)]))


def ref_dnat_phi(m, dm):
    dm = dm - (dm @ m) * m
    y = ref_eastward(m)
    return np.cross(m, dm) + (np.cross(y, ref_eastward_derivative(m, dm))
                              @ m) * m


def ref_slip_angle(g, m):
    y = ref_eastward(m)
    w = g.T @ ref_eastward(g @ m)
    return float(np.arctan2(w @ np.cross(m, y), w @ y))


def ref_slip(g, m):
    return g @ ref_exp_so3(ref_slip_angle(g, m) * m)


def ref_dnat_slip(g, m, v):
    v = v - (v @ m) * m
    y = ref_eastward(m)
    gm = g @ m
    w = g.T @ ref_eastward(gm)
    dy = ref_eastward_derivative(m, v)
    dw = g.T @ ref_eastward_derivative(gm, g @ v)
    my = np.cross(m, y)
    a, b = w @ my, w @ y
    da = dw @ my + w @ (np.cross(v, y) + np.cross(m, dy))
    db = dw @ y + w @ dy
    theta = math.atan2(a, b)
    dtheta = (b * da - a * db) / (a * a + b * b)
    return g @ (dtheta * m + math.sin(theta) * v
                + (1.0 - math.cos(theta)) * np.cross(m, v))


def ref_hat(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def ref_mu_q_matrix(q, m):
    return q(float(m @ m)) * ref_hat(m)


def ref_mu_q_dmatrix(q, m, w, h):
    s = float(m @ m)
    dq = (8.0 * (q(s + h) - q(s - h))
          - (q(s + 2.0 * h) - q(s - 2.0 * h))) / (12.0 * h)
    return ref_hat(2.0 * dq * float(m @ w) * m + q(s) * w)


def ref_contains_subspace(S, T, tol):
    return all(S.contains(T.basis[:, j], tol) for j in range(T.dim))


# the SO(3) group kernels, as they read with numpy linear algebra

_I3 = np.eye(3)


def ref_exp_so3(v):
    v = np.asarray(v, dtype=float).ravel()
    th = np.linalg.norm(v)
    A = ref_hat(v)
    if th < 1e-12:
        return _I3 + A + 0.5 * A @ A
    return (_I3 + (np.sin(th) / th) * A
            + ((1.0 - np.cos(th)) / th**2) * A @ A)


def ref_cay(eta):
    H = ref_hat(np.asarray(eta, dtype=float) / 2.0)
    return np.linalg.solve(_I3 - H, _I3 + H)


def ref_cay_inv(R):
    X = np.linalg.solve(_I3 + R, R - _I3)
    return 2.0 * np.array([X[2, 1], X[0, 2], X[1, 0]])


# ---------------------------------------------------------------------------
# inputs

def _off_pole_points(seed):
    rng = np.random.default_rng(seed)
    return [_sample_off_poles(rng) for _ in range(N)]


def _slip_inputs(seed):
    """(g, m, v) with m and g m both off the polar caps."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < N:
        m = _sample_off_poles(rng)
        g = S2.random_group(rng)
        if abs((g @ m)[2]) < math.cos(0.15):
            out.append((g, m, rng.standard_normal(3)))
    return out


# ---------------------------------------------------------------------------
# agreement with the reference

def test_groups_cross_is_np_cross():
    rng = np.random.default_rng(80)
    for a, b in rng.standard_normal((N, 2, 3)):
        assert np.array_equal(cross(a, b), np.cross(a, b))
    assert np.array_equal(cross([1, 2, 3], [4, 5, 6]),
                          np.cross([1, 2, 3], [4, 5, 6]))


def test_frame_on_us2_matches_the_reference():
    rng = np.random.default_rng(81)
    for _ in range(N):
        p = US2.random_point(rng)
        v = rng.standard_normal(6)
        R = rho_us2(p)
        assert R.dtype == float and R.shape == (3, 3)
        assert _close(R, ref_rho_us2(p))
        d = dnat_rho(p, v)
        assert d.dtype == float and d.shape == (3,)
        assert _close(d, ref_dnat_rho(p, v))


def test_eastward_field_and_derivative_match_the_reference():
    rng = np.random.default_rng(82)
    for m in _off_pole_points(83):
        w = rng.standard_normal(3)
        y, dy = eastward_field(m), eastward_field.derivative(m, w)
        assert y.shape == dy.shape == (3,)
        assert _close(y, ref_eastward(m))
        assert _close(dy, ref_eastward_derivative(m, w))


def test_phi_and_dnat_phi_match_the_reference():
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(84)
    for m in _off_pole_points(85):
        dm = rng.standard_normal(3)  # not tangent: dnat_phi projects it
        assert _close(pmf.phi(m), ref_phi(m))
        assert _close(pmf.dnat_phi(m, dm), ref_dnat_phi(m, dm))


def test_slip_and_its_derivative_match_the_reference():
    pmf = pmf_from_field(eastward_field)
    for g, m, v in _slip_inputs(86):
        theta = pmf.slip_angle(g, m)
        assert isinstance(theta, float)
        assert abs(theta - ref_slip_angle(g, m)) <= TOL * max(1.0, abs(theta))
        assert _close(pmf.slip(g, m), ref_slip(g, m))
        assert _close(pmf.dnat_slip(g, m, v), ref_dnat_slip(g, m, v))


@pytest.mark.parametrize("q", [lambda t: t, lambda t: 1.0,
                               lambda t: 1.0 / (1.0 + t),
                               lambda t: 2.0 + math.sin(t)])
def test_mu_q_matches_the_reference(monkeypatch, q):
    mu = mu_q(q)
    rng = np.random.default_rng(87)
    for step in (1e-5, 2e-5):
        monkeypatch.setattr(linalg, "FD_STEP", step)
        for m, w in rng.standard_normal((N // 2, 2, 3)):
            M = mu.matrix(m)
            assert M.dtype == float and M.shape == (3, 3)
            assert _close(M, ref_mu_q_matrix(q, m))
            assert _close(mu.dmatrix(m, w),
                          ref_mu_q_dmatrix(q, m, w, step), 1e-9)


def _with_column_at(S, tol, factor, rng):
    """A unit vector of S moved off S by tol * factor along a normal."""
    inside = S.basis @ rng.standard_normal(S.dim)
    inside /= np.linalg.norm(inside)
    normal = rng.standard_normal(S.ambient_dim)
    normal -= S.project(normal)
    normal /= np.linalg.norm(normal)
    return inside + tol * factor * normal


def test_contains_subspace_is_every_column_contained():
    rng = np.random.default_rng(89)
    for _ in range(N // 4):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        k = int(rng.integers(1, n + 1))
        S = Subspace(list(rng.standard_normal((r, n))))
        for T in (Subspace(list(rng.standard_normal((k, n)))),
                  Subspace(list((S.basis @ rng.standard_normal((r, k))).T))):
            for tol in (1e-8, 1e-6):
                assert (S.contains_subspace(T, tol)
                        == ref_contains_subspace(S, T, tol))
        # a column at the tolerance, on either side of it
        tol = 1e-6
        for factor in (1.0 - 1e-6, 1.0 + 1e-6):
            v = _with_column_at(S, tol, factor, rng)
            T = Subspace.from_basis(
                np.column_stack([S.basis[:, 0], v]))
            assert (S.contains_subspace(T, tol)
                    == ref_contains_subspace(S, T, tol)
                    == (factor < 1.0))


def test_contains_subspace_keeps_its_dimension_check():
    S = Subspace([np.ones(3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        S.contains_subspace(Subspace([np.ones(4)]), 1e-8)
    assert S.contains_subspace(Subspace([], ambient_dim=3), 1e-8)


# ---------------------------------------------------------------------------
# every error still raised at the same condition

def test_polar_caps_are_refused_at_the_same_radius():
    pmf = pmf_from_field(eastward_field)
    w = np.array([1.0, 0.0, 0.0])
    g = exp_so3(np.array([0.3, 0.0, 0.0]))
    for angle, refused in ((1e-2 * (1.0 - 1e-6), True),
                           (1e-2 * (1.0 + 1e-6), False)):
        m = np.array([math.sin(angle), 0.0, math.cos(angle)])
        calls = [lambda: eastward_field(m),
                 lambda: eastward_field.derivative(m, w),
                 lambda: pmf.phi(m), lambda: pmf.dnat_phi(m, w),
                 lambda: pmf.slip_angle(g, m), lambda: pmf.slip(g, m),
                 lambda: pmf.dnat_slip(g, m, w)]
        for call in calls:
            if refused:
                with pytest.raises(DomainError, match="too close to a pole"):
                    call()
            else:
                call()
    # the moved point g m in a cap is refused as well
    m = np.array([0.6, 0.0, 0.8])
    to_pole = exp_so3(np.array([0.0, -math.atan2(0.6, 0.8), 0.0]))
    with pytest.raises(DomainError, match="too close to a pole"):
        pmf.dnat_slip(to_pole, m, w)


def _field(scale, tilt=0.0):
    """The eastward field scaled and tilted towards m."""
    def Y(m):
        return scale * eastward_field(m) + tilt * np.asarray(m)

    Y.derivative = eastward_field.derivative
    return PartialMovingFrame(Y)


def test_non_unit_seed_field_is_refused_at_the_same_threshold():
    m = np.array([0.6, 0.0, 0.8])
    w = np.array([0.0, 1.0, 0.0])
    g = exp_so3(np.array([0.1, 0.2, 0.3]))
    for pmf in (_field(1.0 + 2e-9), _field(1.0, 2e-9)):
        for call in (lambda: pmf.phi(m), lambda: pmf.dnat_phi(m, w),
                     lambda: pmf.slip_angle(g, m),
                     lambda: pmf.dnat_slip(g, m, w)):
            with pytest.raises(DomainError, match="not unit tangent"):
                call()
    # inside the field's 1e-9 but outside the frame's 1e-10: the frame
    # refuses the pair
    with pytest.raises(DomainError, match="orthonormal pair"):
        _field(1.0 + 5e-10).phi(m)
    _field(1.0 + 5e-11).phi(m)


def test_non_orthonormal_pair_and_wrong_sizes_are_refused():
    m, u = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    for bad in (np.concatenate([m * (1.0 + 2e-10), u]),
                np.concatenate([m, u * (1.0 - 2e-10)]),
                np.concatenate([m, u + 2e-10 * m])):
        with pytest.raises(DomainError, match="orthonormal pair"):
            rho_us2(bad)
    rho_us2(np.concatenate([m * (1.0 + 5e-11), u + 5e-11 * m]))
    pmf = pmf_from_field(eastward_field)
    x = np.array([0.6, 0.0, 0.8])
    for g in (np.eye(4), np.eye(3)[:2], np.ones((3, 4))):
        with pytest.raises(ValueError):
            pmf.slip(g, x)
        with pytest.raises(ValueError):
            pmf.dnat_slip(g, x, x)
    for call in (lambda: rho_us2(np.ones(5)),
                 lambda: dnat_rho(np.ones(5), np.ones(6)),
                 lambda: dnat_rho(np.concatenate([m, u]), np.ones(5))):
        with pytest.raises(ValueError, match="expected a 6-vector"):
            call()


# ---------------------------------------------------------------------------
# the SO(3) group kernels in closed form

SO3 = so3_algebra()
S1S1 = get_action("s1s1-on-so3")


def _rotation_vectors(seed):
    """Seeded rotation vectors over angle scales from the small-angle
    branch of exp_so3 to several turns."""
    rng = np.random.default_rng(seed)
    scales = (1e-13, 1e-7, 1e-2, 1.0, 3.0, 10.0)
    return [scales[i % len(scales)] * rng.standard_normal(3)
            for i in range(N)]


def test_exp_so3_matches_the_reference():
    for v in _rotation_vectors(90):
        R = exp_so3(v)
        assert R.dtype == float and R.shape == (3, 3)
        assert _close(R, ref_exp_so3(v))


def test_cay_matches_the_reference():
    for eta in _rotation_vectors(91):
        R = cay(eta)
        assert R.dtype == float and R.shape == (3, 3)
        assert _close(R, ref_cay(eta))


def test_cay_inv_inverts_cay_up_to_a_quarter_turn():
    rng = np.random.default_rng(92)
    for _ in range(N):
        eta = rng.standard_normal(3)
        eta *= 2.0 * rng.random() / np.linalg.norm(eta)   # |eta| <= 2
        back = cay_inv(cay(eta))
        assert back.dtype == float and back.shape == (3,)
        assert _close(back, eta)


def test_cay_inv_matches_the_reference_below_two_thirds_of_a_half_turn():
    rng = np.random.default_rng(93)
    for _ in range(N):
        axis = rng.standard_normal(3)
        R = exp_so3(2.0 * np.pi / 3.0 * rng.random() * axis
                    / np.linalg.norm(axis))
        assert 1.0 + np.trace(R) >= 1.0
        assert _close(cay_inv(R), ref_cay_inv(R))


@pytest.mark.parametrize("columns", ["basis", "h"])
def test_so3_conjugation_matches_the_reference(columns):
    C = np.eye(3) if columns == "basis" else S1S1.algebra.h
    for v in _rotation_vectors(94):
        g = exp_so3(v)
        AdC = SO3.Ad(g, C)
        assert AdC.dtype == float and AdC.shape == C.shape
        assert _close(AdC, general_Ad(SO3, g, C))
    for v in _rotation_vectors(95)[:N // 4]:
        g = exp_so3(v)
        assert _close(SO3.Ad_matrix(g), general_Ad(SO3, g, np.eye(3)))


def test_so3_dispatch_reads_the_basis_not_the_name():
    basis = [hat(e) for e in np.eye(3)]
    renamed = LieAlgebra("rotations", basis, SO3._pairing)
    scaled = LieAlgebra("so3", [2.0 * B for B in basis], SO3._pairing)
    assert SO3._so3 and renamed._so3
    assert not scaled._so3 and not su3_basis()._so3
    v = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(renamed.exp(v), exp_so3(v))
    # in the scaled basis, coordinates v are the matrix hat(2 v), whose
    # exponential the eigendecomposition path returns as a complex matrix
    E = scaled.exp(v)
    assert np.abs(E.imag).max() <= 1e-12
    assert _close(E.real, ref_exp_so3(2.0 * v), 1e-12)
    # neither so(3) in the hat basis nor all of su(n): no conjugation
    with pytest.raises(ValueError, match="no closed form on so3"):
        scaled.Ad(exp_so3(v), np.eye(3))


def _shear():
    shear = np.eye(3)
    shear[0, 1] = 1.0
    return shear


_R = exp_so3(np.array([0.4, -0.3, 0.9]))
_U = su3_basis().exp(np.array([0.3, -0.5, 0.2, 0.7, -0.1, 0.4, 0.6, -0.8]))


@pytest.mark.parametrize("name, g", [
    ("s1s1-on-so3", np.diag([1.0, 1.0, -1.0])),    # a reflection
    ("s1s1-on-so3", -_R),                          # a rotoreflection
    ("s1s1-on-so3", 1.5 * _R),                     # a scaled rotation
    ("s1s1-on-so3", 2.0 * np.eye(3)),
    ("s1s1-on-so3", _R + 1e-9 * np.ones((3, 3))),
    ("s1s1-on-so3", _shear()),
    ("s1s1-on-so3", _R + 1e-3j * np.eye(3)),       # complex
    ("s1s1-on-so3", _R + 0j),                      # complex dtype
    ("hxh-on-su3", 1.1 * _U),                      # a scaled unitary
    ("hxh-on-su3", _shear()),
    ("hxh-on-su3", np.ones((3, 3))),
], ids=["reflection", "rotoreflection", "scaled-rotation", "scaled-identity",
        "perturbed-rotation", "so3-shear", "complex", "complex-dtype",
        "scaled-unitary", "su3-shear", "singular"])
def test_conjugation_refuses_off_the_group(name, g):
    """A g outside the rotations (on so(3)) or the unitaries (on su(3)) is
    refused by Ad, Ad_matrix and the generators that conjugate by it,
    never conjugated by another formula."""
    A = get_action(name)
    alg = A.manifold_alg
    for conjugate in (lambda: alg.Ad(g, np.eye(alg.dim)),
                      lambda: alg.Ad(g, A.algebra.h),
                      lambda: alg.Ad_matrix(g),
                      lambda: A.gen_matrix(g)):
        with pytest.raises(ValueError, match="not a rotation|not unitary"):
            conjugate()


def test_so3_brackets_on_triples():
    """On the hat basis, ad_matrix(a), read from the structure constants,
    is hat(a); bracket(a, b) is a x b, bit-equal to np.cross, also column
    by column; and dgen_matrix of s1s1-on-so3 holds w x each column of K's
    -Ad_g h block."""
    rng = np.random.default_rng(97)
    for _ in range(N // 4):
        a, b = rng.standard_normal((2, 3))
        assert np.array_equal(SO3.ad_matrix(a), hat(a))
        assert np.array_equal(SO3.bracket(a, b), np.cross(a, b))
        B = rng.standard_normal((3, 4))
        assert np.array_equal(SO3.bracket(a, B), np.cross(a, B.T).T)
        assert _close(SO3.bracket(a, B), hat(a) @ B)
        g = S1S1.random_point(rng)
        K = S1S1.gen_matrix(g)
        dK = S1S1.dgen_matrix(g, a, K)
        assert np.array_equal(dK[:, 1:], np.cross(a, K[:, 1:].T).T)
        assert not dK[:, :1].any()


@pytest.mark.parametrize("alg, values", [
    (SO3, {-1.0, 0.0, 1.0}),
    (su3_basis(), {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0})])
def test_structure_constants_are_exact_integers(alg, values):
    """The constants of both bases are small integers, stored exactly (the
    projection onto the basis leaves them within 8.9e-16 of one), and
    with them the so(3) matrix of ad_a is hat(a) bit for bit."""
    C = alg._ad_basis
    assert set(C.ravel().tolist()) == values
    assert not np.signbit(C[C == 0.0]).any()
    if alg is SO3:
        rng = np.random.default_rng(99)
        for a in rng.standard_normal((10_000, 3)):
            assert np.array_equal((a @ C).reshape(3, 3), hat(a))


def test_cayley_tangent_on_triples_matches_the_matrix_formula():
    S = cayley_slice(np.array([0.0, 0.0, 1.0]), exp_so3([0.2, -0.1, 0.4]))
    rng = np.random.default_rng(98)
    for _ in range(N):
        p = rng.standard_normal(2)
        eta = S.B @ p
        ref = (S.B + 0.5 * hat(eta) @ S.B) / (1.0 + (eta @ eta) / 4.0)
        T = S.tangent(p)
        assert T.dtype == float and T.shape == (3, 2)
        assert _close(T, ref)


def test_cay_inv_refuses_a_half_turn():
    for R in (np.diag([1.0, -1.0, -1.0]), exp_so3(np.array([0.0, np.pi,
                                                             0.0]))):
        with pytest.raises(np.linalg.LinAlgError, match="half turn"):
            cay_inv(R)


@pytest.mark.parametrize("bad", [np.arange(6.0), np.ones(2), np.eye(3)])
def test_so3_kernels_take_exactly_a_3_vector(bad):
    for kernel in (hat, exp_so3, cay):
        with pytest.raises(ValueError, match="expected a 3-vector"):
            kernel(bad)


@pytest.mark.parametrize("v", [[np.inf, 0.0, 0.0], [0.0, np.nan, 1.0],
                               [1e200, 0.0, 0.0]])
def test_exp_so3_refuses_a_rotation_vector_of_non_finite_norm(v):
    with pytest.raises(ValueError, match="is not finite"):
        exp_so3(v)


@pytest.mark.parametrize("bad", [np.eye(2), np.eye(4), np.ones(9)])
def test_cay_inv_takes_exactly_a_3x3_matrix(bad):
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        cay_inv(bad)


def test_so3_kernels_make_no_solve_inverse_or_projection(monkeypatch):
    calls = []

    def spy(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(linalg, "solve", spy("solve", linalg.solve))
    for fn in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, fn,
                            spy("np.linalg." + fn, getattr(np.linalg, fn)))
    monkeypatch.setattr(LieAlgebra, "_coords_columns",
                        spy("_coords_columns", LieAlgebra._coords_columns))
    rng = np.random.default_rng(96)
    for _ in range(50):
        g = exp_so3(rng.standard_normal(3))
        cay_inv(cay(rng.standard_normal(3)))
        S1S1.gen_matrix(g)
        SO3.Ad_matrix(g)
        SO3.exp(rng.standard_normal(3))
    # off the rotations, the refusal comes before any of them
    with pytest.raises(ValueError, match="not a rotation"):
        SO3.Ad_matrix(2.0 * np.eye(3))
    assert calls == []
