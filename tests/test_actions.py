import numpy as np
import pytest

from gconn.actions import (action_names, get_action, isotropy_algebra,
                           orbit_tangent)
from gconn.groups import exp_so3
from gconn.linalg import curve_derivative

ALL = ["so3-on-r3", "so3-on-s2", "so3-on-us2", "hxh-on-su3", "s1s1-on-so3"]


@pytest.mark.parametrize("name, tol", [("hxh-on-su3", 0.0),
                                       ("s1s1-on-so3", 2.3e-16)])
def test_torus_generators_conjugate_h_only(monkeypatch, name, tol):
    A = get_action(name)
    H = A.algebra.h
    alg = type(A.manifold_alg)
    rng = np.random.default_rng(14)
    points = [A.random_point(rng) for _ in range(2000)]
    expected = [np.hstack([H, -A.manifold_alg.Ad_matrix(g) @ H])
                for g in points]
    calls = []
    Ad_matrix = alg.Ad_matrix

    def counted(self, g):
        calls.append(1)
        return Ad_matrix(self, g)

    monkeypatch.setattr(alg, "Ad_matrix", counted)
    for g, K in zip(points, expected):
        assert np.max(np.abs(A.gen_matrix(g) - K)) <= tol
    assert calls == []
    # a conjugate that leaves the algebra still fails the span check
    shear = np.eye(A.manifold_alg.basis[0].shape[0])
    shear[0, 1] = 1.0
    with pytest.raises(ValueError):
        A.gen_matrix(shear)


@pytest.mark.parametrize("name", ["hxh-on-su3", "s1s1-on-so3"])
def test_torus_generators_keep_the_transposed_vstack_layout(name):
    A = get_action(name)
    rng = np.random.default_rng(16)
    for _ in range(200):
        g = A.random_point(rng)
        K = A.gen_matrix(g)
        AdH = A.manifold_alg.conjugate_coords(g, A._h_stack)
        ref = np.vstack([A.algebra.h.T, -AdH.T]).T
        assert K.flags.f_contiguous and not K.flags.c_contiguous
        assert K.dtype == ref.dtype and K.shape == ref.shape
        assert np.array_equal(K.view(np.int64), ref.view(np.int64))


def test_registry():
    assert sorted(ALL) == action_names()
    with pytest.raises(KeyError):
        get_action("so3-on-nothing")


def _fd_generator(A, xi, m, h=1e-6):
    """Finite-difference generator through the group exponential.

    For group-manifold actions the tangent coordinates are right
    trivialized, so the raw curve derivative is pulled back by m^(-1).
    """
    def at(t):
        p = np.asarray(A.apply(A.group_exp(t * np.asarray(xi, float)), m))
        return np.concatenate([p.real.ravel(), p.imag.ravel()])

    d = curve_derivative(at, h)
    if A.manifold_alg is not None:
        n = np.asarray(m).shape[0]
        dM = d[:n * n].reshape(n, n) + 1j * d[n * n:].reshape(n, n)
        return A.manifold_alg.coords(dM @ np.linalg.inv(np.asarray(m)))
    return d[:d.size // 2]


@pytest.mark.parametrize("name", ALL)
def test_generator_matches_flow_derivative(name):
    A = get_action(name)
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = A.random_point(rng)
        xi = rng.standard_normal(A.algebra.dim)
        got = A.gen_matrix(m) @ xi
        want = _fd_generator(A, xi, m)
        assert np.linalg.norm(got - want) < 1e-6 * max(1, np.linalg.norm(want))


@pytest.mark.parametrize("name", ALL)
def test_generator_equivariance(name):
    # dPhi_g xi_M(m) = (Ad_g xi)_M(g.m)
    A = get_action(name)
    rng = np.random.default_rng(12)
    for _ in range(5):
        m = A.random_point(rng)
        g = A.random_group(rng)
        xi = rng.standard_normal(A.algebra.dim)
        lhs = A.dPhi(g, m, A.gen_matrix(m) @ xi)
        rhs = A.gen_matrix(A.apply(g, m)) @ (A.Ad_group(g) @ xi)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_so3_r3_isotropy():
    A = get_action("so3-on-r3")
    m = np.array([0.0, 2.0, 0.0])
    iso = isotropy_algebra(A, m)
    assert iso.dim == 1
    assert iso.contains(m, 1e-12)   # rotations about the axis through m
    orb = orbit_tangent(A, m)
    assert orb.dim == 2
    # full isotropy at the fixed point
    assert isotropy_algebra(A, np.zeros(3)).dim == 3


def test_rank_nullity_per_action():
    rng = np.random.default_rng(13)
    for name in ALL:
        A = get_action(name)
        m = A.random_point(rng)
        assert (isotropy_algebra(A, m).dim + orbit_tangent(A, m).dim
                == A.algebra.dim)


def test_us2_action_is_free():
    A = get_action("so3-on-us2")
    rng = np.random.default_rng(14)
    for _ in range(5):
        p = A.random_point(rng)
        assert isotropy_algebra(A, p).dim == 0
        assert orbit_tangent(A, p).dim == 3


def test_s1s1_vertical_isotropy():
    """At g with g.sigma = sigma the diagonal circle stabilizes g."""
    A = get_action("s1s1-on-so3")
    sigma = np.array([0.0, 0.0, 1.0])
    g = exp_so3(0.9 * sigma)          # rotation about the fixed axis
    iso = isotropy_algebra(A, g)
    assert iso.dim == 1
    assert iso.contains(np.array([1.0, 1.0]) / np.sqrt(2), 1e-10)
    # generic rotations have trivial isotropy
    h = exp_so3(np.array([0.4, -0.2, 0.3]))
    assert isotropy_algebra(A, h).dim == 0


def test_su3_isotropy_at_identity():
    A = get_action("hxh-on-su3")
    iso = isotropy_algebra(A, np.eye(3, dtype=complex))
    assert iso.dim == 2   # diagonal copy of the maximal torus
    for j in range(iso.dim):
        a, b = A.algebra.split(iso.basis[:, j])
        assert np.linalg.norm(a - b) < 1e-10


@pytest.mark.parametrize("name", ALL)
def test_retract_stays_on_manifold(name):
    A = get_action(name)
    rng = np.random.default_rng(16)
    m = A.random_point(rng)
    v = A.random_tangent(rng, m)
    p = A.retract(m, v, 0.2)
    # retraction output must be a valid input to gen_matrix / apply
    g = A.random_group(rng)
    A.apply(g, p)
    assert np.all(np.isfinite(A.gen_matrix(p)))
    # first-order agreement: (retract(m, v, t) - m)/t -> v for flat coords
    if name == "so3-on-r3":
        assert np.allclose(A.retract(m, v, 1e-8), m + 1e-8 * v)


def test_apply_is_group_action():
    rng = np.random.default_rng(17)
    for name in ALL:
        A = get_action(name)
        m = A.random_point(rng)
        g, h = A.random_group(rng), A.random_group(rng)
        if isinstance(g, tuple):
            gh = (g[0] @ h[0], g[1] @ h[1])
        else:
            gh = g @ h
        lhs = np.asarray(A.apply(gh, m))
        rhs = np.asarray(A.apply(g, A.apply(h, m)))
        assert np.linalg.norm(lhs - rhs) < 1e-10
        e = A.identity()
        assert np.linalg.norm(np.asarray(A.apply(e, m)) - np.asarray(m)) < 1e-12
