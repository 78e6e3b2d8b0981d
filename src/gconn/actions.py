"""Concrete group actions: generators, isotropy, orbit tangents, retractions.

Each action fixes a coordinate convention for tangent vectors so that all
downstream linear algebra is uniform:

* flat spaces and spheres (R^3, S^2, US^2) use ambient coordinates;
* group manifolds (SO(3), SU(3)) use right-trivialized coordinates in the
  manifold algebra basis, i.e. the tangent vector X g is stored as the
  coordinates of X.

The registry exposes five named actions:
``so3-on-r3``, ``hxh-on-su3``, ``s1s1-on-so3``, ``so3-on-us2``, ``so3-on-s2``.
"""

from __future__ import annotations

import numpy as np

from . import groups, linalg
from .linalg import Subspace, norm, rank_nullspace, range_space


class TorusSquareAlgebra:
    """The abelian algebra h x h of a product-of-torus acting group.

    ``h`` is a subalgebra of the manifold algebra given by coordinate
    vectors; an element (eta, zeta) is stored as the concatenation of the
    two coefficient vectors.
    """

    def __init__(self, manifold_alg, h_coords):
        self.manifold_alg = manifold_alg
        self.h = np.array([np.asarray(v, float).ravel() for v in h_coords]).T
        k = self.h.shape[1]
        gh = self.h.T @ manifold_alg.gram @ self.h
        self.gram = np.zeros((2 * k, 2 * k))
        self.gram[:k, :k] = self.gram[k:, k:] = gh
        self.gram_inv = np.linalg.inv(self.gram)
        self.dim = 2 * k
        self.name = f"({manifold_alg.name}-torus)^2"

    def bracket(self, a, b):  # abelian
        return np.zeros(self.dim)

    def ad_matrix(self, a):
        return np.zeros((self.dim, self.dim))

    def split(self, a):
        k = self.dim // 2
        a = np.asarray(a, float).ravel()
        return a[:k], a[k:]

    def embed(self, half):
        """Coordinates in the manifold algebra of an element of h."""
        return self.h @ np.asarray(half, float).ravel()


class Action:
    """Base class; subclasses fill in the geometry of one concrete action."""

    name = ""
    algebra = None          # acting algebra (with gram, bracket, dim)
    manifold_alg = None     # set on group manifolds
    vec_dim = 0             # length of tangent coordinate vectors

    # group element handling -------------------------------------------
    def group_exp(self, xi):
        """Exponential of an acting-algebra element to a group element."""
        raise NotImplementedError

    def group_inv(self, g):
        """g^-1 = g^H of a unitary g (:func:`gconn.groups.inverse`)."""
        return groups.inverse(g)

    def Ad_group(self, g):
        """Adjoint of the acting group on acting-algebra coordinates."""
        raise NotImplementedError

    # manifold handling -------------------------------------------------
    def apply(self, g, m):
        raise NotImplementedError

    def gen_matrix(self, m):
        """vec_dim x alg_dim matrix of xi -> xi_M(m) in tangent coordinates."""
        raise NotImplementedError

    def dgen_matrix(self, m, w, K):
        """Derivative of :meth:`gen_matrix` along t -> retract(m, w, t) at
        t = 0, given K = gen_matrix(m)."""
        raise NotImplementedError

    def retract(self, m, v, t=1.0):
        raise NotImplementedError

    def tangent_metric(self, m):
        """Invariant metric on tangent coordinates (matrix)."""
        return np.eye(self.vec_dim)

    def dPhi(self, g, m, v):
        """Pushforward of tangent coordinates at m to coordinates at g.m."""
        raise NotImplementedError

    def project_tangent(self, m, v):
        """Project an arbitrary coordinate vector into T_m M."""
        return np.asarray(v, float).ravel()

    def dproject_tangent(self, m, w, v):
        """Derivative of :meth:`project_tangent` (frozen v) along
        t -> retract(m, w, t); zero where the projection is the identity."""
        return np.zeros(self.vec_dim)

    # sampling ----------------------------------------------------------
    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, rng, m):
        return self.project_tangent(m, rng.standard_normal(self.vec_dim))

    def random_group(self, rng):
        xi = rng.standard_normal(self.algebra.dim)
        n = norm(xi)
        if n > 0:
            xi *= np.pi / 2 * rng.random() / n
        return self.group_exp(xi)


class So3OnVectors(Action):
    """SO(3) acting by rotation, linearly, so that dPhi_g is the action of g
    on tangent vectors; base for R^3, S^2 and US^2."""

    def __init__(self):
        self.algebra = groups.so3_algebra()

    def group_exp(self, xi):
        return groups.exp_so3(xi)

    def Ad_group(self, g):
        return np.asarray(g, float)

    def apply(self, g, m):
        return np.asarray(g, float) @ np.asarray(m, float).ravel()

    def dPhi(self, g, m, v):
        return self.apply(g, v)

    def dgen_matrix(self, m, w, K):
        """The generators are linear in the point, and the retraction leaves
        m with velocity w: dK = gen_matrix(w)."""
        return self.gen_matrix(w)


class So3OnR3(So3OnVectors):
    name = "so3-on-r3"
    vec_dim = 3

    def gen_matrix(self, m):
        return -groups.hat(m)

    def retract(self, m, v, t=1.0):
        return np.asarray(m, float).ravel() + t * np.asarray(v, float).ravel()

    def random_point(self, rng):
        return rng.standard_normal(3)


class So3OnS2(So3OnVectors):
    name = "so3-on-s2"
    vec_dim = 3

    def gen_matrix(self, m):
        return -groups.hat(m)

    def project_tangent(self, m, v):
        m = np.asarray(m, float).ravel()
        v = np.asarray(v, float).ravel()
        return v - (v @ m) * m

    def dproject_tangent(self, m, w, v):
        m, w, v = (np.asarray(x, float).ravel() for x in (m, w, v))
        return -(v @ w) * m - (v @ m) * w

    def retract(self, m, v, t=1.0):
        p = np.asarray(m, float).ravel() + t * np.asarray(v, float).ravel()
        return p / norm(p)

    def random_point(self, rng):
        p = rng.standard_normal(3)
        return p / norm(p)


class So3OnUS2(So3OnVectors):
    """SO(3) on the unit tangent bundle of S^2; points are (m, u) pairs
    stored as a 6-vector with |m| = |u| = 1 and <m, u> = 0."""

    name = "so3-on-us2"
    vec_dim = 6

    @staticmethod
    def split(p):
        p = np.asarray(p, float).ravel()
        if p.size != 6:
            raise ValueError("expected a 6-vector (m, u)")
        return p[:3], p[3:]

    @staticmethod
    def join(m, u):
        return np.concatenate([np.asarray(m, float).ravel(),
                               np.asarray(u, float).ravel()])

    def apply(self, g, p):
        m, u = self.split(p)
        g = np.asarray(g, float)
        return self.join(g @ m, g @ u)

    def gen_matrix(self, p):
        m, u = self.split(p)
        return np.vstack([-groups.hat(m), -groups.hat(u)])

    def project_tangent(self, p, v):
        m, u = self.split(p)
        C = np.zeros((3, 6))
        C[0, :3] = m
        C[1, 3:] = u
        C[2, :3] = u
        C[2, 3:] = m
        v = np.asarray(v, float).ravel()
        lam = linalg.solve(C @ C.T, C @ v)
        return v - C.T @ lam

    def dproject_tangent(self, p, w, v):  # no check differentiates on US^2
        raise NotImplementedError("so3-on-us2: no dproject_tangent")

    def retract(self, p, v, t=1.0):
        m, u = self.split(p)
        dm, du = self.split(v)
        m2 = m + t * dm
        m2 = m2 / norm(m2)
        u2 = u + t * du
        u2 = u2 - (u2 @ m2) * m2
        u2 = u2 / norm(u2)
        return self.join(m2, u2)

    def random_point(self, rng):
        m = rng.standard_normal(3)
        m /= norm(m)
        u = rng.standard_normal(3)
        u -= (u @ m) * m
        u /= norm(u)
        return self.join(m, u)


class TorusSquareOnGroup(Action):
    """H x H acting on its ambient group G by g -> h g k^(-1), with H a torus
    whose algebra h is a fixed subalgebra of the manifold algebra.

    Group elements of the acting group are pairs (h, k) of matrices; tangent
    vectors on G are right-trivialized: (eta, zeta)_G(g) = eta - Ad_g zeta.
    The generators need Ad_g on h only: only the coordinate columns of h
    are conjugated by g.  The inverse of h or k is its conjugate transpose
    (:func:`gconn.groups.inverse`, which refuses a non-unitary matrix).
    """

    def __init__(self, name, manifold_alg, h_coords):
        self.name = name
        self.manifold_alg = manifold_alg
        self.algebra = TorusSquareAlgebra(manifold_alg, h_coords)
        self.vec_dim = manifold_alg.dim

    def group_exp(self, xi):
        a, b = self.algebra.split(xi)
        ga = self.manifold_alg.exp(self.algebra.embed(a))
        gb = self.manifold_alg.exp(self.algebra.embed(b))
        return (ga, gb)

    def group_inv(self, g):
        h, k = g
        return (groups.inverse(h), groups.inverse(k))

    def Ad_group(self, g):
        return np.eye(self.algebra.dim)  # torus: abelian

    def apply(self, g, m):
        h, k = g
        return h @ m @ groups.inverse(k)

    def gen_matrix(self, m):
        # [h, -Ad_m h] in F order: the products that consume K round by
        # its layout, and callers' results are pinned in this one
        AdH = self.manifold_alg.Ad(m, self.algebra.h)
        k = AdH.shape[1]
        K = np.empty((self.vec_dim, 2 * k), order="F")
        K[:, :k] = self.algebra.h
        np.negative(AdH, out=K[:, k:])
        return K

    def dgen_matrix(self, m, w, K):
        """Derivative of :meth:`gen_matrix` along t -> exp(t w) m.

        Ad_{exp(t w) m} = Ad_{exp(t w)} Ad_m, so the h columns stay constant
        and the -Ad_m h columns of K move by ad_w: dK = [0, [w, K[:, k:]]].
        """
        k = K.shape[1] // 2
        dK = np.zeros(K.shape, order="F")
        dK[:, k:] = self.manifold_alg.bracket(w, K[:, k:])
        return dK

    def retract(self, m, v, t=1.0):
        X = self.manifold_alg.exp(t * np.asarray(v, float).ravel())
        return X @ m

    def tangent_metric(self, m):
        return self.manifold_alg.gram

    def dPhi(self, g, m, v):
        h, _ = g
        return self.manifold_alg.Ad_matrix(h) @ np.asarray(v, float).ravel()

    def random_point(self, rng):
        x = rng.standard_normal(self.manifold_alg.dim)
        x /= max(norm(x), 1e-12)
        return self.manifold_alg.exp(1.2 * rng.random() * x)


# ---------------------------------------------------------------------------

def isotropy_algebra(action: Action, m) -> Subspace:
    """Kernel of xi -> xi_M(m) in acting-algebra coordinates."""
    _, kern = rank_nullspace(action.gen_matrix(m))
    return kern


def orbit_tangent(action: Action, m) -> Subspace:
    """Range of xi -> xi_M(m): the orbit's tangent space at m."""
    return range_space(action.gen_matrix(m))


def _make_registry():
    su3 = groups.su3_basis()
    so3 = groups.so3_algebra()
    e = np.eye
    return {
        "so3-on-r3": So3OnR3(),
        "so3-on-s2": So3OnS2(),
        "so3-on-us2": So3OnUS2(),
        # maximal torus of SU(3): span{d1, d2}
        "hxh-on-su3": TorusSquareOnGroup(
            "hxh-on-su3", su3, [e(8)[0], e(8)[1]]),
        # rotations about e3 acting on SO(3) from both sides
        "s1s1-on-so3": TorusSquareOnGroup(
            "s1s1-on-so3", so3, [e(3)[2]]),
    }


_REGISTRY = None


def get_action(name: str) -> Action:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _make_registry()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown action {name!r}; known: {sorted(_REGISTRY)}")


def action_names():
    get_action("so3-on-r3")
    return sorted(_REGISTRY)
