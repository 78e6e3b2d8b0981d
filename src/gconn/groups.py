"""Matrix Lie groups and algebras used by the built-in actions.

Provides so(3) and su(3) with their standard bases, exponentials, the Cayley
transform, adjoint actions and brackets.
Algebra elements are always handled through real coordinate vectors in a
fixed ordered basis; the dual space uses the dual basis, so a dual vector's
i-th coordinate is its value on the i-th basis element.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import norm

_EPS_AXIS = 1e-12

# The 3x3 identity shared by exp_so3 and cay (read-only).
_I3 = np.eye(3)
_I3.flags.writeable = False


def hat(v):
    """3-vector -> 3x3 skew matrix, so that hat(v) @ y = v x y."""
    v = np.asarray(v, dtype=float).ravel().tolist()
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vee(M):
    """Inverse of :func:`hat`."""
    M = np.asarray(M, dtype=float)
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross(a, b):
    """Cross product of 3-vectors by its component formula, as np.cross."""
    a0, a1, a2 = np.asarray(a).tolist()
    b0, b1, b2 = np.asarray(b).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def exp_so3(v):
    """Rodrigues formula for exp of hat(v)."""
    v = np.asarray(v, dtype=float).ravel()
    th = norm(v)
    A = hat(v)
    if th < _EPS_AXIS:
        return _I3 + A + 0.5 * A @ A
    return (_I3 + (np.sin(th) / th) * A
            + ((1.0 - np.cos(th)) / th**2) * A @ A)


def cay(eta):
    """Cayley transform (1 - hat(eta)/2)^(-1) (1 + hat(eta)/2) in SO(3).

    Rotation about eta by angle 2*atan(|eta|/2); cay(0) = I.
    """
    H = hat(np.asarray(eta, dtype=float) / 2.0)
    return np.linalg.solve(_I3 - H, _I3 + H)


def cay_inv(R):
    """Inverse of :func:`cay`: eta with hat(eta/2) = (I + R)^(-1) (R - I).

    Raises ``np.linalg.LinAlgError`` where I + R is singular (R a half
    turn, outside the image of cay).
    """
    R = np.asarray(R, dtype=float)
    return 2.0 * vee(np.linalg.solve(_I3 + R, R - _I3))


class LieAlgebra:
    """A real matrix Lie algebra with a fixed ordered basis and inner product.

    The inner product is given by a matrix function on ambient matrices
    (Frobenius-type); the Gram matrix of the basis (``gram``) and its
    inverse (``gram_inv``) are precomputed.
    """

    def __init__(self, name, basis, pairing):
        self.name = name
        self.basis = [np.asarray(B) for B in basis]
        self.dim = len(self.basis)
        self._pairing = pairing
        self.gram = np.array([[pairing(a, b) for b in self.basis]
                              for a in self.basis])
        self.gram_inv = np.linalg.inv(self.gram)
        # flatten basis matrices (real + imag parts) for coordinate recovery
        flat = []
        for B in self.basis:
            Bc = np.asarray(B, dtype=complex)
            flat.append(np.concatenate([Bc.real.ravel(), Bc.imag.ravel()]))
        self._flat = np.array(flat).T  # (2 n^2) x dim
        self._flat_pinv = np.linalg.pinv(self._flat)  # dim x (2 n^2)
        self._stacked = np.array(self.basis)  # dim x n x n
        # a real basis has an all-zero imaginary half, which real input
        # skips: the real half of the flattened basis and its columns of
        # the pseudo-inverse
        self._real = not np.iscomplexobj(self._stacked)
        nn = self._stacked[0].size
        self._flat_re = self._flat[:nn]
        self._flat_pinv_re = np.ascontiguousarray(self._flat_pinv[:, :nn])

    # -- coordinates ---------------------------------------------------

    def matrix(self, coords):
        coords = np.asarray(coords, dtype=float).ravel()
        # the left-to-right sum from 0 of c_i B_i
        return np.add.reduce(coords[:, None, None] * self._stacked, axis=0,
                             initial=0.0)

    def _coords_columns(self, Ms):
        """Coordinates of a stack of k matrices, as a dim x k matrix.

        One product with the precomputed pseudo-inverse of the flattened
        basis; every column must reproduce its matrix to 1e-9 relative.
        Real matrices on a real basis skip the imaginary half.
        """
        Ms = np.asarray(Ms)
        if self._real and Ms.dtype.kind != "c":
            rhs = np.asarray(Ms, dtype=float).reshape(len(Ms), -1).T
            C = self._flat_pinv_re @ rhs
            d = self._flat_re @ C - rhs
        else:
            Mc = np.asarray(Ms, dtype=complex).reshape(len(Ms), -1)
            rhs = np.concatenate([Mc.real, Mc.imag], axis=1).T  # (2 n^2) x k
            C = self._flat_pinv @ rhs
            d = self._flat @ C - rhs
        # column norms by np.linalg.norm's formula for real input
        resid = np.sqrt(np.add.reduce(d * d, axis=0))
        scale = np.sqrt(np.add.reduce(rhs * rhs, axis=0))
        if (resid > 1e-9 * np.maximum(1.0, scale)).any():
            raise ValueError(f"matrix not in the span of the {self.name} basis")
        return C

    def coords(self, M):
        return self._coords_columns(np.asarray(M)[None])[:, 0]

    # -- algebraic structure ------------------------------------------

    def bracket(self, a, b):
        """[a, b] in coordinates."""
        A, B = self.matrix(a), self.matrix(b)
        return self.coords(A @ B - B @ A)

    @cached_property
    def _ad_basis(self):
        """Structure constants as a dim x (dim * dim) matrix: row i holds
        the matrix of ad_{B_i}, flattened.  Taken on first use."""
        S = self._stacked
        d = self.dim
        C = self._coords_columns((S[:, None] @ S[None] - S[None] @ S[:, None])
                                 .reshape(d * d, *S.shape[1:]))
        # C[:, i * d + j] = coords [B_i, B_j], the column j of ad_{B_i}
        return np.ascontiguousarray(
            C.reshape(d, d, d).transpose(1, 0, 2).reshape(d, d * d))

    def ad_matrix(self, a):
        """Matrix of ad_a = [a, .] on coordinates."""
        a = np.asarray(a, dtype=float).ravel()
        return (a @ self._ad_basis).reshape(self.dim, self.dim)

    def conjugate_coords(self, g, stack):
        """Coordinates of g B g^-1 for each matrix B of a stack, as columns.

        Every conjugate must lie in the span of the basis (checked by
        :meth:`_coords_columns`).
        """
        g = np.asarray(g)
        return self._coords_columns(g @ stack @ np.linalg.inv(g))

    def Ad_matrix(self, g):
        """Matrix of Ad_g on coordinates: columns are coords(g B_i g^-1)."""
        return self.conjugate_coords(g, self._stacked)

    def exp(self, coords):
        """Matrix exponential of the algebra element with given coordinates.

        so(3) uses Rodrigues; skew-Hermitian algebras use a unitary
        eigendecomposition (exact structure at this size).
        """
        if self.name == "so3":
            return exp_so3(coords)
        A = np.asarray(self.matrix(coords), dtype=complex)
        H = A / 1j  # Hermitian
        w, V = np.linalg.eigh(H)
        return (V * np.exp(1j * w)) @ V.conj().T

    def __repr__(self):
        return f"LieAlgebra({self.name}, dim={self.dim})"


def so3_algebra():
    """so(3) with the hat-basis of e1, e2, e3 and the Euclidean product."""
    basis = [hat(e) for e in np.eye(3)]
    return LieAlgebra("so3", basis, lambda A, B: -0.5 * np.trace(A @ B).real)


def su3_basis():
    """su(3) with the 8-element basis {d1, d2, s1..s3, x1..x3}.

    d1 = diag(i,-i,0), d2 = diag(i,i,-2i); s_j has i in the (k,l) and (l,k)
    slots, x_j has 1 in (k,l) and -1 in (l,k), with (j,k,l) cyclic in (1,2,3).
    Mutually orthogonal (not orthonormal) under <A,B> = -tr(AB).
    """
    def E(a, b):
        M = np.zeros((3, 3), dtype=complex)
        M[a, b] = 1.0
        return M

    cyc = {1: (1, 2), 2: (2, 0), 3: (0, 1)}
    d1 = np.diag([1j, -1j, 0.0])
    d2 = np.diag([1j, 1j, -2j])
    sig = [1j * (E(k, l) + E(l, k)) for k, l in (cyc[j] for j in (1, 2, 3))]
    xi = [E(k, l) - E(l, k) for k, l in (cyc[j] for j in (1, 2, 3))]
    basis = [d1, d2] + sig + xi
    return LieAlgebra("su3", basis, lambda A, B: -np.trace(A @ B).real)
