"""Matrix Lie groups and algebras used by the built-in actions.

Provides so(3) and su(3) with their standard bases, exponentials, the Cayley
transform, adjoint actions and brackets.
Algebra elements are always handled through real coordinate vectors in a
fixed ordered basis; the dual space uses the dual basis, so a dual vector's
i-th coordinate is its value on the i-th basis element.

The per-point 3-vector kernels (the moving frames of :mod:`gconn.frames`
and the forms of :func:`gconn.connections.mu_q`) work on *triples*, tuples
of three Python floats, where a dot or cross product is a few float
operations rather than a numpy dispatch each.  Their helpers live here
only: :func:`triple` and :func:`rows3` convert arrays (:func:`hat3` and
``np.array`` convert back), :func:`dot3`, :func:`cross3`, :func:`axpy3`,
:func:`matvec3` and :func:`rmatvec3` compute on triples.

The SO(3) group kernels are closed forms on triples as well: Rodrigues'
formula in :func:`exp_so3`, the Cayley map :func:`cay` and its inverse
:func:`cay_inv` without a linear solve.  Each takes exactly a 3-vector or a
3x3 matrix (``ValueError`` otherwise); numpy is used only to read the input
and to build the result.

:meth:`LieAlgebra.Ad` conjugates coordinate columns by a group element g
without an inverse: on so(3) a rotation takes hat(v) to hat(g v), so the
result is g times the coordinates; on an algebra that is all of su(n) a
unitary g keeps su(n), so the conjugates by g^H are projected onto the
basis with no span test.  :func:`inverse` of a unitary (or real
orthogonal) matrix is its conjugate transpose.  Both refuse, with
``ValueError``, a g outside the group: every group the built-in actions
act by is a rotation or a unitary group.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg

_EPS_AXIS = 1e-12
# How far g g^H may be from I (Frobenius) for g to count as unitary: its
# inverse is then g^H, and conjugation by g takes the closed form on so(3)
# (for a real g with det g > 0) or on su(n); anything else is refused.
_UNITARY_TOL = 1e-12


def triple(v):
    """A 3-vector as a triple of Python floats (``ValueError`` for any other
    size)."""
    try:
        x, y, z = np.asarray(v, dtype=float).ravel().tolist()
    except ValueError:
        raise ValueError(
            f"expected a 3-vector, got shape {np.shape(v)}") from None
    return x, y, z


def dot3(a, b):
    """<a, b> of two triples."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    """a x b of two triples (or sequences of three numbers)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def axpy3(k, x, y):
    """k x + y of a number and two triples."""
    return k * x[0] + y[0], k * x[1] + y[1], k * x[2] + y[2]


def rows3(R):
    """A 3x3 matrix as its rows, three triples (``ValueError`` for any other
    shape)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {R.shape}")
    return R.tolist()


def matvec3(R, x):
    """R x for a 3x3 matrix given as rows (:func:`rows3`) and a triple."""
    return dot3(R[0], x), dot3(R[1], x), dot3(R[2], x)


def rmatvec3(R, x):
    """R^T x for a 3x3 matrix given as rows and a triple."""
    r0, r1, r2 = R
    x0, x1, x2 = x
    return (r0[0] * x0 + r1[0] * x1 + r2[0] * x2,
            r0[1] * x0 + r1[1] * x1 + r2[1] * x2,
            r0[2] * x0 + r1[2] * x1 + r2[2] * x2)


def hat3(v):
    """The skew matrix of a triple, so that hat3(v) @ y = v x y."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def hat(v):
    """3-vector -> 3x3 skew matrix, so that hat(v) @ y = v x y."""
    return hat3(triple(v))


def vee(M):
    """Inverse of :func:`hat`."""
    M = np.asarray(M, dtype=float)
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross(a, b):
    """Cross product of 3-vectors by its component formula, as np.cross."""
    return np.array(cross3(np.asarray(a).tolist(), np.asarray(b).tolist()))


def _rodrigues(v, a, b):
    """I + a hat(v) + b hat(v)^2 of a triple v, with hat(v)^2 = v v^T -
    |v|^2 I."""
    x, y, z = v
    xx, yy, zz = x * x, y * y, z * z
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return np.array([[1.0 - b * (yy + zz), bxy - az, bxz + ay],
                     [bxy + az, 1.0 - b * (xx + zz), byz - ax],
                     [bxz - ay, byz + ax, 1.0 - b * (xx + yy)]])


def exp_so3(v):
    """Rodrigues' formula for exp of hat(v): I + (sin t / t) hat(v) +
    ((1 - cos t) / t^2) hat(v)^2 with t = |v|, and I + hat(v) + hat(v)^2 / 2
    below t = 1e-12.  ``ValueError`` unless v is a 3-vector of finite
    norm."""
    v = triple(v)
    t2 = dot3(v, v)
    t = math.sqrt(t2)
    if t < _EPS_AXIS:
        return _rodrigues(v, 1.0, 0.5)
    if not t < math.inf:
        raise ValueError(f"exp_so3: |v| = {t} is not finite")
    return _rodrigues(v, math.sin(t) / t, (1.0 - math.cos(t)) / t2)


def cay(eta):
    """Cayley transform (1 - hat(eta)/2)^(-1) (1 + hat(eta)/2) in SO(3), in
    closed form I + (hat(eta) + hat(eta)^2 / 2) / (1 + |eta|^2 / 4).

    Rotation about eta by angle 2*atan(|eta|/2); cay(0) = I.  ``ValueError``
    unless eta is a 3-vector.
    """
    eta = triple(eta)
    c = 1.0 / (1.0 + 0.25 * dot3(eta, eta))
    return _rodrigues(eta, c, 0.5 * c)


def cay_inv(R):
    """Inverse of :func:`cay` on rotations, in closed form
    eta = 2 vee(R - R^T) / (1 + tr R).

    Raises ``np.linalg.LinAlgError`` where 1 + tr R is 0 (R a half turn,
    outside the image of cay), and ``ValueError`` unless R is 3x3.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows3(R)
    d = 1.0 + (r00 + r11 + r22)
    if d == 0.0:
        raise np.linalg.LinAlgError("cay_inv: 1 + tr R = 0 (a half turn)")
    k = 2.0 / d
    return np.array([k * (r21 - r12), k * (r02 - r20), k * (r10 - r01)])


def is_rotation(g):
    """Whether the real 3x3 matrix g is a rotation, |g g^T - I| <= 1e-12
    and det g > 0 (``ValueError`` for any other shape)."""
    r0, r1, r2 = rows3(g)
    diag = (dot3(r0, r0) - 1.0, dot3(r1, r1) - 1.0, dot3(r2, r2) - 1.0)
    off = (dot3(r0, r1), dot3(r0, r2), dot3(r1, r2))
    return (dot3(diag, diag) + 2.0 * dot3(off, off) <= _UNITARY_TOL ** 2
            and dot3(r0, cross3(r1, r2)) > 0.0)


def inverse(g):
    """The inverse g^H of a unitary (or real orthogonal) matrix g.

    ``ValueError`` unless g is square and |g g^H - I| <= 1e-12
    (Frobenius).
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"inverse: g of shape {g.shape} is not square")
    gh = g.conj().T
    d = np.dot(g, gh)
    d.ravel()[::len(d) + 1] -= 1.0  # g g^H - I, in place
    if not np.vdot(d, d).real <= _UNITARY_TOL ** 2:
        raise ValueError("inverse: g is not unitary")
    return gh


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
        # so(3) in the hat basis, where coordinates v are the matrix hat(v)
        # and exp and conjugation take their SO(3) closed forms
        self._so3 = self.dim == 3 and all(
            np.array_equal(B, hat(e))
            for B, e in zip(self.basis, np.eye(3)))
        self._pairing = pairing
        self.gram = np.array([[pairing(a, b) for b in self.basis]
                              for a in self.basis])
        self.gram_inv = np.linalg.inv(self.gram)
        self._stacked = np.array(self.basis)  # dim x n x n
        # the basis matrices flattened, as rows: dim x n^2
        self._rows = self._stacked.reshape(self.dim, -1)
        # all of su(n): n^2 - 1 skew-Hermitian, traceless basis matrices,
        # so that conjugation by a unitary keeps the span
        n = self._stacked.shape[1]
        self._su_n = self.dim == n * n - 1 and all(
            np.array_equal(B.conj().T, -B) and np.trace(B) == 0
            for B in self.basis)
        # basis matrices as columns of real, then imaginary parts: 2n^2 x dim
        self._flat = self._realified(self._rows)
        self._flat_pinv = np.linalg.pinv(self._flat)  # dim x (2 n^2)
        # Re(_pinv_complex z) = _flat_pinv [Re z; Im z] for a complex z
        self._pinv_complex = (self._flat_pinv[:, :n * n]
                              - 1j * self._flat_pinv[:, n * n:])
        self._eye = np.eye(self.dim)

    # -- coordinates ---------------------------------------------------

    def matrix(self, coords):
        coords = np.asarray(coords, dtype=float).ravel()
        # the left-to-right sum from 0 of c_i B_i
        return np.add.reduce(coords[:, None, None] * self._stacked, axis=0,
                             initial=0.0)

    @staticmethod
    def _realified(Ms):
        """A stack of k matrices as the columns of their real, then
        imaginary parts: (2 n^2) x k."""
        Mc = np.asarray(Ms, dtype=complex).reshape(len(Ms), -1)
        return np.concatenate([Mc.real, Mc.imag], axis=1).T

    def _coords_columns(self, Ms):
        """Coordinates of a stack of k matrices, as a dim x k matrix.

        One product with the precomputed pseudo-inverse of the flattened
        basis; every column must reproduce its matrix to 1e-9 relative.
        """
        rhs = self._realified(Ms)
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
        """[a, b] in coordinates, for a vector b or for each column of a
        matrix b: the cross product a x b on so(3) in the hat basis, else
        ad_a b from the structure constants that :meth:`ad_matrix` reads."""
        b = np.asarray(b, dtype=float)
        if self._so3:
            a = triple(a)
            if b.ndim == 1:
                return np.array(cross3(a, triple(b)))
            out = np.empty(b.shape)
            out.T[:] = [cross3(a, col) for col in b.T.tolist()]
            return out
        return self.ad_matrix(a) @ (b if b.ndim == 2 else b.ravel())

    @linalg.once
    def _ad_basis(self):
        """Structure constants as a dim x (dim * dim) matrix: row i holds
        the matrix of ad_{B_i}, flattened.  Taken on first use, with each
        constant within 1e-12 of an integer set to it: they are small
        integers in the so(3) and su(3) bases, up to projection roundoff."""
        S = self._stacked
        d = self.dim
        C = self._coords_columns((S[:, None] @ S[None] - S[None] @ S[:, None])
                                 .reshape(d * d, *S.shape[1:]))
        whole = np.round(C) + 0.0  # + 0.0: no -0.0
        C = np.where(np.abs(C - whole) <= 1e-12, whole, C)
        # C[:, i * d + j] = coords [B_i, B_j], the column j of ad_{B_i}
        return np.ascontiguousarray(
            C.reshape(d, d, d).transpose(1, 0, 2).reshape(d, d * d))

    @linalg.once
    def gram_factor(self):
        """(R, R^-1), gram = R^T R with R upper triangular; on first use."""
        R = np.linalg.cholesky(self.gram).T
        return R, np.linalg.inv(R)

    def ad_matrix(self, a):
        """Matrix of ad_a = [a, .] on coordinates, from the structure
        constants (on so(3) in the hat basis, hat(a))."""
        a = np.asarray(a, dtype=float).ravel()
        return (a @ self._ad_basis).reshape(self.dim, self.dim)

    def Ad(self, g, C):
        """Coordinates of g X g^-1 for the element X of each column of the
        dim x k coordinate matrix C, as the columns of a dim x k matrix.

        On so(3) a rotation g (real, g g^T = I to 1e-12, det g > 0) takes
        the closed form g hat(v) g^-1 = hat(g v): the result is g @ C.  On
        an algebra that is all of su(n) (``_su_n``) a unitary g
        (g g^H = I to 1e-12) keeps the algebra, so the conjugates g X g^H
        are projected onto the basis with no span test.  Any other g (a
        reflection, a scaled rotation or unitary, a shear, a complex g on
        so(3)), and any g on another algebra, raises ``ValueError``.
        """
        g = np.asarray(g)
        C = np.asarray(C, dtype=float)
        if self._so3:
            if g.dtype.kind == "c" or not is_rotation(g):
                raise ValueError("Ad: g is not a rotation")
            return g @ C
        if not self._su_n:
            raise ValueError(f"Ad: no closed form on {self.name}")
        gh = inverse(g)
        # row-major, vec(g X g^H) = (g kron conj(g)) vec(X), so Ad_g is
        # Re(_pinv_complex (g kron conj(g)) _rows^T); formed in full, so
        # that Ad(g, C) is Ad_matrix(g) @ C bit for bit
        n = len(g)
        G = (g[:, None, :, None] * gh.T[None, :, None, :]).reshape(n * n,
                                                                  n * n)
        Ad = np.dot(np.dot(self._pinv_complex, G), self._rows.T)
        return np.dot(Ad.real, C)

    def Ad_matrix(self, g):
        """Matrix of Ad_g on coordinates: ``Ad(g, I)``, whose columns are
        coords(g B_i g^-1)."""
        return self.Ad(g, self._eye)

    def exp(self, coords):
        """Matrix exponential of the algebra element with given coordinates.

        so(3) in the hat basis uses Rodrigues (:func:`exp_so3`); every other
        algebra is skew-Hermitian and uses a unitary eigendecomposition
        (exact structure at this size).
        """
        if self._so3:
            return exp_so3(coords)
        A = np.asarray(self.matrix(coords), dtype=complex)
        H = A / 1j  # Hermitian
        w, V = linalg.eigh(H)
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
