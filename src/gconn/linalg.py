"""Small dense linear algebra and finite-difference kernels.

Everything downstream (inertia factors, curvature solves, slice tangency
tests) reduces to rank/nullspace decisions, minimum-norm consistent solves
and central differences on matrices of dimension <= 16, so these helpers are
kept deliberately simple and SVD-based.  :class:`SVD` decomposes a matrix
once; its rank decision, pseudo-inverse, spectral norm and consistent solve
all read from that one decomposition, and :func:`solve_consistent` is that
solve on a fresh matrix.  :func:`norm` is the Euclidean norm of a real
array by numpy's own formula, without ``np.linalg.norm``'s dispatch.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# Relative singular-value threshold for rank decisions.  The spectra arising
# from the built-in group actions are well separated (eigenvalues like 0 and
# 1 -+ r), so this default is robust.
TOL_RANK = 1e-8

# Default central-difference step: truncation ~h^2 = 1e-10 balances roundoff
# ~eps/h = 1e-11.
FD_STEP = 1e-5


class InconsistentSystemError(ValueError):
    """Raised when a linear system has no solution at the given tolerance.

    Carries the least-squares residual so callers can report *how*
    inconsistent the system was (this is the docility-failure signal).
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = float(residual)


def norm(x):
    """Euclidean (Frobenius) norm of a real array, bit-equal to
    ``np.linalg.norm(x)``: the square root of the flattened array dotted
    with itself.  Complex input raises ``TypeError`` rather than losing its
    imaginary part; use ``np.linalg.norm`` there.
    """
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError("norm: complex input")
    x = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


class Subspace:
    """A linear subspace of R^n stored as an orthonormal column basis.

    ``vectors`` may be any spanning set (rows or a list of 1-d arrays);
    linearly dependent input is reduced via SVD at the given tolerance.
    """

    def __init__(self, vectors, ambient_dim=None, tol=TOL_RANK):
        vectors = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if vectors:
            ambient_dim = len(vectors[0])
            M = np.array(vectors)
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            self.basis = Vt[:_svd_rank(s, tol)].T  # n x r, orthonormal columns
        else:
            if ambient_dim is None:
                raise ValueError("empty subspace needs an ambient dimension")
            self.basis = np.zeros((ambient_dim, 0))
        self.ambient_dim = int(ambient_dim)

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, v):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return self.basis @ (self.basis.T @ v)

    def contains(self, v, tol=1e-8):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.ambient_dim:
            raise ValueError("dimension mismatch")
        d = norm(v - self.project(v))
        return d <= tol * max(1.0, norm(v))

    def contains_subspace(self, other, tol=1e-8):
        return all(self.contains(other.basis[:, j], tol) for j in range(other.dim))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _svd_rank(s, tol_rank):
    """Count of singular values ``s`` (descending) above tol_rank * s[0]."""
    s = s.tolist()
    cutoff = tol_rank * s[0] if s and s[0] > 0 else 0.0
    return sum(x > cutoff for x in s)


def _as_matrix(A):
    A = np.asarray(A, dtype=float)
    return A if A.ndim == 2 else np.atleast_2d(A)


def rank_nullspace(A, tol_rank=TOL_RANK):
    """Numerical rank and kernel of A via SVD.

    Returns ``(rank, kernel)`` where ``kernel`` is a :class:`Subspace` of the
    domain.  Rank + kernel dimension equals the number of columns exactly.
    """
    A = _as_matrix(A)
    if not np.isfinite(A).all():
        raise ValueError("rank_nullspace: non-finite entries")
    if A.size == 0:
        return 0, Subspace([], ambient_dim=A.shape[1])
    U, s, Vt = np.linalg.svd(A)
    rank = _svd_rank(s, tol_rank)
    kern = Subspace([], ambient_dim=A.shape[1])
    kern.basis = Vt[rank:].T
    return rank, kern


def range_space(A, tol_rank=TOL_RANK):
    """Column space of A as a :class:`Subspace`."""
    A = _as_matrix(A)
    if not np.isfinite(A).all():
        raise ValueError("range_space: non-finite entries")
    U, s, _ = np.linalg.svd(A)
    out = Subspace([], ambient_dim=A.shape[0])
    out.basis = U[:, :_svd_rank(s, tol_rank)]
    return out


class SVD:
    """One reduced singular value decomposition A = U diag(s) Vt.

    The rank decision (:func:`_svd_rank`), the pseudo-inverse and the
    consistent solve all read from it; the spectral norm |A|_2 is s[0].
    """

    def __init__(self, A, tol_rank=TOL_RANK):
        self.A = _as_matrix(A)
        self.tol_rank = tol_rank
        self.U, self.s, self.Vt = np.linalg.svd(self.A, full_matrices=False)

    @property
    def rank(self):
        return _svd_rank(self.s, self.tol_rank)

    @cached_property
    def pinv(self):
        """numpy's pseudo-inverse formula: the reciprocal of every singular
        value above tol_rank * max(s), zero for the rest."""
        s = self.s
        large = s > self.tol_rank * np.max(s, initial=0.0)
        s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
        return self.Vt.T @ (s_inv[:, None] * self.U.T)

    def solve(self, b, tol_consist=1e-8):
        """Minimum-norm solution of A x = b, requiring b in range(A).

        Raises :class:`InconsistentSystemError` when the least-squares
        residual exceeds ``tol_consist * max(|A||x|, |b|)``.
        """
        b = np.asarray(b, dtype=float).ravel()
        x = self.pinv @ b
        resid = norm(self.A @ x - b)
        norm_A = self.s[0] if self.s.size else 0.0
        scale = max(norm_A * norm(x), norm(b), 1e-300)
        if resid > tol_consist * scale and resid > tol_consist:
            raise InconsistentSystemError(
                "solve_consistent: b not in range(A)", resid)
        return x


def solve_consistent(A, b, tol_rank=TOL_RANK, tol_consist=1e-8):
    """Minimum-norm solution of A x = b, requiring b in range(A); see
    :meth:`SVD.solve`."""
    return SVD(A, tol_rank).solve(b, tol_consist)


def central_difference(f, x, h=FD_STEP):
    """Jacobian of ``f`` at ``x`` by central differences, column by column.

    ``f`` maps a 1-d array to a 1-d array (scalars are promoted).  Exact for
    polynomials of degree <= 2 up to roundoff.
    """
    x = np.asarray(x, dtype=float).ravel()
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = np.asarray(f(x + e), dtype=float).ravel()
        fm = np.asarray(f(x - e), dtype=float).ravel()
        cols.append((fp - fm) / (2.0 * h))
    return np.array(cols).T


def directional_derivative(f, x, v, h=FD_STEP):
    """Central-difference derivative of ``f`` along direction ``v``."""
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    fp = np.asarray(f(x + h * v), dtype=float)
    fm = np.asarray(f(x - h * v), dtype=float)
    return (fp - fm) / (2.0 * h)


def curve_derivative(f, h=FD_STEP):
    """Derivative at t = 0 of a curve t -> array."""
    fp = np.asarray(f(h), dtype=float)
    fm = np.asarray(f(-h), dtype=float)
    return (fp - fm) / (2.0 * h)
