"""Small dense linear algebra and finite-difference kernels.

Everything downstream (inertia factors, curvature solves, slice tangency
tests) reduces to rank/nullspace decisions, minimum-norm consistent solves
and central differences on matrices of dimension <= 16, so these helpers are
kept deliberately simple and SVD-based.  :class:`SVD` is the one place that
decomposes a matrix: every rank, kernel, range and minimum-norm solve in the
package keeps the singular values ``s > tol_rank * s[0]`` of that one
decomposition, and the CLI's ``--tol-rank`` sets tol_rank.
:func:`rank_nullspace`, :func:`range_space`, :func:`solve_consistent` and
the reduction in :class:`Subspace` are views of it.  :func:`norm` is the
Euclidean norm of a real array by numpy's own formula, without
``np.linalg.norm``'s dispatch.
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
    inconsistent the system was (this is the docility-failure signal), and
    the ``cond`` and ``gap`` of the :class:`SVD` solved against.
    """

    def __init__(self, message, residual, cond, gap):
        super().__init__(f"{message} (residual {residual:.3e}, "
                         f"cond {cond:.3e}, gap {gap:.3e})")
        self.residual = float(residual)
        self.cond = float(cond)
        self.gap = float(gap)


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
    linearly dependent input is reduced to the row space of their
    :class:`SVD` at the given tolerance.  :meth:`from_basis` takes a basis
    that is already orthonormal.
    """

    def __init__(self, vectors, ambient_dim=None, tol=TOL_RANK):
        vectors = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if vectors:
            self.basis = SVD(np.array(vectors), tol).row_space.basis
        elif ambient_dim is None:
            raise ValueError("empty subspace needs an ambient dimension")
        else:
            self.basis = np.zeros((ambient_dim, 0))
        self.ambient_dim = self.basis.shape[0]

    @classmethod
    def from_basis(cls, basis):
        """The span of the orthonormal columns of ``basis`` (n x r)."""
        out = cls.__new__(cls)
        out.basis = basis
        out.ambient_dim = basis.shape[0]
        return out

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


class SVD:
    """One full singular value decomposition A = U diag(s) Vt.

    The matrix is checked for non-finite entries once (``ValueError``).
    ``rank`` counts the singular values above tol_rank * s[0]
    (:func:`_svd_rank`), and every other answer reads that one cutoff: the
    ``kernel`` (the last rows of the full Vt, so a wide A has one), the
    ``range``, the ``row_space``, the pseudo-inverse and the minimum-norm
    consistent solve.  The spectral norm |A|_2 is s[0].
    """

    def __init__(self, A, tol_rank=TOL_RANK):
        A = np.asarray(A, dtype=float)
        self.A = A if A.ndim == 2 else np.atleast_2d(A)
        if not np.isfinite(self.A).all():
            raise ValueError("SVD: non-finite entries")
        self.tol_rank = tol_rank
        self.U, self.s, self.Vt = np.linalg.svd(self.A)
        self.rank = _svd_rank(self.s, tol_rank)

    @property
    def cond(self):
        """s[0] / s[rank - 1], the conditioning of A on its numerical
        range; infinite at rank 0."""
        return self.s[0] / self.s[self.rank - 1] if self.rank else math.inf

    @property
    def gap(self):
        """s[rank] / s[rank - 1], the largest dropped singular value over the
        smallest kept one: near 1 when the cutoff split a cluster, 0.0 when
        nothing is dropped, infinite at rank 0."""
        r = self.rank
        if r == 0:
            return math.inf
        return self.s[r] / self.s[r - 1] if r < self.s.size else 0.0

    @cached_property
    def kernel(self) -> Subspace:
        return Subspace.from_basis(self.Vt[self.rank:].T)

    @cached_property
    def range(self) -> Subspace:
        return Subspace.from_basis(self.U[:, :self.rank])

    @cached_property
    def row_space(self) -> Subspace:
        return Subspace.from_basis(self.Vt[:self.rank].T)

    @cached_property
    def pinv(self):
        """numpy's pseudo-inverse formula over the singular values above the
        cutoff; bit-equal to ``np.linalg.pinv(A, tol_rank)`` for a square
        A (numpy decomposes a non-square one in reduced form)."""
        r = self.rank
        return self.Vt[:r].T @ ((1.0 / self.s[:r])[:, None] * self.U[:, :r].T)

    def solve(self, b, tol_consist=1e-8):
        """Minimum-norm solution of A x = b, requiring b in range(A).

        A non-finite ``b`` raises ``ValueError``.  Raises
        :class:`InconsistentSystemError` when the least-squares residual
        exceeds ``tol_consist * max(|A||x|, |b|)``.
        """
        b = np.asarray(b, dtype=float).ravel()
        if not np.isfinite(b).all():
            raise ValueError("SVD.solve: non-finite right-hand side")
        x = self.pinv @ b
        resid = norm(self.A @ x - b)
        norm_A = self.s[0] if self.s.size else 0.0
        scale = max(norm_A * norm(x), norm(b), 1e-300)
        if resid > tol_consist * scale and resid > tol_consist:
            raise InconsistentSystemError(
                "solve_consistent: b not in range(A)", resid, self.cond,
                self.gap)
        return x


def rank_nullspace(A, tol_rank=TOL_RANK):
    """Numerical rank and kernel of A; see :class:`SVD`.

    Returns ``(rank, kernel)`` where ``kernel`` is a :class:`Subspace` of the
    domain.  Rank + kernel dimension equals the number of columns exactly.
    """
    svd = SVD(A, tol_rank)
    return svd.rank, svd.kernel


def range_space(A, tol_rank=TOL_RANK):
    """Column space of A as a :class:`Subspace`; see :class:`SVD`."""
    return SVD(A, tol_rank).range


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


def curve_derivative(f, h=FD_STEP):
    """Derivative at t = 0 of a curve t -> array."""
    fp = np.asarray(f(h), dtype=float)
    fm = np.asarray(f(-h), dtype=float)
    return (fp - fm) / (2.0 * h)
