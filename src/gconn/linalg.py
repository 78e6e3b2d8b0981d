"""Small dense linear algebra and finite-difference kernels.

Everything downstream (inertia factors, curvature solves, slice tangency
tests) reduces to rank/nullspace decisions, minimum-norm consistent solves
and central differences on matrices of dimension <= 16, so these helpers are
kept deliberately simple and SVD-based.  :class:`SVD` is the one place that
decomposes a matrix: every rank, kernel, range and minimum-norm solve in the
package keeps the singular values ``s > TOL_RANK * s[0]`` of that one
decomposition.  :func:`rank_nullspace`, :func:`range_space`,
:func:`solve_consistent` and the reduction in :class:`Subspace` are views
of it.  :func:`norm` is the Euclidean norm of a real array by numpy's own
formula, without ``np.linalg.norm``'s dispatch.

This is the one module that calls LAPACK for the per-point work.
:func:`svd`, :func:`solve` and :func:`eigh` call the gufuncs that
``np.linalg`` wraps, with the signatures it passes, so their results are
bit-equal to ``np.linalg``'s; on matrices this small, ``np.linalg``'s
per-call dispatch (array wrapping, type resolution, an ``errstate``
context, casts of the results) costs more than the routine itself.  Code
that runs once per algebra or action, at construction, keeps
``np.linalg``.

The rank cutoff ``TOL_RANK`` and the difference step ``FD_STEP`` are
constants of this module, read when a decomposition or a difference is
taken: :class:`SVD` cuts at the one, and :func:`curve_derivative`, the
one difference formula of the package, steps by the other.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg as _lapack

# Relative singular-value threshold for rank decisions.  The spectra arising
# from the built-in group actions are well separated (eigenvalues like 0 and
# 1 -+ r), so this cutoff is robust.
TOL_RANK = 1e-8

# The one consistency tolerance: SVD.solve takes b to lie in range(A) up to it.
TOL_CONSIST = 1e-8

# The one difference step: the 4-point stencil's roundoff ~eps/h = 2e-11
# dominates its truncation ~h^4.  The frame oracles need no larger near a
# pole: at 1e-4 s2-pmf-beta seed 391 misses frame-d-exact-vs-fd by 2.4e-5.
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


def _nan_free(x, message):
    """``x``, unless it holds a NaN: then ``LinAlgError(message)``.

    A LAPACK routine that fails fills its output with NaN and flags an
    invalid value, which numpy reports as a ``RuntimeWarning`` before this
    raises (``np.linalg``'s ``errstate`` raises at the flag instead).  A NaN
    in the input raises here too, where ``np.linalg`` may return NaN.
    """
    if math.isnan(np.vdot(x, x).real):
        raise LinAlgError(message)
    return x


def svd(a):
    """Full SVD ``(U, s, Vt)`` of a real matrix, bit-equal to
    ``np.linalg.svd(a)``; ``LinAlgError`` where it did not converge."""
    U, s, Vt = _lapack.svd_f(a, signature="d->ddd")
    _nan_free(s, "SVD did not converge")
    return U, s, Vt


def solve(a, b):
    """Solution of the real square system a x = b, for a 1-d or a 2-d
    ``b``, bit-equal to ``np.linalg.solve(a, b)``; ``LinAlgError`` if a is
    singular."""
    b = np.asarray(b)
    gufunc = _lapack.solve1 if b.ndim == 1 else _lapack.solve
    return _nan_free(gufunc(a, b, signature="dd->d"), "Singular matrix")


def eigh(a):
    """Eigenvalues ``w`` (ascending) and eigenvectors of a complex Hermitian
    matrix from its lower triangle, bit-equal to ``np.linalg.eigh(a)``;
    ``LinAlgError`` where it did not converge."""
    w, V = _lapack.eigh_lo(a, signature="D->dD")
    _nan_free(w, "Eigenvalues did not converge")
    return w, V


class once:
    """An attribute computed on first access and then stored on the
    instance: :func:`functools.cached_property` without its lock."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Subspace:
    """A linear subspace of R^n stored as an orthonormal column basis.

    ``vectors`` may be any spanning set (rows or a list of 1-d arrays);
    linearly dependent input is reduced to the row space of their
    :class:`SVD` at the rank cutoff ``TOL_RANK``.  :meth:`from_basis` takes a
    basis that is already orthonormal.
    """

    def __init__(self, vectors, ambient_dim=None):
        vectors = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if vectors:
            self.basis = SVD(np.array(vectors)).row_space.basis
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

    def contains(self, v, tol):
        v = np.asarray(v, dtype=float).ravel()
        return norm(v - self.project(v)) <= tol * max(1.0, norm(v))

    def contains_subspace(self, other, tol):
        """Whether every basis column v of ``other`` passes :meth:`contains`,
        |v - P v| <= tol * max(1, |v|), tested with one product."""
        V = other.basis
        if not V.shape[1]:
            return True
        if V.shape[0] != self.ambient_dim:
            raise ValueError("dimension mismatch")
        R = V - self.basis @ (self.basis.T @ V)
        # squared column norms; few columns, so compared one by one
        rr = np.add.reduce(R * R, axis=0).tolist()
        vv = np.add.reduce(V * V, axis=0).tolist()
        return all(math.sqrt(r) <= tol * max(1.0, math.sqrt(v))
                   for r, v in zip(rr, vv))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class SVD:
    """One full singular value decomposition A = U diag(s) Vt.

    The matrix is checked for non-finite entries once (``ValueError``).
    ``rank`` counts the singular values above ``TOL_RANK * s[0]``, and
    every other answer reads that one cutoff: the ``kernel`` (the last rows
    of the full Vt, so a wide A has one), the ``range``, the ``row_space``,
    the pseudo-inverse and the minimum-norm consistent solve.  The spectral
    norm |A|_2 is s[0].
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.A = A if A.ndim == 2 else np.atleast_2d(A)
        if not np.isfinite(self.A).all():
            raise ValueError("SVD: non-finite entries")
        self.U, self.s, self.Vt = svd(self.A)
        s = self.s.tolist()
        cutoff = TOL_RANK * s[0] if s and s[0] > 0 else 0.0
        self.rank = sum(x > cutoff for x in s)

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

    @once
    def kernel(self) -> Subspace:
        return Subspace.from_basis(self.Vt[self.rank:].T)

    @once
    def range(self) -> Subspace:
        return Subspace.from_basis(self.U[:, :self.rank])

    @once
    def row_space(self) -> Subspace:
        return Subspace.from_basis(self.Vt[:self.rank].T)

    @once
    def pinv(self):
        """numpy's pseudo-inverse formula over the singular values above the
        cutoff; bit-equal to ``np.linalg.pinv(A, TOL_RANK)`` for a square
        A (numpy decomposes a non-square one in reduced form)."""
        r = self.rank
        return self.Vt[:r].T @ ((1.0 / self.s[:r])[:, None] * self.U[:, :r].T)

    def solve(self, b):
        """Minimum-norm solution of A x = b, requiring b in range(A).

        A non-finite ``b`` raises ``ValueError``.  Raises
        :class:`InconsistentSystemError` when the least-squares residual
        exceeds both ``TOL_CONSIST * max(|A||x|, |b|)`` and ``TOL_CONSIST``.
        """
        b = np.asarray(b, dtype=float).ravel()
        if not np.isfinite(b).all():
            raise ValueError("SVD.solve: non-finite right-hand side")
        x = self.pinv @ b
        resid = norm(self.A @ x - b)
        norm_A = self.s[0] if self.s.size else 0.0
        if resid > TOL_CONSIST * max(norm_A * norm(x), norm(b), 1.0):
            raise InconsistentSystemError(
                "SVD.solve: b not in range(A)", resid, self.cond, self.gap)
        return x


def rank_nullspace(A):
    """Numerical rank and kernel of A; see :class:`SVD`.

    Returns ``(rank, kernel)`` where ``kernel`` is a :class:`Subspace` of the
    domain.  Rank + kernel dimension equals the number of columns exactly.
    """
    svd = SVD(A)
    return svd.rank, svd.kernel


def range_space(A):
    """Column space of A as a :class:`Subspace`; see :class:`SVD`."""
    return SVD(A).range


def solve_consistent(A, b):
    """Minimum-norm solution of A x = b, requiring b in range(A); see
    :meth:`SVD.solve`."""
    return SVD(A).solve(b)


def central_difference(f, x):
    """Jacobian of ``f`` at ``x``: column j is :func:`curve_derivative`
    along the j-th unit axis.  ``f`` maps a 1-d array to a 1-d array
    (scalars are promoted).  Exact for polynomials of degree <= 4 up to
    roundoff."""
    x = np.asarray(x, dtype=float).ravel()
    return np.array([curve_derivative(lambda t: np.ravel(f(x + t * e)))
                     for e in np.eye(x.size)]).T


def curve_derivative(f):
    """Derivative at t = 0 of a curve t -> float or float array, by the
    4-point central difference (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h
    at h = ``FD_STEP``."""
    h = FD_STEP
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)
