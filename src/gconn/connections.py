"""Dual connection forms, inertia factors, the gamma map and projections.

A *dual form* assigns to each manifold point a linear map from tangent
coordinates to dual-algebra coordinates; its *inertia factor* at m is the
composition with the generator map, a square matrix chi(m) whose kernel must
equal the isotropy algebra.  Solving chi(m) xi = nu and pushing xi back
through the generators gives the gamma map, whose composition with the form
is the equivariant projection onto the orbit tangent.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .actions import Action
from .linalg import SVD, Subspace, TOL_RANK, norm
from .report import VerificationReport


class DegeneracyError(ValueError):
    """The kernel of the inertia factor does not match the isotropy algebra."""


class DualForm:
    """A dual-algebra-valued one-form, represented extensionally.  The
    algebra-valued forms (values in algebra coordinates) of
    :func:`alpha_so3r3` and :func:`clean_alpha` use the same class.

    ``matrix(m)`` returns the (alg_dim x vec_dim) matrix of the pointwise
    linear map in the action's tangent coordinates and the dual basis.  A
    form built from the generators (``uses_generators``) is given the
    generator matrix ``K`` at m as a second argument; ``matrix(m, K)``
    passes on the one a caller already holds, ``matrix(m)`` evaluates it.

    ``dmatrix(m, w, K)``, if given, is the exact derivative of ``matrix``
    along t -> retract(m, w, t), with K the generator matrix at m; the
    derivatives in :mod:`gconn.curvature` read it, and fall back to finite
    differences where it is None (see :func:`fd_oracle`).
    """

    def __init__(self, action: Action, matrix_fn, name="mu",
                 uses_generators=False, dmatrix=None):
        self.action = action
        self._matrix_fn = matrix_fn
        self.name = name
        self.uses_generators = uses_generators
        self.dmatrix = dmatrix

    def matrix(self, m, K=None):
        if not self.uses_generators:
            return np.asarray(self._matrix_fn(m), dtype=float)
        if K is None:
            K = self.action.gen_matrix(m)
        return np.asarray(self._matrix_fn(m, K), dtype=float)

    def __call__(self, m, v):
        return self.matrix(m) @ np.asarray(v, dtype=float).ravel()


def simple_mechanical_mu(action: Action) -> DualForm:
    """mu(v) . xi = <v, xi_M(m)> in the action's invariant metric.

    Exactly differentiable, dK^T G, where the action has ``dgen_matrix``:
    those actions are on group manifolds, whose metric G is the constant
    Gram of the manifold algebra.
    """
    def matrix(m, K):
        return K.T @ action.tangent_metric(m)

    dmatrix = None
    if action.dgen_matrix is not None:
        def dmatrix(m, w, K):
            return action.dgen_matrix(m, w, K).T @ action.tangent_metric(m)

    return DualForm(action, matrix, name="mu_mech", uses_generators=True,
                    dmatrix=dmatrix)


def fd_oracle(mu: DualForm) -> DualForm:
    """The same form without its exact derivative, so that every derivative
    of it is taken by central differences: the independent oracle that the
    exact derivatives are checked against."""
    return DualForm(mu.action, mu._matrix_fn, name=mu.name,
                    uses_generators=mu.uses_generators)


def mu_q(q) -> DualForm:
    """The family mu(v) = q(|m|^2) m x v of dual forms on rotating R^3.

    ``q`` must be smooth and strictly positive on the sampled positive axis.
    """
    from .actions import get_action
    from .groups import hat
    action = get_action("so3-on-r3")
    for t in np.linspace(0.3, 9.0, 30):
        if not q(t) > 0:
            raise ValueError(f"mu_q: q({t}) = {q(t)} is not positive")
    def matrix(m):
        m = np.asarray(m, dtype=float).ravel()
        return q(float(m @ m)) * hat(m)
    return DualForm(action, matrix, name="mu_q")


class PointEval:
    """The geometry of a dual form at one point, evaluated once.

    Holds the generator matrix ``K``, the form ``M = mu_m`` and the inertia
    factor ``chi = M K`` at m, and at most one :class:`SVD` of each, taken
    on first use.  The SVD of chi feeds the kernel test (ker chi against
    the isotropy algebra ker K), the projection ``P``, the solve behind the
    gamma map and the scale of its consistency test (|chi|_2 = s[0]);
    ``kernel`` is ker mu_m.  Nothing outlives the object, which callers
    build per call with :func:`at`; a caller that already holds ``K`` or
    ``M`` at m passes it on.
    """

    def __init__(self, mu: DualForm, m, tol_rank=TOL_RANK, K=None, M=None):
        self.mu = mu
        self.m = m
        self.tol_rank = tol_rank
        self.K = mu.action.gen_matrix(m) if K is None else K
        self.M = mu.matrix(m, self.K) if M is None else M
        self.chi = self.M @ self.K

    @cached_property
    def chi_svd(self) -> SVD:
        return SVD(self.chi, self.tol_rank)

    @cached_property
    def M_svd(self) -> SVD:
        return SVD(self.M, self.tol_rank)

    @cached_property
    def K_svd(self) -> SVD:
        return SVD(self.K, self.tol_rank)

    @property
    def kernel(self) -> Subspace:
        """ker mu_m, the horizontal space of the form at m."""
        return self.M_svd.kernel

    @cached_property
    def _degeneracy(self):
        """Why ker chi(m) differs from the isotropy algebra ker K, or None."""
        kern = self.chi_svd.kernel
        iso = self.K_svd.kernel
        if kern.dim == iso.dim and iso.contains_subspace(kern, 1e-6):
            return None
        return (f"ker chi has dim {kern.dim}, isotropy dim {iso.dim} at "
                f"this point (cond {self.chi_svd.cond:.3e}, "
                f"gap {self.chi_svd.gap:.3e})")

    @property
    def nondegenerate(self) -> bool:
        """Whether ker chi(m) equals the isotropy algebra."""
        return self._degeneracy is None

    def inertia(self):
        """chi(m), after the kernel test; raises :class:`DegeneracyError`
        if ker chi(m) differs from the isotropy algebra."""
        if self._degeneracy is not None:
            raise DegeneracyError(self._degeneracy)
        return self.chi

    @cached_property
    def P(self):
        """Matrix of the projection gamma o mu onto the orbit tangent."""
        chi = self.inertia()
        X = self.chi_svd.pinv @ self.M
        resid = norm(chi @ X - self.M)
        scale = max(norm(self.M), 1e-300)
        if resid > 1e-6 * scale:
            raise DegeneracyError(
                f"range mu exceeds range chi (residual {resid:.2e})")
        return self.K @ X

    def solve(self, nu, tol_consist=1e-8):
        """Minimum-norm xi with chi(m) xi = nu, after the kernel test."""
        self.inertia()
        return self.chi_svd.solve(nu, tol_consist)

    def gamma(self, nu, tol_consist=1e-8):
        """Solve chi(m) xi = nu and return the generator xi_M(m)."""
        return self.K @ self.solve(nu, tol_consist)


def at(mu: DualForm, m, tol_rank=TOL_RANK) -> PointEval:
    """The point evaluation of mu at m; ``m`` itself if it already is one."""
    if isinstance(m, PointEval):
        if m.mu is not mu:
            raise ValueError(f"point evaluation of {m.mu.name} passed for "
                             f"{mu.name}")
        return m
    return PointEval(mu, m, tol_rank)


def inertia_factor(mu: DualForm, m, tol_rank=TOL_RANK):
    """chi(m) = mu composed with the generator map, as an alg x alg matrix.

    Raises :class:`DegeneracyError` if ker chi(m) differs from the isotropy
    algebra (then mu is not a dual connection form at m).
    """
    return at(mu, m, tol_rank).inertia()


def gamma_apply(mu: DualForm, m, nu, tol_rank=TOL_RANK, tol_consist=1e-8):
    """Solve chi(m) xi = nu and return the generator xi_M(m).

    Well defined because ker chi = ker of the generator map; inconsistency
    (nu outside range chi) raises and is exactly the docility-failure
    signal.
    """
    return at(mu, m, tol_rank).gamma(nu, tol_consist)


def projection_P_mu(mu: DualForm, m, tol_rank=TOL_RANK):
    """Matrix of the projection gamma o mu of T_m M onto the orbit tangent."""
    return at(mu, m, tol_rank).P


def alpha_so3r3(f) -> DualForm:
    """Algebra-valued form |m|^-2 m x v + f(m) <m, v> m on rotating R^3.

    Discontinuous at the origin (where it is set to zero) for every choice
    of f; its projection is the orthogonal projection onto the orbit
    tangent away from 0.
    """
    from .actions import get_action
    from .groups import hat
    action = get_action("so3-on-r3")
    def matrix(m):
        m = np.asarray(m, dtype=float).ravel()
        n2 = float(m @ m)
        if n2 == 0.0:
            return np.zeros((3, 3))
        return hat(m) / n2 + f(m) * np.outer(m, m)
    return DualForm(action, matrix, name="alpha_so3r3")


def clean_alpha(alpha: DualForm) -> DualForm:
    """Compose alpha with its own projection, removing isotropy components."""
    def matrix(m):
        A = alpha.matrix(m)
        return A @ alpha.action.gen_matrix(m) @ A
    return DualForm(alpha.action, matrix, name=alpha.name + "_clean")


def equivariance_residual(mu: DualForm, g, m, v):
    """| mu_{g.m}(dPhi_g v) - Ad*_{g^-1} mu_m(v) |, one sample."""
    A = mu.action
    pt = at(mu, m)
    lhs = mu(A.apply(g, pt.m), A.dPhi(g, pt.m, v))
    # Ad*_{g^-1} is the transpose of Ad_{g^-1}
    rhs = (A.Ad_group(A.group_inv(g)).T
           @ (pt.M @ np.asarray(v, dtype=float).ravel()))
    return norm(lhs - rhs)


def dual_form_verify(mu: DualForm, samples=25, rng=None,
                     tol_rank=TOL_RANK, tol_eq=1e-8) -> VerificationReport:
    """Check the defining properties of a dual connection form by sampling.

    At each sampled point: the tangent space splits as orbit-tangent plus
    kernel; ker chi equals the isotropy algebra; range chi equals range mu;
    and the pullback equivariance identity holds at a random group element.
    """
    A = mu.action
    rng = np.random.default_rng(0) if rng is None else rng
    rep = VerificationReport(scenario=f"dual_form_verify[{mu.name}]")
    for i in range(samples):
        m = A.random_point(rng)
        tag = f"sample {i}"
        pt = at(mu, m, tol_rank)
        kern = pt.kernel
        orb = pt.K_svd.range
        # direct sum: dimensions add up and the union spans
        r = SVD(np.hstack([kern.basis, orb.basis]), tol_rank).rank
        ok = (kern.dim + orb.dim == A.vec_dim and r == A.vec_dim)
        rep.add_bool("splitting", "T_m M = orbit-tangent + ker mu (direct)",
                     ok, tag)
        rep.add_bool("ker-chi", "ker chi = isotropy algebra",
                     pt.nondegenerate, tag)
        rchi = pt.chi_svd.range
        rmu = pt.M_svd.range
        rep.add_bool("range-chi", "range chi = range mu",
                     rchi.dim == rmu.dim and rmu.contains_subspace(rchi, 1e-6),
                     tag)
        g = A.random_group(rng)
        v = A.random_tangent(rng, m)
        rep.add("equivariance", "pullback of mu matches coadjoint twist",
                equivariance_residual(mu, g, pt, v), tol_eq, tag)
    return rep


def pair_check(alpha: DualForm, chi_field, samples=20, rng=None,
               singular_points=None, tol_eq=1e-6,
               tol_rank=TOL_RANK) -> VerificationReport:
    """Classify (alpha, chi) as a partial connection pair by sampling.

    ``chi_field`` maps a point to an inertia-factor matrix.  Checks that
    mu := chi . alpha is equivariant and nondegenerate at random points and
    continuous along rays into each supplied singular point.
    """
    A = alpha.action
    rng = np.random.default_rng(0) if rng is None else rng
    rep = VerificationReport(scenario="pair_check")
    mu = DualForm(A, lambda m: np.asarray(chi_field(m)) @ alpha.matrix(m),
                  name="chi*alpha")
    for i in range(samples):
        m = A.random_point(rng)
        g = A.random_group(rng)
        v = A.random_tangent(rng, m)
        rep.add("mu-equivariance", "chi.alpha transforms like a dual form",
                equivariance_residual(mu, g, m, v), tol_eq, f"sample {i}")
        try:
            inertia_factor(mu, m, tol_rank)
            rep.add_bool("nondegenerate", "ker chi_mu = isotropy", True,
                         f"sample {i}")
        except DegeneracyError:
            rep.add_bool("nondegenerate", "ker chi_mu = isotropy", False,
                         f"sample {i}")
    for p in (singular_points if singular_points is not None else []):
        p = np.asarray(p, dtype=float)
        M0 = mu.matrix(p)
        worst = 0.0
        for k in range(8):
            ray = A.random_tangent(rng, p)
            n = norm(ray)
            if n == 0:
                continue
            ray = ray / n
            vals = [mu.matrix(A.retract(p, ray, eps))
                    for eps in (1e-2, 1e-3, 1e-4)]
            # Cauchy behaviour along the ray plus agreement with the value at p
            worst = max(worst,
                        norm(vals[1] - vals[2]),
                        norm(vals[2] - M0) / 10.0)
        rep.add("smooth-at-singular",
                "chi.alpha continuous along rays into the singular point",
                worst, 1e-2, "singular probe")
    return rep
