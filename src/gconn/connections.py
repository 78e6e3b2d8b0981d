"""Dual connection forms, inertia factors, the gamma map and projections.

A *dual form* assigns to each manifold point a linear map from tangent
coordinates to dual-algebra coordinates; its *inertia factor* at m is the
composition with the generator map, a square matrix chi(m) whose kernel must
equal the isotropy algebra.  Solving chi(m) xi = nu and pushing xi back
through the generators gives the gamma map, whose composition with the form
is the equivariant projection onto the orbit tangent.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .actions import Action, get_action
from .groups import axpy3, dot3, hat, hat3, triple
from .linalg import SVD, Subspace, curve_derivative, norm, once
from .report import VerificationReport


# How far ker chi(m) may stray from the isotropy algebra: a point's kernel
# test, its certificate and the adapted form's test all read it.
_KERNEL_TOL = 1e-6


class DegeneracyError(ValueError):
    """The kernel of the inertia factor does not match the isotropy algebra."""


class DualForm:
    """A dual-algebra-valued one-form, represented extensionally.  The
    algebra-valued forms of :func:`alpha_so3r3` and :func:`clean_alpha`
    (values in algebra coordinates) use the same class.

    Its functions receive only the point evaluation ``pt``
    (:class:`PointEval`): ``matrix_fn(pt)`` is the (alg_dim x vec_dim)
    matrix of mu_m in tangent coordinates and the dual basis, read from
    ``pt.m``, ``pt.K`` and ``pt.of(base)``, another form's evaluation at
    the point; ``dmatrix(pt, w)`` is its derivative along
    t -> retract(m, w, t), read from ``pt.dK(w)`` and the derivatives of
    ``pt.of(base)``.  ``matrix(m)`` and ``dmatrix(m, w)`` are views of one
    evaluation at m.  A form built without a derivative raises
    :class:`TypeError` when differentiated; :func:`fd_oracle` gives the
    same form with a finite-difference ``dmatrix``.
    """

    def __init__(self, action: Action, matrix_fn, name="mu", dmatrix=None):
        self.action = action
        self._matrix_fn = matrix_fn
        self.name = name
        self._dmatrix_fn = dmatrix

    def dmatrix(self, m, w):
        return PointEval(self, m).dM(w)

    def matrix(self, m):
        return PointEval(self, m).M

    def __call__(self, m, v):
        return self.matrix(m) @ np.asarray(v, dtype=float).ravel()


def simple_mechanical_mu(action: Action) -> DualForm:
    """mu(v) . xi = <v, xi_M(m)> in the action's invariant metric.

    Its derivative is dK^T G: every action's metric G is constant.
    """
    def matrix(pt):
        return pt.K.T @ action.tangent_metric(pt.m)

    def dmatrix(pt, w):
        return pt.dK(w).T @ action.tangent_metric(pt.m)

    return DualForm(action, matrix, name="mu_mech", dmatrix=dmatrix)


def fd_oracle(mu: DualForm) -> DualForm:
    """The same form whose ``dmatrix`` differences its matrix along the
    retraction by ``linalg.curve_derivative``: the oracle that the exact
    derivatives are checked against."""
    A = mu.action

    def dmatrix(pt, w):
        return curve_derivative(lambda t: mu.matrix(A.retract(pt.m, w, t)))

    return DualForm(A, mu._matrix_fn, name=mu.name, dmatrix=dmatrix)


def mu_q(q) -> DualForm:
    """The family mu(v) = q(|m|^2) m x v of dual forms on rotating R^3.

    ``q`` must be smooth and strictly positive on the sampled positive axis.
    The form carries its derivative along m + t w,
    2 q'(|m|^2) <m, w> hat(m) + q(|m|^2) hat(w), in which q' is the one
    part not known in closed form: ``linalg.curve_derivative`` of ``q`` at
    |m|^2, so ``q`` must be defined two ``FD_STEP`` below |m|^2 too.  Both
    compute on triples (the helpers of :mod:`gconn.groups`) and return 3x3
    float arrays.
    """
    action = get_action("so3-on-r3")
    for t in np.linspace(0.3, 9.0, 30):
        if not q(t) > 0:
            raise ValueError(f"mu_q: q({t}) = {q(t)} is not positive")
    def matrix(pt):
        x, y, z = triple(pt.m)
        c = q(x * x + y * y + z * z)
        return hat3((c * x, c * y, c * z))

    def dmatrix(pt, w):
        m, w = triple(pt.m), triple(w)
        s = dot3(m, m)
        dq = curve_derivative(lambda t: q(s + t))
        qs = q(s)
        # hat is linear
        return hat3(axpy3(2.0 * dq * dot3(m, w), m,
                          (qs * w[0], qs * w[1], qs * w[2])))

    return DualForm(action, matrix, name="mu_q", dmatrix=dmatrix)


def _read_only(a):
    a = np.asarray(a, dtype=float).view()
    a.setflags(write=False)
    return a


class PointEval:
    """The geometry of a dual form at one point, evaluated once.

    Built from the form and the point alone, it holds the generator matrix
    ``K`` (the action's ``gen_matrix(m)``), the form ``M = mu_m`` and the
    inertia factor ``chi = M K`` at m, and at most one :class:`SVD` of each,
    each taken on first use.  The SVD of chi feeds the kernel test (ker chi
    against the isotropy algebra ker K), the projection ``P``, the solve
    behind the gamma map and the scale of its consistency test
    (|chi|_2 = s[0]); ``kernel`` is ker mu_m.  The kernel test is decided
    from chi's SVD and the norms of M, K and K V (V the kernel basis of
    chi) where they certify it (:meth:`_kernel_certified`), so a regular
    point takes one SVD; elsewhere, and for ``dual_form_verify``'s orbit
    tangent, the SVD of K is taken.

    Every value is taken once and kept read-only.  :meth:`kept` is the one
    memo: it serves ``K``, ``dK(w)``, the action's ``dgen_matrix``,
    ``dM(w)``, the form's ``dmatrix``, and ``dchi(w)``, once per distinct
    direction w, ``of(base)``, the evaluation of another form at the same
    point (it shares ``K`` and the ``dK(w)``), and the values a form keeps
    per point under a key of its own.  Nothing outlives the object, which
    callers build with :func:`at`.
    """

    def __init__(self, mu: DualForm, m, _at=None):
        self.mu = mu
        self.m = m
        self._memo = {}  # by direction, form (of) or a form's own key
        self._at = {} if _at is None else _at  # K, dK: shared with of(base)

    def kept(self, key, make, memo=None):
        """``make()``, taken once at this point and kept under ``key`` (in
        this evaluation's memo unless ``memo`` is given); an array is kept
        read-only."""
        memo = self._memo if memo is None else memo
        value = memo.get(key)
        if value is None:
            value = make()
            if isinstance(value, np.ndarray):
                value = _read_only(value)
            memo[key] = value
        return value

    @once
    def K(self):
        return self.kept("K", lambda: self.mu.action.gen_matrix(self.m),
                         self._at)

    @once
    def M(self):
        return _read_only(self.mu._matrix_fn(self))

    @once
    def chi(self):
        return _read_only(self.M @ self.K)

    def of(self, base: DualForm) -> PointEval:
        """The evaluation of the form ``base`` at this point."""
        return self.kept(base, lambda: PointEval(base, self.m, self._at))

    def dK(self, w):
        """The derivative of K along w, the action's ``dgen_matrix`` at m."""
        w = np.asarray(w, dtype=float).ravel()
        return self.kept(w.tobytes(), lambda: self.mu.action.dgen_matrix(
            self.m, w, self.K), self._at)

    def dM(self, w):
        """The derivative of mu_m along w, the form's ``dmatrix`` at m."""
        if self.mu._dmatrix_fn is None:
            name = self.mu.name
            raise TypeError(f"the form {name} has no dmatrix; "
                            f"fd_oracle({name}) differences its matrix")
        w = np.asarray(w, dtype=float).ravel()
        return self.kept(w.tobytes(), lambda: self.mu._dmatrix_fn(self, w))

    def dchi(self, w):
        """The derivative of chi along w, dM K + M dK."""
        w = np.asarray(w, dtype=float).ravel()
        return self.kept(("dchi", w.tobytes()),
                         lambda: self.dM(w) @ self.K + self.M @ self.dK(w))

    @once
    def chi_svd(self) -> SVD:
        return SVD(self.chi)

    @once
    def M_svd(self) -> SVD:
        return SVD(self.M)

    @once
    def K_svd(self) -> SVD:
        return SVD(self.K)

    @property
    def kernel(self) -> Subspace:
        """ker mu_m, the horizontal space of the form at m."""
        return self.M_svd.kernel

    def _kernel_certified(self):
        """Whether ker chi(m) = ker K follows from chi's SVD alone.

        With r = rank chi, s its singular values and V its kernel basis
        (d = n - r columns): sigma_r(K) >= s_r / |M|_2, sigma_{r+1}(K) <=
        |K V|_2, and each unit v in ker chi lies within 2 |K V|_2 /
        sigma_r(K) of ker K.  So K has rank r at the cutoff ``TOL_RANK``
        and ker chi lies in ker K to ``_KERNEL_TOL`` when s_r > 2 TOL_RANK
        |M| |K|, |K V| <= TOL_RANK |K| / (2 sqrt(n)) and 2 |K V| |M| / s_r
        <= ``_KERNEL_TOL`` / 2 (Frobenius norms); each bound holds with a
        factor 2 to spare, which keeps the answer clear of the roundoff in
        the decompositions.  False at r = 0.
        """
        svd = self.chi_svd
        r = svd.rank
        if r == 0:
            return False
        s_r = float(svd.s[r - 1])
        nM, nK = norm(self.M), norm(self.K)
        if not s_r > 2.0 * linalg.TOL_RANK * nM * nK:
            return False
        V = svd.kernel.basis
        KV = norm(self.K @ V)
        return (KV <= 0.5 * linalg.TOL_RANK * nK / math.sqrt(V.shape[0])
                and 2.0 * KV * nM / s_r <= 0.5 * _KERNEL_TOL)

    @once
    def _degeneracy(self):
        """Why ker chi(m) differs from the isotropy algebra ker K, or None.

        Decided from chi's SVD where :meth:`_kernel_certified` holds, else
        by the SVD of K: ker chi must have the dimension of ker K and lie in
        it to ``_KERNEL_TOL``."""
        if self._kernel_certified():
            return None
        kern = self.chi_svd.kernel
        iso = self.K_svd.kernel
        if kern.dim == iso.dim and iso.contains_subspace(kern, _KERNEL_TOL):
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

    @once
    def P(self):
        """Matrix of the projection gamma o mu onto the orbit tangent, after
        the kernel test and the test range mu in range chi, at
        ``linalg.TOL_CONSIST`` relative to |mu_m|."""
        chi = self.inertia()
        X = self.chi_svd.pinv @ self.M
        resid = norm(chi @ X - self.M)
        if resid > linalg.TOL_CONSIST * max(norm(self.M), 1e-300):
            raise DegeneracyError(
                f"range mu exceeds range chi (residual {resid:.2e}, "
                f"cond {self.chi_svd.cond:.3e}, gap {self.chi_svd.gap:.3e})")
        return self.K @ X

    def solve(self, nu):
        """Minimum-norm xi with chi(m) xi = nu, after the kernel test."""
        self.inertia()
        return self.chi_svd.solve(nu)

    def gamma(self, nu):
        """Solve chi(m) xi = nu and return the generator xi_M(m)."""
        return self.K @ self.solve(nu)


def at(mu: DualForm, m) -> PointEval:
    """The point evaluation of mu at m; ``m`` itself if it already is one."""
    if isinstance(m, PointEval):
        if m.mu is not mu:
            raise ValueError(f"point evaluation of {m.mu.name} passed for "
                             f"{mu.name}")
        return m
    return PointEval(mu, m)


def inertia_factor(mu: DualForm, m):
    """chi(m) = mu composed with the generator map, as an alg x alg matrix.

    Raises :class:`DegeneracyError` if ker chi(m) differs from the isotropy
    algebra (then mu is not a dual connection form at m).
    """
    return at(mu, m).inertia()


def gamma_apply(mu: DualForm, m, nu):
    """Solve chi(m) xi = nu and return the generator xi_M(m).

    Well defined because ker chi = ker of the generator map; inconsistency
    (nu outside range chi) raises and is exactly the docility-failure
    signal.
    """
    return at(mu, m).gamma(nu)


def projection_P_mu(mu: DualForm, m):
    """Matrix of the projection gamma o mu of T_m M onto the orbit tangent."""
    return at(mu, m).P


def alpha_so3r3(f) -> DualForm:
    """Algebra-valued form |m|^-2 m x v + f(m) <m, v> m on rotating R^3.

    Discontinuous at the origin (where it is set to zero) for every choice
    of f; its projection is the orthogonal projection onto the orbit
    tangent away from 0.
    """
    action = get_action("so3-on-r3")
    def matrix(pt):
        m = np.asarray(pt.m, dtype=float).ravel()
        n2 = float(m @ m)
        if n2 == 0.0:
            return np.zeros((3, 3))
        return hat(m) / n2 + f(m) * np.outer(m, m)
    return DualForm(action, matrix, name="alpha_so3r3")


def clean_alpha(alpha: DualForm) -> DualForm:
    """Compose alpha with its own projection, removing isotropy components."""
    def matrix(pt):
        A = pt.of(alpha).M
        return A @ pt.K @ A
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


def dual_form_verify(mu: DualForm, samples, rng) -> VerificationReport:
    """Check the defining properties of a dual connection form at
    ``samples`` points drawn from ``rng``.

    At each sampled point: the tangent space splits as orbit-tangent plus
    kernel; ker chi equals the isotropy algebra; range chi equals range mu;
    and the pullback equivariance identity holds at a random group element,
    to 1e-8.
    """
    A = mu.action
    rep = VerificationReport(scenario=f"dual_form_verify[{mu.name}]")
    for i in range(samples):
        m = A.random_point(rng)
        tag = f"sample {i}"
        pt = at(mu, m)
        kern = pt.kernel
        orb = pt.K_svd.range
        # direct sum: dimensions add up and the union spans
        r = SVD(np.hstack([kern.basis, orb.basis])).rank
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
                equivariance_residual(mu, g, pt, v), 1e-8, tag)
    return rep


def pair_check(alpha: DualForm, inertia: DualForm, samples, rng,
               singular_points) -> VerificationReport:
    """Classify (alpha, chi) as a partial connection pair at ``samples``
    points drawn from ``rng``, chi the inertia factor of the form
    ``inertia``: mu := chi . alpha, read from the evaluations of both forms
    at mu's point, must be equivariant and nondegenerate at random points
    and continuous along rays into each of the ``singular_points``.
    """
    A = alpha.action
    rep = VerificationReport(scenario="pair_check")
    mu = DualForm(A, lambda pt: pt.of(inertia).chi @ pt.of(alpha).M,
                  name="chi*alpha")
    for i in range(samples):
        pt = at(mu, A.random_point(rng))
        g = A.random_group(rng)
        v = A.random_tangent(rng, pt.m)
        rep.add("mu-equivariance", "chi.alpha transforms like a dual form",
                equivariance_residual(mu, g, pt, v), 1e-6, f"sample {i}")
        rep.add_bool("nondegenerate", "ker chi_mu = isotropy",
                     pt.nondegenerate, f"sample {i}")
    for p in singular_points:
        p = np.asarray(p, dtype=float)
        M0 = mu.matrix(p)
        gaps = []
        for _ in range(8):
            ray = A.random_tangent(rng, p)
            n = norm(ray)
            if n == 0:
                continue
            near, nearer = (mu.matrix(A.retract(p, ray / n, eps))
                            for eps in (1e-3, 1e-4))
            # Cauchy behaviour along the ray plus agreement with the value at p
            gaps += [norm(near - nearer), norm(nearer - M0) / 10.0]
        rep.add_worst("smooth-at-singular",
                      "chi.alpha continuous along rays into the singular "
                      "point", gaps, 1e-2, "singular probe")
    return rep
