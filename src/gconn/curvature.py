"""Exterior/covariant derivatives of dual forms, docility and curvature.

Derivatives are taken along the action's retraction.  On group manifolds
one-forms are differentiated along right-invariant extensions of frozen
tangent coordinates, with the standard bracket correction for
right-invariant fields; on embedded manifolds the frozen coordinates are
extended by pointwise tangent projection.  Both choices are legitimate
because the exterior derivative of a one-form is tensorial.

Every derivative here reads the point evaluation's ``dM(w)`` (the form's
``dmatrix``, see :class:`gconn.connections.DualForm`), ``dK(w)`` (the
action's ``dgen_matrix``) and ``dchi(w)``, taken once per direction, the
action's ``dproject_tangent`` and a field's ``derivative(m, w)``, so
d mu, d chi, brackets and horizontal-field derivatives are linear algebra
at the one point.
:func:`gconn.connections.fd_oracle` gives a form whose ``dmatrix`` is a
central difference, checked through the same code.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .actions import Action
from .connections import DualForm, PointEval, at
from .linalg import SVD, InconsistentSystemError, norm
from .report import VerificationReport


def d_oneform(mu: DualForm, m, u, v):
    """Exterior derivative d mu at m on tangent vectors u, v.

    The three-term formula X_u(mu(X_v)) - X_v(mu(X_u)) - mu([X_u, X_v]) on
    frozen-coordinate extensions, with the form's derivative dM: on a group
    the extensions are right-invariant, [X_u, X_v] = -X_{[u,v]}, and it is
    dM(u) v - dM(v) u + M [u, v]; on an embedded manifold the terms of the
    projected extensions cancel for tangent u, v, leaving
    dM(u) v - dM(v) u.  ``m`` may be a point evaluation of mu (see
    :func:`gconn.connections.at`).
    """
    A = mu.action
    pt = at(mu, m)
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    d = pt.dM(u) @ v - pt.dM(v) @ u
    if A.manifold_alg is not None:
        return d + pt.M @ A.manifold_alg.bracket(u, v)
    return d


def field_bracket(action: Action, X, Y, m):
    """Lie bracket of two tangent-coordinate vector fields at m.

    Both fields carry their directional derivative ``derivative(m, w)``.
    On group manifolds the right-trivialized bracket picks up the algebra
    correction -[X(m), Y(m)]; on embedded manifolds it is the antisymmetrized
    directional derivative, projected back into the tangent space.  ``m``
    may be a point evaluation; the fields are then evaluated on it.
    """
    p = m.m if isinstance(m, PointEval) else m
    Xm, Ym = X(m), Y(m)
    b = Y.derivative(m, Xm) - X.derivative(m, Ym)
    if action.manifold_alg is not None:
        return b - action.manifold_alg.bracket(Xm, Ym)
    return action.project_tangent(p, b)


def covariant_derivative(mu: DualForm, m, u, v):
    """d mu evaluated on the horizontal projections of u and v."""
    pt = at(mu, m)
    P = pt.P
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    return d_oneform(mu, pt, u - P @ u, v - P @ v)


def docile(mu: DualForm, m, probes=None):
    """Range test: is every covariant-derivative value inside range(mu_m),
    to 1e-7?

    Returns ``(flag, witness)`` where the witness is a violating
    ``(u, v, value)`` triple, or None.
    """
    A = mu.action
    pt = at(mu, m)
    if probes is None:
        probes = [A.project_tangent(pt.m, e) for e in np.eye(A.vec_dim)]
    rng_mu = pt.M_svd.range
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            val = covariant_derivative(mu, pt, probes[i], probes[j])
            if not rng_mu.contains(val, 1e-7):
                return False, (probes[i], probes[j], val)
    return True, None


def curvature(mu: DualForm, m, u, v):
    """Curvature value gamma(m)(covariant derivative of mu at m on u, v).

    The result is a tangent vector in the orbit tangent space.  A docility
    failure, a covariant derivative outside range chi(m) at
    ``linalg.TOL_CONSIST``, surfaces as an :class:`InconsistentSystemError`
    carrying the unresolvable residual.
    """
    pt = at(mu, m)
    return pt.gamma(covariant_derivative(mu, pt, u, v))


def tame(mu: DualForm) -> DualForm:
    """Compose mu with its own raised inertia factor: chi . sharp . mu.

    Requires chi(m) symmetric wherever evaluated (checked at
    ``linalg.TOL_CONSIST`` relative to max(1, |chi|), else
    :class:`InconsistentSystemError`); the result has the same kernel as
    mu pointwise and the same curvature wherever both are docile.  Both
    read mu's evaluation at the point, b = pt.of(mu): the matrix is
    b.chi sharp b.M, and its derivative, by the product rule,
    b.dchi(w) sharp b.M + b.chi sharp b.dM(w).
    """
    sharp = mu.action.algebra.gram_inv

    def matrix(pt):
        b = pt.of(mu)
        chi = b.chi
        resid = norm(chi - chi.T)
        if resid > linalg.TOL_CONSIST * max(1.0, norm(chi)):
            raise InconsistentSystemError(
                "tame: inertia factor is not symmetric here", resid,
                b.chi_svd.cond, b.chi_svd.gap)
        return chi @ sharp @ b.M

    def dmatrix(pt, w):
        b = pt.of(mu)
        return b.dchi(w) @ sharp @ b.M + b.chi @ sharp @ b.dM(w)

    return DualForm(mu.action, matrix, name=mu.name + "_tamed",
                    dmatrix=dmatrix)


# ---------------------------------------------------------------------------
# closed-form curvature for two-sided torus actions on a group

def curvature_leftright_closed(action, g, xi, omega):
    """Right-trivialized curvature of the tamed two-sided-torus form.

    For (h, k) . g = h g k^(-1) on G, K = [H, -Ad_g H] spans h + Ad_g h, and
    one SVD R K = U diag(s) V^T (gram G = R^T R, ``gram_factor``; U_r, s_r, V_r
    at the cutoff TOL_RANK) serves three steps.  The inputs are projected onto
    the metric complement of range K by I - K (K^T G K)^+ K^T G =
    I - R^-1 U_r U_r^T R, as A (A^T A)^+ A^T is the orthogonal projector
    U_r U_r^T onto range A, A = R K.  Their bracket b gives the covariant
    derivative on h x h, nab = [H^T G b; (Ad_g H)^T G b] (Ad_g is isometric).
    The tamed system chi # chi zeta = chi # nab, chi = K^T G K, is the normal
    equations of min |#^(1/2) (chi zeta - nab)|: with c = s_r^2 V_r^T zeta it
    is (V_r^T # V_r) c = V_r^T # nab, and K zeta = R^-1 U_r (c / s_r).  chi and
    chi # chi are never formed, so roundoff grows with cond(R K), not its
    fourth power, and the r x r system is invertible for every nab: there is
    no consistency test.  Non-finite input raises ``ValueError``.
    """
    alg = action.manifold_alg
    R, R_inv = alg.gram_factor
    K = action.gen_matrix(g)
    W = np.column_stack([np.asarray(xi, dtype=float).ravel(),
                         np.asarray(omega, dtype=float).ravel()])
    if not np.isfinite(W).all():
        raise ValueError("curvature_leftright_closed: non-finite input")
    svd = SVD(R @ K)
    U, s, V = svd.U[:, :svd.rank], svd.s[:svd.rank], svd.Vt[:svd.rank].T
    xi_h, om_h = (W - R_inv @ (U @ (U.T @ (R @ W)))).T
    nab = K.T @ (alg.gram @ alg.bracket(xi_h, om_h))
    nab[K.shape[1] // 2:] *= -1.0
    sharp_V = action.algebra.gram_inv @ V
    c = linalg.solve(V.T @ sharp_V, sharp_V.T @ nab)
    return R_inv @ (U @ (c / s))


# ---------------------------------------------------------------------------
# structure equation and related identities

def structure_residual(mu: DualForm, m, u, v):
    """Residual of the structure equation at one sample.

    With xi, eta solving chi xi = mu(u), chi eta = mu(v):

        Omega(u, v) + [xi, eta]_M  =  gamma( d mu(u, v)
                                             - d chi(u) eta + d chi(v) xi )

    Returns the norm of the difference of the two tangent vectors; every
    solve in it tests consistency at ``linalg.TOL_CONSIST``.
    """
    A = mu.action
    pt = at(mu, m)
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    xi = pt.solve(pt.M @ u)
    eta = pt.solve(pt.M @ v)

    lhs = curvature(mu, pt, u, v) + pt.K @ A.algebra.bracket(xi, eta)

    dmu = d_oneform(mu, pt, u, v)
    corr = pt.dchi(u) @ eta - pt.dchi(v) @ xi
    rhs = pt.gamma(dmu - corr)
    return norm(lhs - rhs)


def interior_product_residual(mu: DualForm, m, eta, v):
    """Residual of the generator-contraction identity for d mu.

    Contracting d mu with the generator of eta equals minus the coadjoint
    twist of mu by eta minus the eta-component of d chi:

        d mu(eta_M(m), v) + ad*_eta(mu(v)) + (d chi(v)) eta  =  0.
    """
    A = mu.action
    pt = at(mu, m)
    eta = np.asarray(eta, dtype=float).ravel()
    lhs = d_oneform(mu, pt, pt.K @ eta, v)
    coad = (A.algebra.ad_matrix(eta).T
            @ (pt.M @ np.asarray(v, dtype=float).ravel()))
    dchi = pt.dchi(v) @ eta
    return norm(lhs + coad + dchi)


def good_chi_residual(mu: DualForm, m, u, zeta):
    """|d chi(u) zeta| for u in ker mu_m and zeta in the isotropy algebra."""
    return norm(at(mu, m).dchi(u) @ np.asarray(zeta, dtype=float).ravel())


# ---------------------------------------------------------------------------
# involutivity at regular points

def horizontal_field(mu: DualForm, c):
    """The frozen coordinate vector c, projected horizontal at each point.

    The field takes a point or a point evaluation of mu, and carries its
    derivative ``X.derivative(p, w)``: with z = project_tangent(p, c),
    P = K chi+ M and xi = chi+ M z (so X = z - K xi),
    dX(w) = (1 - P)(dz - dK xi) - K chi+ dM (z - K xi), which holds where
    the rank of chi is locally constant and reuses the point's SVD of chi
    and its ``dM(w)`` and ``dK(w)``.
    """
    A = mu.action

    def X(p):
        pt = at(mu, p)
        w = A.project_tangent(pt.m, c)
        return w - pt.P @ w

    def derivative(p, w):
        pt = at(mu, p)
        pinv = pt.chi_svd.pinv
        z = A.project_tangent(pt.m, c)
        xi = pinv @ (pt.M @ z)
        a = A.dproject_tangent(pt.m, w, c) - pt.dK(w) @ xi
        dM_X = pt.dM(w) @ (z - pt.K @ xi)
        return a - pt.P @ a - pt.K @ (pinv @ dM_X)

    X.derivative = derivative
    return X


def involutivity_check(mu: DualForm, m, pairs=None) -> VerificationReport:
    """At a regular point: curvature measures the bracket's vertical part.

    For horizontal fields X, Y checks that mu annihilates Omega(X,Y) + [X,Y]
    and that Omega(X,Y) = (P_Gamma - 1)[X,Y], to 1e-5 x max(1, |[X,Y]|).
    """
    tol = 1e-5
    A = mu.action
    rep = VerificationReport(scenario="involutivity_check")
    if pairs is None:
        E = np.eye(A.vec_dim)
        pairs = [(E[i], E[j]) for i in range(A.vec_dim)
                 for j in range(i + 1, A.vec_dim)]
    pt = at(mu, m)
    for k, (ci, cj) in enumerate(pairs):
        X = horizontal_field(mu, ci)
        Y = horizontal_field(mu, cj)
        br = field_bracket(A, X, Y, pt)
        # X and Y are horizontal already: Omega(X, Y) = gamma(d mu(X, Y))
        om = pt.gamma(d_oneform(mu, pt, X(pt), Y(pt)))
        scale = max(1.0, norm(br))
        rep.add("horizontal-bracket",
                "mu annihilates Omega(X,Y) + [X,Y]",
                norm(pt.M @ (om + br)) / scale, tol, f"pair {k}")
        rep.add("bracket-vertical-part",
                "Omega(X,Y) = (P_Gamma - 1)[X,Y]",
                norm(om + pt.P @ br) / scale, tol, f"pair {k}")
    return rep
