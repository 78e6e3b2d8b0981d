"""Exterior/covariant derivatives of dual forms, docility and curvature.

Derivatives are taken along the action's retraction.  On group manifolds
one-forms are differentiated along right-invariant extensions of frozen
tangent coordinates, with the standard bracket correction for
right-invariant fields; on embedded manifolds the frozen coordinates are
extended by pointwise tangent projection.  Both choices are legitimate
because the exterior derivative of a one-form is tensorial.

A form that carries ``dmatrix`` (see :class:`gconn.connections.DualForm`)
is differentiated exactly: d mu, d chi and the derivative of a horizontal
field are then linear algebra at the one point, using the action's
``dgen_matrix`` for the generators.  Every other derivative is a central
difference with the step in force (see :func:`gconn.linalg.numerics`),
or ``FD_STEP_NESTED`` in :func:`_d_chi`; :func:`gconn.connections.fd_oracle`
strips a form's derivative to get the finite-difference values as an
independent check.
"""

from __future__ import annotations

import numpy as np

from .actions import Action
from .connections import DualForm, PointEval, at
from .linalg import SVD, curve_derivative, norm
from .report import VerificationReport

# Nested (second-derivative) steps are larger to limit noise amplification.
FD_STEP_NESTED = 1e-4


def _is_group_manifold(action: Action):
    return action.manifold_alg is not None


def _exact(mu: DualForm):
    """Whether mu and its action's generators have exact derivatives."""
    return mu.dmatrix is not None and mu.action.dgen_matrix is not None


def _extend_field(action: Action, m, c):
    """Frozen-coordinate extension of the tangent coordinate vector c."""
    if _is_group_manifold(action):
        return lambda p: np.asarray(c, dtype=float).ravel()
    return lambda p: action.project_tangent(p, c)


def d_oneform(mu: DualForm, m, u, v):
    """Exterior derivative d mu at m on tangent vectors u, v.

    Uses the three-term formula X_u(mu(X_v)) - X_v(mu(X_u)) - mu([X_u, X_v])
    with frozen-coordinate extensions; on group manifolds the extensions are
    right-invariant and [X_u, X_v] = -X_{[u,v]}.  With the form's exact
    derivative dM this is dM(u) v - dM(v) u (+ M [u, v] on a group); the
    terms of a projected extension cancel for tangent u, v.  ``m`` may be a
    point evaluation of mu (see :func:`gconn.connections.at`).
    """
    A = mu.action
    pt = at(mu, m)
    m = pt.m
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if mu.dmatrix is not None:
        d = mu.dmatrix(m, u, pt.K) @ v - mu.dmatrix(m, v, pt.K) @ u
        if _is_group_manifold(A):
            return d + pt.M @ A.manifold_alg.bracket(u, v)
        return d
    U = _extend_field(A, m, u)
    V = _extend_field(A, m, v)

    def deriv_along(a, W):
        def value(t):
            p = A.retract(m, a, t)
            return mu(p, W(p))
        return curve_derivative(value)

    term = deriv_along(u, V) - deriv_along(v, U)
    if _is_group_manifold(A):
        return term + pt.M @ A.manifold_alg.bracket(u, v)
    return term - pt.M @ field_bracket(A, U, V, m)


def field_bracket(action: Action, X, Y, m):
    """Lie bracket of two tangent-coordinate vector fields at m.

    On group manifolds the right-trivialized bracket picks up the algebra
    correction -[X(m), Y(m)]; on embedded manifolds it is the antisymmetrized
    directional derivative, projected back into the tangent space.  When
    both fields carry a ``derivative(m, w)`` (as exact horizontal fields
    do) the directional derivatives are read from it; otherwise they are
    central differences along the retraction.  ``m`` may be a point
    evaluation; the fields are then evaluated on it, and the retraction
    starts from its point.
    """
    p = m.m if isinstance(m, PointEval) else m
    Xm, Ym = X(m), Y(m)
    dX = getattr(X, "derivative", None)
    dY = getattr(Y, "derivative", None)
    if dX is not None and dY is not None:
        b = dY(m, Xm) - dX(m, Ym)
    else:
        def D(a, W):
            return curve_derivative(lambda t: W(action.retract(p, a, t)))

        b = D(Xm, Y) - D(Ym, X)
    if _is_group_manifold(action):
        return b - action.manifold_alg.bracket(Xm, Ym)
    return action.project_tangent(p, b)


def covariant_derivative(mu: DualForm, m, u, v):
    """d mu evaluated on the horizontal projections of u and v."""
    pt = at(mu, m)
    P = pt.P
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    return d_oneform(mu, pt, u - P @ u, v - P @ v)


def docile(mu: DualForm, m, probes=None, *, tol=1e-7):
    """Range test: is every covariant-derivative value inside range(mu_m)?

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
            if not rng_mu.contains(val, tol):
                return False, (probes[i], probes[j], val)
    return True, None


def curvature(mu: DualForm, m, u, v, *, tol_consist=1e-6):
    """Curvature value gamma(m)(covariant derivative of mu at m on u, v).

    The result is a tangent vector in the orbit tangent space.  A docility
    failure surfaces as an :class:`InconsistentSystemError` carrying the
    unresolvable residual.
    """
    pt = at(mu, m)
    return pt.gamma(covariant_derivative(mu, pt, u, v),
                    tol_consist=tol_consist)


def tame(mu: DualForm) -> DualForm:
    """Compose mu with its own raised inertia factor: chi . sharp . mu.

    Requires chi(m) symmetric wherever evaluated (checked); the result has
    the same kernel as mu pointwise and the same curvature wherever both
    are docile.  Exactly differentiable by the product rule where mu is.
    """
    A = mu.action

    def matrix(m, K):
        M = mu.matrix(m, K)
        chi = M @ K
        if norm(chi - chi.T) > 1e-8 * max(1.0, norm(chi)):
            raise ValueError("tame: inertia factor is not symmetric here")
        return chi @ A.algebra.gram_inv @ M

    dmatrix = None
    if _exact(mu):
        def dmatrix(m, w, K):
            # d chi = dM K + M dK and d(chi # M) = d chi # M + chi # dM
            M = mu.matrix(m, K)
            dM = mu.dmatrix(m, w, K)
            dchi = dM @ K + M @ A.dgen_matrix(m, w, K)
            sharp = A.algebra.gram_inv
            return dchi @ sharp @ M + (M @ K) @ sharp @ dM

    return DualForm(A, matrix, name=mu.name + "_tamed", uses_generators=True,
                    dmatrix=dmatrix)


# ---------------------------------------------------------------------------
# closed-form curvature for two-sided torus actions on a group

def curvature_leftright_closed(action, g, xi, omega):
    """Curvature of the tamed two-sided-torus form, by exact linear algebra.

    For the action (h, k) . g = h g k^(-1) of H x H on G the ingredients of
    the curvature are all explicit: project the right-trivialized inputs
    onto the metric complement of h + Ad_g h, bracket them in the ambient
    algebra, pair the result against the generators to obtain the covariant
    derivative, and solve the (always consistent) tamed inertia system.
    Returns the right-trivialized coordinates of the curvature vector.
    """
    alg = action.manifold_alg
    act = action.algebra
    G = alg.gram
    H = act.h                                # ambient coords of h basis
    K = action.gen_matrix(g)                 # [H, -Ad_g H]
    # ambient coords of Ad_g h; C order keeps the products below bit-equal
    # to those of alg.Ad_matrix(g) @ H on hxh-on-su3
    AdH = np.ascontiguousarray(-K[:, H.shape[1]:])
    S = np.hstack([H, AdH])                  # spans h + Ad_g h

    # metric-orthogonal projection of xi and omega onto (h + Ad_g h)^perp
    W = np.column_stack([np.asarray(xi, dtype=float).ravel(),
                         np.asarray(omega, dtype=float).ravel()])
    StG = S.T @ G
    xi_h, om_h = (W - S @ (SVD(StG @ S).pinv @ (StG @ W))).T
    b = alg.bracket(xi_h, om_h)

    # covariant derivative on h x h; Ad_g is isometric, so the second half
    # pairs h with Ad_g^-1 b as <Ad_g h, b>
    nab = np.concatenate([H.T @ G @ b, AdH.T @ G @ b])

    chi = K.T @ G @ K
    sharp = act.gram_inv
    zeta = SVD(chi @ sharp @ chi).solve(chi @ sharp @ nab, tol_consist=1e-6)
    return K @ zeta


# ---------------------------------------------------------------------------
# structure equation and related identities

def _d_chi(mu: DualForm, m, w, adaptor=None):
    """Directional derivative of the inertia factor along w.

    With an adaptor phi, of the adapted inertia factor chi . Ad_phi.  Exact,
    dM K + M dK (times Ad_phi, plus chi Ad_phi ad_{dnatL(m, w)}), where the
    form, its action and the adaptor know their derivatives, and otherwise
    by differencing with ``FD_STEP_NESTED``; ``m`` may be a point evaluation.
    """
    A = mu.action
    if _exact(mu) and (adaptor is None or adaptor.dnatL is not None):
        pt = at(mu, m)
        w = np.asarray(w, dtype=float).ravel()
        dchi = (mu.dmatrix(pt.m, w, pt.K) @ pt.K
                + pt.M @ A.dgen_matrix(pt.m, w, pt.K))
        if adaptor is None:
            return dchi
        Ad = A.Ad_group(adaptor.phi(pt.m))
        return dchi @ Ad + pt.chi @ Ad @ A.algebra.ad_matrix(
            adaptor.dnatL(pt.m, w))
    m = m.m if isinstance(m, PointEval) else m

    def chi(t):
        pt = at(mu, A.retract(m, w, t))
        if adaptor is None:
            return pt.chi
        return pt.chi @ A.Ad_group(adaptor.phi(pt.m))

    return curve_derivative(chi, FD_STEP_NESTED)


def structure_residual(mu: DualForm, m, u, v):
    """Residual of the structure equation at one sample.

    With xi, eta solving chi xi = mu(u), chi eta = mu(v):

        Omega(u, v) + [xi, eta]_M  =  gamma( d mu(u, v)
                                             - d chi(u) eta + d chi(v) xi )

    Both sides are tangent vectors; the Euclidean norm of the difference in
    tangent coordinates is returned.
    """
    A = mu.action
    pt = at(mu, m)
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    xi = pt.solve(pt.M @ u, tol_consist=1e-6)
    eta = pt.solve(pt.M @ v, tol_consist=1e-6)

    lhs = curvature(mu, pt, u, v) + pt.K @ A.algebra.bracket(xi, eta)

    dmu = d_oneform(mu, pt, u, v)
    corr = _d_chi(mu, pt, u) @ eta - _d_chi(mu, pt, v) @ xi
    rhs = pt.gamma(dmu - corr, tol_consist=1e-4)
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
    dchi = _d_chi(mu, pt, v) @ eta
    return norm(lhs + coad + dchi)


def good_chi_residual(mu: DualForm, m, u, zeta):
    """|d chi(u) zeta| for u in ker mu_m and zeta in the isotropy algebra."""
    return norm(_d_chi(mu, m, u) @ np.asarray(zeta, dtype=float).ravel())


# ---------------------------------------------------------------------------
# involutivity at regular points

def horizontal_field(mu: DualForm, c):
    """The frozen coordinate vector c, projected horizontal at each point.

    The field takes a point or a point evaluation of mu.  On a group
    manifold, where mu and the generators have exact derivatives, it
    carries its own, ``X.derivative(p, w)``: with P = K chi+ M,
    dX(w) = -[(1 - P) dK chi+ M + K chi+ dM (1 - P)] c, which holds where
    the rank of chi is locally constant and reuses the point's SVD of chi.
    """
    A = mu.action

    def X(p):
        pt = at(mu, p)
        w = A.project_tangent(pt.m, c)
        return w - pt.P @ w

    if _exact(mu) and _is_group_manifold(A):
        c = np.asarray(c, dtype=float).ravel()

        def derivative(p, w):
            pt = at(mu, p)
            pinv = pt.chi_svd.pinv
            xi = pinv @ (pt.M @ c)              # P c = K xi
            dK_xi = A.dgen_matrix(pt.m, w, pt.K) @ xi
            dM_X = mu.dmatrix(pt.m, w, pt.K) @ (c - pt.K @ xi)
            return -(dK_xi - pt.P @ dK_xi + pt.K @ (pinv @ dM_X))

        X.derivative = derivative
    return X


def involutivity_check(mu: DualForm, m, pairs=None,
                       tol=1e-5) -> VerificationReport:
    """At a regular point: curvature measures the bracket's vertical part.

    For horizontal fields X, Y checks that mu annihilates
    Omega(X,Y) + [X,Y] and that Omega(X,Y) = (P_Gamma - 1)[X,Y].
    """
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
        om = curvature(mu, pt, X(pt), Y(pt))
        scale = max(1.0, norm(br))
        rep.add("horizontal-bracket",
                "mu annihilates Omega(X,Y) + [X,Y]",
                norm(pt.M @ (om + br)) / scale, tol, f"pair {k}")
        rep.add("bracket-vertical-part",
                "Omega(X,Y) = (P_Gamma - 1)[X,Y]",
                norm(om + pt.P @ br) / scale, tol, f"pair {k}")
    return rep
