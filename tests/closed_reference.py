"""The closed-form curvature of the two-sided torus actions as it was
computed before it took one SVD of R K: through the normal equations.

:func:`gconn.curvature.curvature_leftright_closed` now projects and solves
with one decomposition of the generators.  This copy keeps the earlier
route, two SVDs of normal matrices (S^T G S for the projection,
chi # chi for the tamed solve), so the two can be compared where both are
accurate: at well-conditioned points the normal equations lose only
cond(chi)^2 * eps, and they state the tamed system literally.
"""

import numpy as np

from gconn.linalg import SVD, InconsistentSystemError, norm


def curvature_leftright_normal(action, g, xi, omega, sharp=None):
    """The tamed two-sided-torus curvature by the normal equations:
    project xi and omega with the pseudo-inverse of S^T G S, S = [H, Ad_g H],
    and solve chi # chi zeta = chi # nab (consistency to 1e-6).  ``sharp``
    (default: the acting algebra's inverse Gram matrix) weights the tamed
    system."""
    alg = action.manifold_alg
    act = action.algebra
    G = alg.gram
    H = act.h
    K = action.gen_matrix(g)                 # [H, -Ad_g H]
    AdH = np.ascontiguousarray(-K[:, H.shape[1]:])
    S = np.hstack([H, AdH])

    W = np.column_stack([np.asarray(xi, dtype=float).ravel(),
                         np.asarray(omega, dtype=float).ravel()])
    StG = S.T @ G
    xi_h, om_h = (W - S @ (SVD(StG @ S).pinv @ (StG @ W))).T
    b = alg.bracket(xi_h, om_h)
    nab = np.concatenate([H.T @ G @ b, AdH.T @ G @ b])

    chi = K.T @ G @ K
    sharp = act.gram_inv if sharp is None else sharp
    return K @ _consistent_solve(chi @ sharp @ chi, chi @ sharp @ nab)


def _consistent_solve(A, b):
    """``SVD(A).solve(b)`` with this reference's own consistency tolerance,
    1e-6, relative with an absolute floor, in place of the package's."""
    svd = SVD(A)
    x = svd.pinv @ b
    resid = norm(A @ x - b)
    if resid > 1e-6 * max(svd.s[0] * norm(x), norm(b), 1.0):
        raise InconsistentSystemError("closed_reference: b not in range(A)",
                                      resid, svd.cond, svd.gap)
    return x
