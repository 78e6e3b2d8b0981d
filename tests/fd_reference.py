"""Finite-difference reference derivatives that share no code with the
library's derivative path.

The library differentiates every form through its ``dmatrix`` and every
field through its ``derivative``, and ``fd_oracle`` only swaps in a
differenced ``dmatrix``: a sign error in ``d_oneform`` or ``field_bracket``
would show on both sides of an exact-vs-oracle comparison.  These
references difference the values themselves, along the retraction:

* :func:`d_oneform`: the three-term formula
  X_u(mu(X_v)) - X_v(mu(X_u)) - mu([X_u, X_v]) on frozen-coordinate
  extensions (right-invariant on a group, where [X_u, X_v] = -X_{[u,v]});
* :func:`field_bracket`: antisymmetrized central differences of the field
  values;
* :func:`d_chi`: a central difference of the inertia factor, with the
  larger step of a nested difference;
* :func:`trivialized_4pt`: the right-trivialized derivative of a
  rotation-valued curve by the 4-point central difference.
"""

import numpy as np

from gconn.connections import PointEval, at
from gconn.linalg import curve_derivative

NESTED_STEP = 1e-4


def _is_group_manifold(action):
    return action.manifold_alg is not None


def _extend_field(action, c):
    """Frozen-coordinate extension of the tangent coordinate vector c."""
    if _is_group_manifold(action):
        return lambda p: np.asarray(c, dtype=float).ravel()
    return lambda p: action.project_tangent(p, c)


def field_bracket(action, X, Y, m):
    """[X, Y] at m from central differences of the field values; ``m`` may
    be a point evaluation, on which the fields are then evaluated."""
    p = m.m if isinstance(m, PointEval) else m
    Xm, Ym = X(m), Y(m)

    def D(a, W):
        return curve_derivative(lambda t: W(action.retract(p, a, t)))

    b = D(Xm, Y) - D(Ym, X)
    if _is_group_manifold(action):
        return b - action.manifold_alg.bracket(Xm, Ym)
    return action.project_tangent(p, b)


def d_oneform(mu, m, u, v):
    """d mu at m on u, v by the three-term formula with differenced
    terms."""
    A = mu.action
    pt = at(mu, m)
    m = pt.m
    U, V = _extend_field(A, u), _extend_field(A, v)

    def deriv_along(a, W):
        def value(t):
            p = A.retract(m, a, t)
            return mu(p, W(p))
        return curve_derivative(value)

    term = deriv_along(u, V) - deriv_along(v, U)
    if _is_group_manifold(A):
        return term + pt.M @ A.manifold_alg.bracket(u, v)
    return term - pt.M @ field_bracket(A, U, V, m)


def d_chi(mu, m, w):
    """Central difference of the inertia factor along w."""
    A = mu.action
    m = m.m if isinstance(m, PointEval) else m
    return curve_derivative(lambda t: at(mu, A.retract(m, w, t)).chi,
                            NESTED_STEP)


def trivialized_4pt(curve, h):
    """Right-trivialized derivative at t = 0 of a rotation-valued curve R,
    the skew part of R'(0) R(0)^T as a vector, with R'(0) by the 4-point
    central difference (8 (R(h) - R(-h)) - (R(2h) - R(-2h))) / (12 h),
    whose truncation error is O(h^4)."""
    dR = (8.0 * (curve(h) - curve(-h))
          - (curve(2.0 * h) - curve(-2.0 * h))) / (12.0 * h)
    J = dR @ curve(0.0).T
    return 0.5 * np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0],
                           J[1, 0] - J[0, 1]])
