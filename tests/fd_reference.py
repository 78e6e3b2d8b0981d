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
  larger step of a nested difference.

Each difference is :func:`central`, the 2-point central difference at the
step it is given (``STEP``, or ``NESTED_STEP`` for d chi), and not the
library's 4-point ``curve_derivative``.  Its error is c h^2, so halving h
divides it by four: the law that the exact-derivative tests check.
"""

import numpy as np

from gconn.connections import PointEval, at

STEP = 1e-5
NESTED_STEP = 1e-4


def central(f, h):
    """Derivative at t = 0 of the curve t -> f(t), a float array, by the
    2-point central difference (f(h) - f(-h)) / 2h."""
    fp = np.asarray(f(h), dtype=float)
    fm = np.asarray(f(-h), dtype=float)
    return (fp - fm) / (2.0 * h)


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
        return central(lambda t: W(action.retract(p, a, t)), STEP)

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
        return central(value, STEP)

    term = deriv_along(u, V) - deriv_along(v, U)
    if _is_group_manifold(A):
        return term + pt.M @ A.manifold_alg.bracket(u, v)
    return term - pt.M @ field_bracket(A, U, V, m)


def d_chi(mu, m, w):
    """Central difference of the inertia factor along w."""
    A = mu.action
    m = m.m if isinstance(m, PointEval) else m
    return central(lambda t: at(mu, A.retract(m, w, t)).chi, NESTED_STEP)

