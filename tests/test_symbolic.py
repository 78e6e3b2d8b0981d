"""Closed forms derived with sympy, a second opinion that takes no finite
difference: the inertia factor of s1s1-on-so3 and the restricted
pseudo-inverse iota = I / (1 + r) that ``abel_involutivity`` relies on."""

import numpy as np
import pytest

from gconn.actions import get_action
from gconn.connections import at, simple_mechanical_mu

sp = pytest.importorskip("sympy")


def _hat(v):
    return sp.Matrix([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def _vee(X):
    return sp.Matrix([X[2, 1], X[0, 2], X[1, 0]])


def _rotation(q):
    """The rotation of the quaternion q, which need not be a unit."""
    a, b, c, d = q
    n2 = a**2 + b**2 + c**2 + d**2
    return sp.Matrix([
        [a**2 + b**2 - c**2 - d**2, 2 * (b*c - a*d), 2 * (b*d + a*c)],
        [2 * (b*c + a*d), a**2 - b**2 + c**2 - d**2, 2 * (c*d - a*b)],
        [2 * (b*d - a*c), 2 * (c*d + a*b), a**2 - b**2 - c**2 + d**2],
    ]) / n2


def test_s1s1_inertia_and_restricted_pseudo_inverse():
    A = get_action("s1s1-on-so3")
    assert np.array_equal(A.tangent_metric(np.eye(3)), np.eye(3))
    q = sp.symbols("a b c d", real=True)
    g = _rotation(q)
    assert sp.simplify(g.T * g - sp.eye(3)) == sp.zeros(3, 3)
    sigma = sp.Matrix([0, 0, 1])
    S = _hat(sigma)
    # (h, k) . g = h g k^-1 with h, k rotations about sigma: the velocities
    # S g and -g S at t = 0, right-trivialized by g^-1 = g^T
    K = sp.Matrix.hstack(_vee(sp.simplify(S * g * g.T)),
                         _vee(sp.simplify(-g * S * g.T)))
    # the mechanical form in the identity metric: mu = K^T, chi = K^T K
    chi = sp.simplify(K.T * K)
    r = sp.simplify((sigma.T * g * sigma)[0, 0])
    assert sp.simplify(chi - sp.Matrix([[1, -r], [-r, 1]])) == sp.zeros(2, 2)
    rs = sp.Symbol("r", real=True)
    chi_r = sp.Matrix([[1, -rs], [-rs, 1]])
    assert chi_r.eigenvals() == {1 - rs: 1, 1 + rs: 1}
    # pi = chi(I) / 2, the projection with kernel the isotropy at I
    pi = chi_r.subs(rs, 1) / 2
    assert sp.simplify(pi * chi_r / (1 + rs) - pi) == sp.zeros(2, 2)

    g_num = sp.lambdify(q, g, "numpy")
    chi_num = sp.lambdify(q, chi, "numpy")
    mu = simple_mechanical_mu(A)
    pi_num = np.array(pi, dtype=float)
    rng = np.random.default_rng(17)
    for _ in range(20):
        qs = rng.standard_normal(4)
        gs = np.array(g_num(*qs), dtype=float)
        chi_at = at(mu, gs).chi
        assert np.abs(chi_at - np.array(chi_num(*qs), dtype=float)).max() \
            <= 1e-14
        r_at = float(gs[2, 2])
        assert np.abs(np.linalg.eigvalsh(chi_at)
                      - np.sort([1 - r_at, 1 + r_at])).max() <= 1e-14
        iota = np.eye(2) / (1.0 + r_at)
        assert np.abs(pi_num @ iota @ chi_at - pi_num).max() <= 1e-14
