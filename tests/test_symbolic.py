"""Closed forms derived with sympy, a second opinion that takes no finite
difference: the inertia factor of s1s1-on-so3 and the restricted
pseudo-inverse iota = I / (1 + r) that ``abel_involutivity`` relies on, the
derivative of the eastward field and the latitude identity of its partial
moving frame."""

import numpy as np
import pytest

from gconn.actions import get_action
from gconn.connections import at, simple_mechanical_mu
from gconn.frames import (_sample_off_poles, eastward_field, latitude_curve,
                          pmf_from_field)

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


def _eastward(q):
    """Y = z x q / |z x q|, for a point q of the sphere."""
    return sp.Matrix([-q[1], q[0], 0]) / sp.sqrt(q[0]**2 + q[1]**2)


def test_eastward_field_derivative():
    x = sp.Matrix(sp.symbols("m0:3", real=True))
    w = sp.Matrix(sp.symbols("w0:3", real=True))
    t = sp.Symbol("t", real=True)
    # d/dt Y(retract(m, w, t)) at t = 0, along the retraction of S^2
    p = (x + t * w) / sp.sqrt((x + t * w).dot(x + t * w))
    dY = sp.diff(_eastward(p), t).subs(t, 0)
    # equals (I - Y Y^T)(z x w) / |z x m| for unit m and tangent w:
    # m = (sin th cos ph, sin th sin ph, cos th), w = a e_th + b e_ph,
    # with s = sin th > 0 off the poles
    th, ph, a, b = sp.symbols("theta phi a b", real=True)
    on_sphere = {x[0]: sp.sin(th) * sp.cos(ph),
                 x[1]: sp.sin(th) * sp.sin(ph), x[2]: sp.cos(th)}
    tangent = (a * sp.Matrix([sp.cos(th) * sp.cos(ph),
                              sp.cos(th) * sp.sin(ph), -sp.sin(th)])
               + b * sp.Matrix([-sp.sin(ph), sp.cos(ph), 0]))
    on_sphere.update({w[i]: tangent[i] for i in range(3)})
    Y = _eastward(x)
    dz = sp.Matrix([-w[1], w[0], 0])
    closed = (dz - Y * Y.dot(dz)) / sp.sqrt(x[0]**2 + x[1]**2)
    gap = (dY - closed).subs(on_sphere).subs(sp.sin(th),
                                             sp.Symbol("s", positive=True))
    assert [sp.simplify(e) for e in gap] == [0, 0, 0]

    dY_num = sp.lambdify((list(x), list(w)), dY, "numpy")
    S2 = get_action("so3-on-s2")
    rng = np.random.default_rng(18)
    for _ in range(50):
        m = _sample_off_poles(rng)
        v = S2.random_tangent(rng, m)
        ref = np.array(dY_num(m, v), dtype=float).ravel()
        assert np.abs(eastward_field.derivative(m, v) - ref).max() <= 1e-12


def test_latitude_identity_of_the_eastward_frame():
    # the latitude at polar angle th0 with s = sin th0, c = cos th0 > 0,
    # run at unit speed; Phi = [m, Y, m x Y] and its trivialized
    # derivative is the vee of Phi' Phi^T
    t = sp.Symbol("t", real=True)
    s = sp.Symbol("s", positive=True)
    c = sp.sqrt(1 - s**2)
    m = sp.Matrix([s * sp.cos(t / s), s * sp.sin(t / s), c])
    Y = _eastward(m)
    Phi = sp.Matrix.hstack(m, Y, m.cross(Y))
    J = sp.simplify(sp.diff(Phi, t) * Phi.T)
    assert sp.simplify(J + J.T) == sp.zeros(3, 3)
    d = _vee(J)
    pred = m.cross(sp.diff(m, t)) + (c / s) * m  # m x m' + cot(th0) m
    assert [sp.simplify(e) for e in d - pred] == [0, 0, 0]

    d_num = sp.lambdify((s, t), d, "numpy")
    pmf = pmf_from_field(eastward_field)
    rng = np.random.default_rng(19)
    for _ in range(50):
        theta0 = rng.uniform(0.2, 1.5)
        tt = rng.uniform(0.0, 6.0)
        point, velocity = latitude_curve(theta0)
        ref = np.array(d_num(np.sin(theta0), tt), dtype=float).ravel()
        got = pmf.dnat_phi(point(tt), velocity(tt))
        assert np.abs(got - ref).max() <= 1e-12
