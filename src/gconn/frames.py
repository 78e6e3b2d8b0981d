"""Moving frames on the unit tangent bundle of the sphere and partial
moving frames built from unit vector fields on the sphere.

The frame of an orthonormal pair (m, u) is the rotation with columns
(m, u, m x u); composing with a unit tangent field Y gives a group-valued
map on the sphere that is equivariant only up to isotropy.  The frame, the
slip map and their right-trivialized derivatives ``dnat_rho``,
``dnat_phi`` and ``dnat_slip`` are closed forms, given the derivative of
the seed field, which every seed field carries (the eastward field as
``eastward_field.derivative``).

These per-point kernels compute on triples of Python floats (the helpers
of :mod:`gconn.groups`) and use numpy only at their inputs and outputs:
they take and return float arrays, and so do the seed field and its
derivative.  Differences (:func:`gconn.linalg.curve_derivative`) remain
only in the oracles, ``dnat_rho_fd`` and ``_trivialized_fd`` (which the
CLI's ``frame-d-exact-vs-fd`` record applies to phi and to the slip map),
which keep their numpy code.
"""

from __future__ import annotations

import math

import numpy as np

from .actions import get_action, So3OnUS2
from .groups import (axpy3, cross3, dot3, exp_so3, matvec3, rmatvec3, rows3,
                     triple, vee)
from .linalg import curve_derivative, norm
from .report import VerificationReport

# Y = z x m / |z x m| is refused where |z x m| < sin(1e-2): the polar caps
# of angular radius 1e-2
_POLAR_CAP = math.sin(1e-2)


class DomainError(ValueError):
    """A point lies outside the domain of a frame or seed field."""


def _frame(m, u):
    """The rotation with columns (m, u, m x u) of two triples, which must be
    an orthonormal pair."""
    if (abs(math.sqrt(dot3(m, m)) - 1.0) > 1e-10
            or abs(math.sqrt(dot3(u, u)) - 1.0) > 1e-10
            or abs(dot3(m, u)) > 1e-10):
        raise DomainError("rho_us2: (m, u) is not an orthonormal pair")
    return np.array([m, u, cross3(m, u)]).T


def rho_us2(p):
    """Left moving frame on the unit tangent bundle: columns (m, u, m x u)."""
    m, u = So3OnUS2.split(p)
    return _frame(triple(m), triple(u))


def _dnat_frame(m, u, dm, du):
    """m x dm + <u x du, m> m of four triples, as an array: the
    right-trivialized derivative of the frame of (m, u) along (dm, du)."""
    return np.array(axpy3(dot3(cross3(u, du), m), m, cross3(m, dm)))


def dnat_rho(p, v):
    """Right-trivialized derivative of the frame along the tangent (dm, du).

    Closed form m x dm + <u x du, m> m, returned as so(3) coordinates.
    """
    m, u = So3OnUS2.split(p)
    dm, du = So3OnUS2.split(v)
    return _dnat_frame(triple(m), triple(u), triple(dm), triple(du))


def _trivialized_fd(curve, R):
    """Right-trivialized derivative at t = 0 of a rotation-valued curve
    through R, by differencing: the skew part of R'(0) R^T, as a vector."""
    J = curve_derivative(curve) @ R.T
    return vee(0.5 * (J - J.T))


def dnat_rho_fd(p, v):
    """Finite-difference oracle for :func:`dnat_rho` through the retraction."""
    act = get_action("so3-on-us2")
    return _trivialized_fd(lambda t: rho_us2(act.retract(p, v, t)),
                           rho_us2(p))


def _z_cross(x):
    """z x x of a triple, for the pole z = (0, 0, 1)."""
    return -x[1], x[0], 0.0


def _eastward(m):
    """e = z x m and |e| of a triple m, outside the polar caps of angular
    radius 1e-2."""
    e = _z_cross(m)
    n = math.sqrt(dot3(e, e))
    if n < _POLAR_CAP:
        raise DomainError("eastward_field: too close to a pole")
    return e, n


def eastward_field(m):
    """Unit field pointing along increasing longitude, excluding the polar
    caps of angular radius 1e-2."""
    e, n = _eastward(triple(m))
    return np.array((e[0] / n, e[1] / n, e[2] / n))


def _eastward_derivative(m, w):
    """Derivative of :func:`eastward_field` at m along w: with Y = e/|e|,
    (I - Y Y^T)(z x w)/|e|."""
    e, n = _eastward(triple(m))
    y = (e[0] / n, e[1] / n, e[2] / n)
    dz = _z_cross(triple(w))
    k = dot3(y, dz)
    return np.array(((dz[0] - k * y[0]) / n, (dz[1] - k * y[1]) / n,
                     (dz[2] - k * y[2]) / n))


eastward_field.derivative = _eastward_derivative


def _tangent(m, v):
    """The projection v - <v, m> m of a triple onto the tangent plane of the
    sphere at m, as ``So3OnS2.project_tangent``."""
    return axpy3(-dot3(v, m), m, v)


class PartialMovingFrame:
    """Group-valued map phi = frame(m, Y(m)) for a unit tangent field Y.

    Equivariant only modulo the isotropy of m; the discrepancy is carried by
    the slip map phi_g(m) = phi(g m) phi(m)^(-1), which is a rotation about
    the moved point composed with g.  The derivatives ``dnat_phi`` and
    ``dnat_slip`` are closed forms in the derivative of Y, which they read
    from ``Y.derivative(m, w)``; a field without one is refused.  Points,
    tangents and rotations are taken as arrays and computed on as triples.
    """

    def __init__(self, Y):
        self.Y = Y
        self.dY = Y.derivative
        self.action = get_action("so3-on-s2")

    def _field(self, m, mt):
        """Y(m) as a triple, after the unit tangent test; ``m`` is the point
        as an array (what Y takes) and ``mt`` as a triple."""
        y = triple(self.Y(m))
        if abs(math.sqrt(dot3(y, y)) - 1.0) > 1e-9 or abs(dot3(y, mt)) > 1e-9:
            raise DomainError("seed field is not unit tangent here")
        return y

    def phi(self, m):
        m = np.asarray(m, dtype=float).ravel()
        mt = triple(m)
        return _frame(mt, self._field(m, mt))

    def dnat_phi(self, m, dm):
        """Closed form m x dm + <Y x (dY dm), m> m for the trivialized
        derivative: the frame's (:func:`dnat_rho`) along the section
        m -> (m, Y(m))."""
        m = np.asarray(m, dtype=float).ravel()
        mt = triple(m)
        d = _tangent(mt, triple(dm))
        y = self._field(m, mt)
        return _dnat_frame(mt, y, d, triple(self.dY(m, np.array(d))))

    def _slip_frame(self, G, m, mt):
        """Y(m), the moved point g m as an array and w = g^(-1) Y(g m), for
        the rotation g given as rows G."""
        y = self._field(m, mt)
        gmt = matvec3(G, mt)
        gm = np.array(gmt)
        return y, gm, rmatvec3(G, self._field(gm, gmt))

    def slip_angle(self, g, m):
        """Signed angle from Y(m) to g^(-1) Y(g m) around the axis m."""
        m = np.asarray(m, dtype=float).ravel()
        mt = triple(m)
        y, _, w = self._slip_frame(rows3(g), m, mt)
        return math.atan2(dot3(w, cross3(mt, y)), dot3(w, y))

    def slip(self, g, m):
        """Slip map phi_g(m) = g exp(theta(g, m) hat(m)) in closed form."""
        g = np.asarray(g, dtype=float)
        m = np.asarray(m, dtype=float).ravel()
        return g @ exp_so3(self.slip_angle(g, m) * m)

    def dnat_slip(self, g, m, v):
        """Right-trivialized derivative of m -> phi_g(m) along v, in closed
        form g (theta' m + sin(theta) v + (1 - cos(theta)) m x v).  The
        slip angle is theta = atan2(a, b) with a = <w, m x Y(m)> and
        b = <w, Y(m)>; its derivative theta' reads dY at m and at g m."""
        G = rows3(g)
        m = np.asarray(m, dtype=float).ravel()
        mt = triple(m)
        v = _tangent(mt, triple(v))
        y, gm, w = self._slip_frame(G, m, mt)
        dy = triple(self.dY(m, np.array(v)))
        dw = rmatvec3(G, triple(self.dY(gm, np.array(matvec3(G, v)))))
        my = cross3(mt, y)
        a, b = dot3(w, my), dot3(w, y)
        da = dot3(dw, my) + dot3(w, axpy3(1.0, cross3(v, y), cross3(mt, dy)))
        db = dot3(dw, y) + dot3(w, dy)
        theta = math.atan2(a, b)
        dtheta = (b * da - a * db) / (a * a + b * b)
        x = (dtheta * mt[0], dtheta * mt[1], dtheta * mt[2])
        x = axpy3(1.0 - math.cos(theta), cross3(mt, v),
                  axpy3(math.sin(theta), v, x))
        return np.array(matvec3(G, x))


def pmf_from_field(Y) -> PartialMovingFrame:
    """Partial moving frame from a unit tangent field on the sphere."""
    return PartialMovingFrame(Y)


def cross_section(pmf: PartialMovingFrame, m):
    """The orbit invariant phi(m)^(-1) . m (constant on connected domains
    of a transitive action)."""
    m = np.asarray(m, dtype=float).ravel()
    return pmf.phi(m).T @ m


def beta_equivariance_check(pmf: PartialMovingFrame, samples,
                            rng) -> VerificationReport:
    """Verification of the slip-relative equivariance identities at
    ``samples`` draws from ``rng``.

    Checks, at random (g, m, v): the slip property phi_g(m).m = g.m; the
    trivialized product rule d_phi(g v) = Ad_{phi_g} d_phi(v) + d_slip(v)
    and the generator-difference identity relating dPhi_g, dPhi_{slip} and
    the slip derivative, both to 1e-5; and that d_phi recovers algebra
    elements modulo isotropy on generators.
    """
    A = pmf.action
    rep = VerificationReport(scenario="beta_equivariance_check")
    for i in range(samples):
        m, g = sample_off_poles_pair(A, rng)
        v = A.random_tangent(rng, m)
        tag = f"sample {i}"
        beta = pmf.slip(g, m)
        gm = A.apply(g, m)
        rep.add("slip-property", "phi_g(m) . m = g . m",
                norm(beta @ m - gm), 1e-9, tag)
        rep.add("slip-consistency", "phi(g m) = phi_g(m) phi(m)",
                norm(pmf.phi(gm) - beta @ pmf.phi(m)), 1e-9, tag)
        # product rule for the trivialized derivative
        lhs = pmf.dnat_phi(gm, np.asarray(g, dtype=float) @ v)
        dbeta = pmf.dnat_slip(g, m, v)
        rhs = beta @ pmf.dnat_phi(m, v) + dbeta
        rep.add("product-rule",
                "d_phi(dPhi_g v) = Ad_slip d_phi(v) + d_slip(v)",
                norm(lhs - rhs), 1e-5, tag)
        # generator-difference identity
        lhs2 = np.asarray(g, dtype=float) @ v - beta @ v
        rhs2 = A.gen_matrix(gm) @ dbeta
        rep.add("generator-difference",
                "dPhi_g - dPhi_slip = generators of d_slip",
                norm(lhs2 - rhs2), 1e-5, tag)
        # d_phi on generators is the identity modulo isotropy
        xi = rng.standard_normal(3)
        K = A.gen_matrix(m)
        d = pmf.dnat_phi(m, K @ xi)
        rep.add("modulo-isotropy",
                "d_phi(xi_M(m)) = xi up to the isotropy of m",
                norm(K @ (d - xi)), 1e-6, tag)
    return rep


_OFF_POLE_TRIES = 1000
_OFF_POLE_Z = np.cos(0.15)  # |z| below it: polar distance more than 0.15


def _sample_off_poles(rng):
    """Uniform unit vector at polar distance more than 0.15 from both poles,
    by rejection."""
    for _ in range(_OFF_POLE_TRIES):
        m = rng.standard_normal(3)
        m /= norm(m)
        if abs(m[2]) < _OFF_POLE_Z:
            return m
    raise ValueError(f"_sample_off_poles: no point off the poles in "
                     f"{_OFF_POLE_TRIES} tries")


def sample_off_poles_pair(action, rng):
    """A point m from :func:`_sample_off_poles` and a rotation g of
    ``action`` (SO(3) on the sphere), redrawn until g m is off the poles
    too, so that a seed field undefined on the polar caps is defined at m
    and at g m."""
    m = _sample_off_poles(rng)
    for _ in range(_OFF_POLE_TRIES):
        g = action.random_group(rng)
        if abs(g[2] @ m) < _OFF_POLE_Z:
            return m, g
    raise ValueError(f"sample_off_poles_pair: no rotation keeps m off the "
                     f"poles in {_OFF_POLE_TRIES} tries")


def latitude_curve(theta0):
    """Unit-speed parametrization of the latitude circle at polar angle
    theta0 and its velocity, as two functions of t."""
    s = np.sin(theta0)

    def point(t):
        return np.array([s * np.cos(t / s), s * np.sin(t / s),
                         np.cos(theta0)])

    def velocity(t):
        return np.array([-np.sin(t / s), np.cos(t / s), 0.0])

    return point, velocity
