"""Moving frames on the unit tangent bundle of the sphere and partial
moving frames built from unit vector fields on the sphere.

The frame of an orthonormal pair (m, u) is the rotation with columns
(m, u, m x u); composing with a unit tangent field Y gives a group-valued
map on the sphere that is equivariant only up to isotropy.  The frame, the
slip map and their right-trivialized derivatives ``dnat_rho``,
``dnat_phi`` and ``dnat_slip`` are closed forms, given the derivative of
the seed field, which every seed field carries (the eastward field as
``eastward_field.derivative``).  Central differences with the fixed step
``FRAME_STEP`` remain only in the oracles, ``dnat_rho_fd`` and
``_trivialized_fd`` (which the CLI's ``frame-d-exact-vs-fd`` record
applies to phi and to the slip map).
"""

from __future__ import annotations

import math

import numpy as np

from .actions import get_action, So3OnUS2
from .groups import cross, exp_so3, vee
from .linalg import curve_derivative, norm
from .report import VerificationReport

FRAME_STEP = 1e-6


class DomainError(ValueError):
    """A point lies outside the domain of a frame or seed field."""


def rho_us2(p):
    """Left moving frame on the unit tangent bundle: columns (m, u, m x u)."""
    m, u = So3OnUS2.split(p)
    if (abs(norm(m) - 1.0) > 1e-10
            or abs(norm(u) - 1.0) > 1e-10
            or abs(m @ u) > 1e-10):
        raise DomainError("rho_us2: (m, u) is not an orthonormal pair")
    return np.array([m, u, cross(m, u)]).T


def dnat_rho(p, v):
    """Right-trivialized derivative of the frame along the tangent (dm, du).

    Closed form m x dm + <u x du, m> m, returned as so(3) coordinates.
    """
    m, u = So3OnUS2.split(p)
    dm, du = So3OnUS2.split(v)
    return cross(m, dm) + (cross(u, du) @ m) * m


def _trivialized_fd(curve, R):
    """Right-trivialized derivative at t = 0 of a rotation-valued curve
    through R, by differencing: the skew part of R'(0) R^T, as a vector."""
    J = curve_derivative(curve, FRAME_STEP) @ R.T
    return vee(0.5 * (J - J.T))


def dnat_rho_fd(p, v):
    """Finite-difference oracle for :func:`dnat_rho` through the retraction."""
    act = get_action("so3-on-us2")
    return _trivialized_fd(lambda t: rho_us2(act.retract(p, v, t)),
                           rho_us2(p))


def _z_cross(x):
    """z x x for the pole z = (0, 0, 1)."""
    x = np.asarray(x, dtype=float).ravel()
    return np.array([-x[1], x[0], 0.0])


def _eastward(m):
    """e = z x m and |e|, outside the polar caps of angular radius 1e-2."""
    e = _z_cross(m)
    n = norm(e)
    if n < np.sin(1e-2):
        raise DomainError("eastward_field: too close to a pole")
    return e, n


def eastward_field(m):
    """Unit field pointing along increasing longitude, excluding the polar
    caps of angular radius 1e-2."""
    e, n = _eastward(m)
    return e / n


def _eastward_derivative(m, w):
    """Derivative of :func:`eastward_field` at m along w: with Y = e/|e|,
    (I - Y Y^T)(z x w)/|e|."""
    e, n = _eastward(m)
    y = e / n
    dz = _z_cross(w)
    return (dz - (y @ dz) * y) / n


eastward_field.derivative = _eastward_derivative


class PartialMovingFrame:
    """Group-valued map phi = frame(m, Y(m)) for a unit tangent field Y.

    Equivariant only modulo the isotropy of m; the discrepancy is carried by
    the slip map phi_g(m) = phi(g m) phi(m)^(-1), which is a rotation about
    the moved point composed with g.  The derivatives ``dnat_phi`` and
    ``dnat_slip`` are closed forms in the derivative of Y, which they read
    from ``Y.derivative(m, w)``; a field without one is refused.
    """

    def __init__(self, Y):
        self.Y = Y
        self.dY = Y.derivative
        self.action = get_action("so3-on-s2")

    def _field(self, m):
        m = np.asarray(m, dtype=float).ravel()
        y = np.asarray(self.Y(m), dtype=float).ravel()
        if abs(norm(y) - 1.0) > 1e-9 or abs(y @ m) > 1e-9:
            raise DomainError("seed field is not unit tangent here")
        return y

    def phi(self, m):
        m = np.asarray(m, dtype=float).ravel()
        return rho_us2(np.concatenate([m, self._field(m)]))

    def dnat_phi(self, m, dm):
        """Closed form m x dm + <Y x (dY dm), m> m for the trivialized
        derivative."""
        m = np.asarray(m, dtype=float).ravel()
        dm = self.action.project_tangent(m, dm)
        y = self._field(m)
        return cross(m, dm) + (cross(y, self.dY(m, dm)) @ m) * m

    def _slip_frame(self, g, m):
        """Y(m), the moved point g m and w = g^(-1) Y(g m)."""
        y = self._field(m)
        gm = self.action.apply(g, m)
        return y, gm, np.asarray(g, dtype=float).T @ self._field(gm)

    def slip_angle(self, g, m):
        """Signed angle from Y(m) to g^(-1) Y(g m) around the axis m."""
        m = np.asarray(m, dtype=float).ravel()
        y, _, w = self._slip_frame(g, m)
        return float(np.arctan2(w @ cross(m, y), w @ y))

    def slip(self, g, m):
        """Slip map phi_g(m) = g exp(theta(g, m) hat(m)) in closed form."""
        m = np.asarray(m, dtype=float).ravel()
        return np.asarray(g, dtype=float) @ exp_so3(self.slip_angle(g, m) * m)

    def dnat_slip(self, g, m, v):
        """Right-trivialized derivative of m -> phi_g(m) along v, in closed
        form g (theta' m + sin(theta) v + (1 - cos(theta)) m x v).  The
        slip angle is theta = atan2(a, b) with a = <w, m x Y(m)> and
        b = <w, Y(m)>; its derivative theta' reads dY at m and at g m."""
        g = np.asarray(g, dtype=float)
        m = np.asarray(m, dtype=float).ravel()
        v = self.action.project_tangent(m, v)
        y, gm, w = self._slip_frame(g, m)
        dy = self.dY(m, v)
        dw = g.T @ self.dY(gm, g @ v)
        my = cross(m, y)
        a, b = w @ my, w @ y
        da = dw @ my + w @ (cross(v, y) + cross(m, dy))
        db = dw @ y + w @ dy
        theta = math.atan2(a, b)
        dtheta = (b * da - a * db) / (a * a + b * b)
        return g @ (dtheta * m + math.sin(theta) * v
                    + (1.0 - math.cos(theta)) * cross(m, v))


def pmf_from_field(Y) -> PartialMovingFrame:
    """Partial moving frame from a unit tangent field on the sphere."""
    return PartialMovingFrame(Y)


def cross_section(pmf: PartialMovingFrame, m):
    """The orbit invariant phi(m)^(-1) . m (constant on connected domains
    of a transitive action)."""
    m = np.asarray(m, dtype=float).ravel()
    return pmf.phi(m).T @ m


def beta_equivariance_check(pmf: PartialMovingFrame, samples=50, rng=None,
                            tol=1e-5) -> VerificationReport:
    """Sampled verification of the slip-relative equivariance identities.

    Checks, at random (g, m, v): the slip property phi_g(m).m = g.m; the
    trivialized product rule d_phi(g v) = Ad_{phi_g} d_phi(v) + d_slip(v);
    the generator-difference identity relating dPhi_g, dPhi_{slip} and the
    slip derivative; and that d_phi recovers algebra elements modulo
    isotropy on generators.
    """
    A = pmf.action
    rng = np.random.default_rng(0) if rng is None else rng
    rep = VerificationReport(scenario="beta_equivariance_check")
    for i in range(samples):
        m = _sample_off_poles(rng)
        g = A.random_group(rng)
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
                norm(lhs - rhs), tol, tag)
        # generator-difference identity
        lhs2 = np.asarray(g, dtype=float) @ v - beta @ v
        rhs2 = A.gen_matrix(gm) @ dbeta
        rep.add("generator-difference",
                "dPhi_g - dPhi_slip = generators of d_slip",
                norm(lhs2 - rhs2), tol, tag)
        # d_phi on generators is the identity modulo isotropy
        xi = rng.standard_normal(3)
        K = A.gen_matrix(m)
        d = pmf.dnat_phi(m, K @ xi)
        rep.add("modulo-isotropy",
                "d_phi(xi_M(m)) = xi up to the isotropy of m",
                norm(K @ (d - xi)), 1e-6, tag)
    return rep


_OFF_POLE_TRIES = 1000


def _sample_off_poles(rng, cap=0.15):
    """Uniform unit vector at polar distance more than ``cap`` from both
    poles, by rejection; ``cap`` must lie in [0, pi/2)."""
    if not 0.0 <= cap < np.pi / 2:
        raise ValueError(f"_sample_off_poles: cap {cap} is outside [0, pi/2)")
    for _ in range(_OFF_POLE_TRIES):
        m = rng.standard_normal(3)
        m /= norm(m)
        if abs(m[2]) < np.cos(cap):
            return m
    raise ValueError(f"_sample_off_poles: no point off the poles in "
                     f"{_OFF_POLE_TRIES} tries (cap {cap})")


def latitude_curve(theta0):
    """Unit-speed parametrization of the latitude circle at polar angle
    theta0, with its velocity and acceleration."""
    s = np.sin(theta0)

    def point(t):
        return np.array([s * np.cos(t / s), s * np.sin(t / s),
                         np.cos(theta0)])

    def velocity(t):
        return np.array([-np.sin(t / s), np.cos(t / s), 0.0])

    return point, velocity
