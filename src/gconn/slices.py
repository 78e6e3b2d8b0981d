"""Adaptors, adapted dual forms, almost-horizontal systems and slices.

Near a singular point m0 the kernel of a dual form jumps in dimension; an
adaptor corrects the form to constant rank.  Every action here needs only
the trivial adaptor (the torus groups are abelian, and the isotropy of
SO(3)'s one singular point, the origin of R^3, is all of so(3)), so
chi_phi = chi and the adapted form's kernel is the almost-horizontal system
Xi = Gamma + g_m0~; it carries its derivative, so brackets of Xi-valued
fields are exact up to one difference, of the caller's iota.  The adapted
form reads the plain form's evaluation at the same point, so chi, iota(m)
and each derivative along a direction are taken once per point.

The one slice here, :class:`SliceCandidate`, is the Cayley slice of the
two-sided circle action on SO(3), fixed by its axis and base point; its
chart, the inverse Cayley transform projected onto the slice's parameter
plane, is the nearest slice point in closed form, so
:meth:`SliceCandidate.locate` evaluates the slice once.
"""

from __future__ import annotations

import numpy as np

from . import connections, groups, linalg
from .actions import Action, isotropy_algebra, orbit_tangent
from .connections import DegeneracyError, DualForm, PointEval, at
from .curvature import field_bracket
from .linalg import InconsistentSystemError, Subspace, curve_derivative, norm
from .report import VerificationReport


class AdaptorContractError(DegeneracyError):
    """The candidate adaptor fails a defining containment/equivariance test."""


class Adaptor:
    """The trivial adaptor at m0, with the reference isotropy algebra
    ``iso0`` = g_m0.  Whether g_m0 covers the isotropy algebra g_m is tested
    where it is used: :func:`adapted_inertia` raises
    :class:`AdaptorContractError` at every point where it fails.
    """

    def __init__(self, action: Action, m0):
        self.m0 = m0
        self.iso0 = isotropy_algebra(action, m0)


def trivial_adaptor(action: Action, m0) -> Adaptor:
    return Adaptor(action, m0)


def adapted_inertia(mu: DualForm, adaptor: Adaptor, m):
    """chi_phi(m), which for the trivial adaptor is chi(m).

    Raises :class:`AdaptorContractError` when ker chi, from the point's SVD
    of chi, is not contained in the reference isotropy algebra.  ``m`` may
    be a point evaluation of mu (see :func:`gconn.connections.at`).
    """
    pt = at(mu, m)
    if not all(adaptor.iso0.contains(v, connections._KERNEL_TOL)
               for v in pt.chi_svd.kernel.basis.T):
        raise AdaptorContractError(
            "ker chi_phi escapes the reference isotropy algebra")
    return pt.chi


def _adapted_parts(mu: DualForm, adaptor: Adaptor, pi, iota, pt_t: PointEval):
    """At the point of the adapted form's evaluation pt_t: mu's evaluation
    b and iota(m), kept once per point after the kernel test of
    :func:`adapted_inertia` (so chi_phi is b.chi) and the test that iota(m)
    is a restricted pseudo-inverse at ``linalg.TOL_CONSIST`` relative to
    max(1, |pi|), which raises :class:`InconsistentSystemError`."""
    b = pt_t.of(mu)

    def checked_iota():
        im = np.asarray(iota(b.m), dtype=float)
        resid = norm(pi - pi @ im @ adapted_inertia(mu, adaptor, b))
        if resid > linalg.TOL_CONSIST * max(1.0, norm(pi)):
            raise InconsistentSystemError(
                "iota is not a restricted pseudo-inverse here", resid,
                b.chi_svd.cond, b.chi_svd.gap)
        return im

    return b, pt_t.kept(_adapted_parts, checked_iota)


def adapted_dual_form(mu: DualForm, adaptor: Adaptor, pi, iota) -> DualForm:
    """The constant-rank correction (chi . pi . iota) . mu of mu, for the
    trivial adaptor (chi_phi = chi).

    ``pi`` is a fixed projection matrix on the acting algebra with kernel
    the reference isotropy algebra; ``iota`` maps a point to a restricted
    pseudo-inverse of chi, i.e. pi = pi . iota(m) . chi(m) must hold on the
    domain (checked once per point).  Its matrix M_t = chi . pi . iota(m) . M
    and its derivative d chi pi iota M + chi pi (d iota M + iota dM) read
    mu's evaluation b at the point (M, dM and d chi from b); d iota, not
    known in closed form, is a central difference of ``iota`` along the
    retraction.
    """
    A = mu.action
    pi = np.asarray(pi, dtype=float)

    def matrix(pt):
        b, im = _adapted_parts(mu, adaptor, pi, iota, pt)
        return b.chi @ pi @ im @ b.M

    def dmatrix(pt, w):
        b, im = _adapted_parts(mu, adaptor, pi, iota, pt)
        dim = curve_derivative(lambda t: iota(A.retract(pt.m, w, t)))
        return (b.dchi(w) @ pi @ im @ b.M
                + b.chi @ pi @ (dim @ b.M + im @ b.dM(w)))

    return DualForm(A, matrix, name=mu.name + "_adapted", dmatrix=dmatrix)


def almost_horizontal_basis(mu: DualForm, adaptor: Adaptor, m) -> Subspace:
    """Basis of Xi|_m = ker mu_m + the generators of g_m0 at m.

    The sum is verified to be direct (ranks add); a failure raises
    :class:`AdaptorContractError`.  ``m`` may be a point evaluation of mu.
    """
    A = mu.action
    pt = at(mu, m)
    gam = pt.kernel
    K = pt.K
    scale = max(1.0, norm(K))
    gens = [K @ adaptor.iso0.basis[:, j] for j in range(adaptor.iso0.dim)]
    # generators may vanish identically at the base point itself; drop the
    # pure-roundoff vectors before the relative-rank reduction
    gens = [g for g in gens if norm(g) > 1e-10 * scale]
    gen_sub = Subspace(gens, ambient_dim=A.vec_dim)
    xi = Subspace([*gam.basis.T, *gen_sub.basis.T], ambient_dim=A.vec_dim)
    if xi.dim != gam.dim + gen_sub.dim:
        raise AdaptorContractError("Gamma + g_m0~ is not direct")
    return xi


# ---------------------------------------------------------------------------
# the Cayley slice on SO(3)

CAYLEY_RADIUS = 1.0


class SliceCandidate:
    """The Cayley slice eta -> cay(eta) g0 through m0 = g0, for eta
    orthogonal to the unit rotation axis sigma and |eta| < ``radius``,
    with its tangent evaluator and a closed-form membership test.  g0 must
    be a rotation (``ValueError`` otherwise); its inverse is g0^T.

    ``psi`` maps the ``param_dim`` = 2 coordinates of eta in an orthonormal
    basis B of sigma-perp to the group element.  ``tangent(params)`` is the
    3 x 2 matrix whose column j holds the right-trivialized so(3)
    coordinates of the slice along parameter axis j, by the closed form of
    the trivialized derivative of the Cayley transform,
    (b_j + eta x b_j / 2) / (1 + |eta|^2 / 4) on triples, so its product
    with a parameter direction is the tangent along it.  ``chart`` is the
    inverse Cayley transform of
    R = g g0^-1, hat(eta/2) = (I + R)^-1 (R - I), projected onto
    sigma-perp, and is +inf where I + R is singular (R a half turn), so
    that it reads as outside the radius.  It is the slice point nearest g:
    as unit quaternions |Q - R|_F^2 = 8 (1 - (q.r)^2), and its quaternion
    is r, normalized after projection onto {(q0, v) : v . sigma = 0}.
    """

    param_dim = 2
    radius = CAYLEY_RADIUS

    def __init__(self, sigma, g0):
        sigma = np.asarray(sigma, dtype=float).ravel()
        if abs(norm(sigma) - 1.0) > 1e-10:
            raise ValueError("cayley_slice: sigma must be a unit vector")
        self.m0 = np.asarray(g0, dtype=float)
        if not groups.is_rotation(self.m0):
            raise ValueError("cayley_slice: g0 must be a rotation")
        self._g0_inv = self.m0.T
        # orthonormal basis of sigma-perp
        aux = np.eye(3)[np.argmin(np.abs(sigma))]
        b1 = groups.cross(sigma, aux)
        b1 /= norm(b1)
        b2 = groups.cross(sigma, b1)
        self.B = np.array([b1, b2]).T  # 3 x 2
        self._b = (groups.triple(b1), groups.triple(b2))

    def psi(self, params):
        return (groups.cay(self.B @ np.asarray(params, dtype=float).ravel())
                @ self.m0)

    def tangent(self, params):
        eta = groups.triple(self.B @ np.asarray(params, dtype=float).ravel())
        d = 1.0 + groups.dot3(eta, eta) / 4.0
        T = np.empty((3, 2))
        T.T[:] = [groups.axpy3(0.5, groups.cross3(eta, b), b)
                  for b in self._b]
        return T / d

    def chart(self, g):
        try:
            eta = groups.cay_inv(np.asarray(g, dtype=float) @ self._g0_inv)
        except np.linalg.LinAlgError:
            return np.full(2, np.inf)
        return self.B.T @ eta

    def locate(self, m):
        """The nearest slice point to m, (params, residual) with params =
        ``chart(m)`` and residual |psi(params) - m|, inf where the chart is
        not finite."""
        p = self.chart(m)
        if not np.isfinite(p).all():
            return p, np.inf
        return p, norm(self.psi(p) - np.asarray(m, dtype=float))

    def contains(self, m):
        """Whether the nearest slice point is within 1e-8 of m and inside
        the radius."""
        p, r = self.locate(m)
        return r <= 1e-8 and norm(p) < self.radius


def cayley_slice(sigma, g0) -> SliceCandidate:
    """The :class:`SliceCandidate` through g0 about the unit axis sigma."""
    return SliceCandidate(sigma, g0)


def slice_verify(S: SliceCandidate, action: Action, m0, samples, rng,
                 stabilizer_sampler, nearby_sampler) -> VerificationReport:
    """Verification of the three defining slice conditions at ``samples``
    slice points drawn from ``rng``.

    (i) T_m0 M splits as T_m0 S + orbit tangent, directly;
    (ii) T_m S + orbit tangent spans T_m M at sampled m in S;
    (iii) stabilizer elements of m0, drawn by ``stabilizer_sampler(rng)``,
    map sampled m in S back into S (to 1e-8), while nearby non-stabilizer
    elements, drawn by ``nearby_sampler(rng)``, move them off S (unless
    fixed).
    """
    rep = VerificationReport(scenario="slice_verify")

    def sample_params():
        p = rng.standard_normal(S.param_dim)
        return 0.6 * S.radius * rng.random() * p / norm(p)

    # (i) direct sum at the base point
    t0 = S.tangent(np.zeros(S.param_dim))
    orb0 = orbit_tangent(action, m0)
    stacked = Subspace([*t0.T, *orb0.basis.T], ambient_dim=action.vec_dim)
    rep.add_bool("slice-i", "T_m0 M = T_m0 S (+) orbit tangent (direct)",
                 stacked.dim == S.param_dim + orb0.dim
                 and stacked.dim == action.vec_dim)

    for i in range(samples):
        p = sample_params()
        m = S.psi(p)
        # (ii) spanning away from the base point
        orb = orbit_tangent(action, m)
        span = Subspace([*S.tangent(p).T, *orb.basis.T],
                        ambient_dim=action.vec_dim)
        rep.add_bool("slice-ii", "T_m S + orbit tangent spans T_m M",
                     span.dim == action.vec_dim, f"sample {i}")
        # (iii) stabilizer stays on the slice ...
        h = stabilizer_sampler(rng)
        _, resid = S.locate(action.apply(h, m))
        rep.add("slice-iii-stab", "stabilizer of m0 maps S into S",
                resid, 1e-8, f"sample {i}")
        # ... and nearby non-stabilizer elements leave it
        g = nearby_sampler(rng)
        gm = action.apply(g, m)
        moved = norm(np.subtract(gm, m))
        if moved > 1e-7:
            rep.add_bool("slice-iii-off", "non-stabilizer leaves S",
                         not S.contains(gm), f"sample {i}")
    return rep


def _xi_field(mu_t: DualForm, c):
    """The frozen coordinate vector c projected onto ker mu_t, X = Pi z with
    z = project_tangent(p, c), taking a point or a point evaluation of mu_t;
    its derivative is dX = Pi (dz - B^T z) - B Pi z, with B = M+ dM read
    from the point's SVD of M and its ``dM(w)``."""
    A = mu_t.action

    def X(p):
        pt_t = at(mu_t, p)
        return pt_t.kernel.project(A.project_tangent(pt_t.m, c))

    def derivative(p, w):
        pt_t = at(mu_t, p)
        z = A.project_tangent(pt_t.m, c)
        B = pt_t.M_svd.pinv @ pt_t.dM(w)
        dz = A.dproject_tangent(pt_t.m, w, c)
        return pt_t.kernel.project(dz - B.T @ z) - B @ pt_t.kernel.project(z)

    X.derivative = derivative
    return X


def near_base_point(action: Action, m0, rng):
    """A point near the base point m0: the retraction from m0 along a random
    tangent there, for a time drawn from [0, 0.25)."""
    v = action.random_tangent(rng, m0)
    return action.retract(m0, v, 0.25 * rng.random())


def abel_involutivity(mu: DualForm, adaptor: Adaptor, pi, iota, samples,
                      rng) -> VerificationReport:
    """Involutivity of the almost-horizontal system near an abelian-stabilizer
    singular point, via the adapted form, at ``samples`` points drawn from
    ``rng``.

    For fields X, Y valued in Xi = ker(adapted form) checks, each to 1e-5,
    that the adapted form annihilates [X, Y], that [X, Y] stays in Xi, and
    that the inertia-derivative correction terms vanish for horizontal
    inputs.  At each sample the adapted form is evaluated once, reading
    mu's evaluation there, and the fields (:func:`_xi_field`) carry their
    derivative, read from its ``dM(w)`` and its SVD of M_t, so the bracket
    is exact up to iota's difference; the correction terms reuse iota(m)
    and the d chi_phi that the bracket took.
    """
    A = mu.action
    rep = VerificationReport(scenario="abel_involutivity")
    mu_t = adapted_dual_form(mu, adaptor, pi, iota)
    pi = np.asarray(pi, dtype=float)

    E = np.eye(A.vec_dim)
    for i in range(samples):
        m = near_base_point(A, adaptor.m0, rng)
        ci, cj = rng.choice(A.vec_dim, size=2, replace=False)
        X, Y = _xi_field(mu_t, E[ci]), _xi_field(mu_t, E[cj])
        pt_t = at(mu_t, m)
        pt, im = _adapted_parts(mu, adaptor, pi, iota, pt_t)
        br = field_bracket(A, X, Y, pt_t)
        scale = max(1.0, norm(br))
        rep.add("xi-involutive", "adapted form annihilates [X, Y]",
                norm(pt_t.M @ br) / scale, 1e-5, f"sample {i}")
        xi_sub = almost_horizontal_basis(mu, adaptor, pt)
        rep.add("bracket-tangent", "[X, Y] stays inside Xi",
                norm(br - xi_sub.project(br)) / scale, 1e-5,
                f"sample {i}")
        # correction terms of the relative structure equation
        Xm, Ym = X(pt_t), Y(pt_t)
        xi_c = pi @ im @ (pt.M @ Xm)
        eta_c = pi @ im @ (pt.M @ Ym)
        dchi_u = pt.dchi(Xm)
        dchi_v = pt.dchi(Ym)
        rep.add("corrections-vanish",
                "d chi_phi(u) pi eta - d chi_phi(v) pi xi = 0 for horizontal "
                "inputs",
                norm(dchi_u @ eta_c - dchi_v @ xi_c), 1e-5,
                f"sample {i}")
    return rep
