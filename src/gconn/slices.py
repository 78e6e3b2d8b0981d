"""Adaptors, adapted dual forms, almost-horizontal systems and slices.

Near a singular point m0 the kernel of a dual form jumps in dimension.  An
adaptor phi conjugates the reference isotropy algebra over the nearby
isotropy algebras, which lets the form be corrected to constant rank: the
adapted form's kernel is the almost-horizontal system
Xi = Gamma + (Ad_phi g_m0)~.  The concrete slice construction here is the
Cayley-parametrized slice for the two-sided circle action on SO(3).
"""

from __future__ import annotations

import numpy as np

from . import groups
from .actions import Action, isotropy_algebra, orbit_tangent
from .connections import DualForm, PointEval, at
from .curvature import _d_chi, field_bracket
from .linalg import SVD, Subspace, TOL_RANK, norm
from .report import VerificationReport


class AdaptorContractError(ValueError):
    """The candidate adaptor fails a defining containment/equivariance test."""


class Adaptor:
    """A group-valued map phi with phi(m0) in the stabilizer of m0 that
    conjugates the reference isotropy algebra over nearby isotropy algebras.

    ``phi`` maps a manifold point to an acting-group element; ``dnatL`` is
    the left-trivialized derivative evaluator (m, tangent coords) -> acting
    algebra, identically zero for the trivial adaptor (no ``phi``).  An
    adaptor given a ``phi`` but no ``dnatL`` has ``dnatL`` None: its
    derivative is unknown, and derivatives through it are taken by finite
    differences.  Whether Ad_phi g_m0 covers the isotropy algebra g_m is
    tested where it is used: :func:`adapted_inertia` raises
    :class:`AdaptorContractError` at every point where it fails.
    """

    def __init__(self, action: Action, m0, phi=None, dnatL=None):
        self.action = action
        self.m0 = m0
        if phi is None:
            phi = lambda m: action.identity()
            if dnatL is None:
                dnatL = lambda m, v: np.zeros(action.algebra.dim)
        self._phi = phi
        self.dnatL = dnatL
        self.iso0 = isotropy_algebra(action, m0)

    def phi(self, m):
        return self._phi(m)


def trivial_adaptor(action: Action, m0) -> Adaptor:
    return Adaptor(action, m0)


def adapted_inertia(mu: DualForm, adaptor: Adaptor, m, tol_rank=TOL_RANK):
    """chi_phi(m) = chi(m) composed with Ad_{phi(m)}.

    Raises :class:`AdaptorContractError` when ker chi_phi is not contained
    in the reference isotropy algebra.  ``m`` may be a point evaluation of
    mu (see :func:`gconn.connections.at`).
    """
    A = mu.action
    pt = at(mu, m, tol_rank)
    phi = adaptor.phi(pt.m)
    chi_phi = pt.chi @ A.Ad_group(phi)
    # ker chi_phi = Ad_phi^-1 ker chi, from the point's SVD of chi; only a
    # non-trivial kernel needs the inverse
    kern = pt.chi_svd.kernel.basis
    if kern.size:
        kern = A.Ad_group(A.group_inv(phi)) @ kern
    if not all(adaptor.iso0.contains(v, 1e-6) for v in kern.T):
        raise AdaptorContractError(
            "ker chi_phi escapes the reference isotropy algebra")
    return chi_phi


def _adapted_matrix(adaptor: Adaptor, pi, iota, pt: PointEval):
    """chi_phi . pi . iota(m) . mu_m from the point evaluation pt of mu at m,
    after checking that iota(m) is a restricted pseudo-inverse there."""
    chi_phi = adapted_inertia(pt.mu, adaptor, pt)
    im = np.asarray(iota(pt.m), dtype=float)
    resid = norm(pi - pi @ im @ chi_phi)
    if resid > 1e-8 * max(1.0, norm(pi)):
        raise ValueError(
            f"iota is not a restricted pseudo-inverse here "
            f"(residual {resid:.3e})")
    return chi_phi @ pi @ im @ pt.M


def adapted_dual_form(mu: DualForm, adaptor: Adaptor, pi, iota,
                      tol_rank=TOL_RANK) -> DualForm:
    """The constant-rank correction (chi_phi . pi . iota) . mu of mu.

    ``pi`` is a fixed projection matrix on the acting algebra with kernel
    the reference isotropy algebra; ``iota`` maps a point to a restricted
    pseudo-inverse of chi_phi, i.e. pi = pi . iota(m) . chi_phi(m) must hold
    on the domain (checked at every evaluation).  The kernel test of
    chi_phi decides rank at ``tol_rank``.  The form has no exact
    derivative: ``iota`` has none.
    """
    pi = np.asarray(pi, dtype=float)

    def matrix(m, K):
        return _adapted_matrix(adaptor, pi, iota,
                               PointEval(mu, m, tol_rank, K=K))

    return DualForm(mu.action, matrix, name=mu.name + "_adapted",
                    uses_generators=True)


def almost_horizontal_basis(mu: DualForm, adaptor: Adaptor, m,
                            tol_rank=TOL_RANK) -> Subspace:
    """Basis of Xi|_m = ker mu_m + generators of Ad_phi(m) applied to g_m0.

    The sum is verified to be direct (ranks add); a failure raises
    :class:`AdaptorContractError`.  ``m`` may be a point evaluation of mu.
    """
    A = mu.action
    pt = at(mu, m, tol_rank)
    gam = pt.kernel
    Adp = A.Ad_group(adaptor.phi(pt.m))
    K = pt.K
    scale = max(1.0, norm(K))
    gens = [K @ (Adp @ adaptor.iso0.basis[:, j])
            for j in range(adaptor.iso0.dim)]
    # generators may vanish identically at the base point itself; drop the
    # pure-roundoff vectors before the relative-rank reduction
    gens = [g for g in gens if norm(g) > 1e-10 * scale]
    gen_sub = Subspace(gens, ambient_dim=A.vec_dim)
    xi = Subspace([*gam.basis.T, *gen_sub.basis.T], ambient_dim=A.vec_dim)
    if xi.dim != gam.dim + gen_sub.dim:
        raise AdaptorContractError("Gamma + (Ad_phi g_m0)~ is not direct")
    return xi


# ---------------------------------------------------------------------------
# the Cayley slice on SO(3)

class SliceCandidate:
    """A parametrized submanifold through m0, with tangent evaluator and a
    Gauss-Newton membership test.

    ``chart`` maps a manifold point to the parameters of a nearby slice
    point (exactly inverting ``psi`` on the slice); Gauss-Newton starts
    there when it is finite and inside ``radius``, at 0 otherwise.
    """

    def __init__(self, m0, psi, tangent, param_dim, radius, velocity, chart):
        self.m0 = m0
        self.psi = psi              # params -> manifold point
        self.tangent = tangent      # (params, dparams) -> tangent coords
        self.param_dim = param_dim
        self.radius = radius
        self.velocity = velocity    # (point, tangent coords) -> d point
        self.chart = chart          # manifold point -> params

    def tangent_basis(self, params):
        E = np.eye(self.param_dim)
        return [self.tangent(params, E[j]) for j in range(self.param_dim)]

    def jacobian(self, params, point):
        """Derivative of the flattened psi at params, where psi(params) is
        ``point``: column j is the velocity of the j-th slice tangent."""
        return np.array([self.velocity(point, t).ravel()
                         for t in self.tangent_basis(params)]).T

    def _start(self, m):
        """Gauss-Newton's starting parameters: chart(m) if it is finite and
        inside the radius, else 0."""
        p = np.asarray(self.chart(m), dtype=float).ravel()
        if np.isfinite(p).all() and norm(p) < self.radius:
            return p
        return np.zeros(self.param_dim)

    def locate(self, m):
        """Gauss-Newton inversion of psi from :meth:`_start`, at most 25
        steps; returns (params, residual)."""
        target = np.asarray(m, dtype=float).ravel()
        p = self._start(m)
        for _ in range(25):
            point = np.asarray(self.psi(p), dtype=float)
            J = self.jacobian(p, point)
            step = SVD(J).pinv @ (point.ravel() - target)
            p = p - step
            if norm(step) < 1e-14:
                break
        resid = np.asarray(self.psi(p), dtype=float).ravel() - target
        return p, norm(resid)

    def contains(self, m, tol=1e-8):
        p, r = self.locate(m)
        return r <= tol and norm(p) < self.radius


def cayley_slice(sigma, g0, r=1.0) -> SliceCandidate:
    """Slice eta -> cay(eta) g0 through g0, restricted to eta orthogonal to
    the rotation axis sigma.

    Tangents are returned in right-trivialized so(3) coordinates using the
    closed form for the trivialized derivative of the Cayley transform; the
    tangent w at g is the velocity hat(w) g.  The chart is the inverse
    Cayley transform of R = g g0^-1, hat(eta/2) = (I + R)^-1 (R - I),
    projected onto sigma-perp; it is non-finite where I + R is singular
    (R a half turn).
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    if abs(norm(sigma) - 1.0) > 1e-10:
        raise ValueError("cayley_slice: sigma must be a unit vector")
    if not r < 2.0:
        raise ValueError("cayley_slice: radius must be < 2")
    g0 = np.asarray(g0, dtype=float)
    # orthonormal basis of sigma-perp
    aux = np.eye(3)[np.argmin(np.abs(sigma))]
    b1 = groups.cross(sigma, aux)
    b1 /= norm(b1)
    b2 = groups.cross(sigma, b1)
    B = np.array([b1, b2]).T  # 3 x 2

    def psi(params):
        return groups.cay(B @ np.asarray(params, dtype=float).ravel()) @ g0

    def tangent(params, dparams):
        eta = B @ np.asarray(params, dtype=float).ravel()
        deta = B @ np.asarray(dparams, dtype=float).ravel()
        return ((deta + 0.5 * groups.hat(eta) @ deta)
                / (1.0 + (eta @ eta) / 4.0))

    def velocity(g, w):
        return groups.hat(w) @ g

    g0_inv = np.linalg.inv(g0)

    def chart(g):
        try:
            eta = groups.cay_inv(np.asarray(g, dtype=float) @ g0_inv)
        except np.linalg.LinAlgError:
            return np.full(2, np.nan)
        return B.T @ eta

    return SliceCandidate(np.asarray(g0, dtype=float), psi, tangent, 2, r,
                          velocity, chart)


def slice_verify(S: SliceCandidate, action: Action, m0, samples=50,
                 rng=None, stabilizer_sampler=None, nearby_sampler=None,
                 tol=1e-8, tol_rank=TOL_RANK) -> VerificationReport:
    """Sampled verification of the three defining slice conditions.

    (i) T_m0 M splits as T_m0 S + orbit tangent, directly;
    (ii) T_m S + orbit tangent spans T_m M at sampled m in S;
    (iii) stabilizer elements of m0 map sampled m in S back into S, while
    nearby non-stabilizer elements move them off S (unless fixed).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    rep = VerificationReport(scenario="slice_verify")

    def sample_params():
        p = rng.standard_normal(S.param_dim)
        return 0.6 * S.radius * rng.random() * p / norm(p)

    # (i) direct sum at the base point
    t0 = S.tangent_basis(np.zeros(S.param_dim))
    orb0 = orbit_tangent(action, m0, tol_rank)
    stacked = Subspace([*t0, *orb0.basis.T], ambient_dim=action.vec_dim)
    rep.add_bool("slice-i", "T_m0 M = T_m0 S (+) orbit tangent (direct)",
                 stacked.dim == len(t0) + orb0.dim
                 and stacked.dim == action.vec_dim)

    for i in range(samples):
        p = sample_params()
        m = S.psi(p)
        # (ii) spanning away from the base point
        tb = S.tangent_basis(p)
        orb = orbit_tangent(action, m, tol_rank)
        span = Subspace([*tb, *orb.basis.T], ambient_dim=action.vec_dim)
        rep.add_bool("slice-ii", "T_m S + orbit tangent spans T_m M",
                     span.dim == action.vec_dim, f"sample {i}")
        # (iii) stabilizer stays on the slice ...
        if stabilizer_sampler is not None:
            h = stabilizer_sampler(rng)
            _, resid = S.locate(action.apply(h, m))
            rep.add("slice-iii-stab", "stabilizer of m0 maps S into S",
                    resid, tol, f"sample {i}")
        # ... and nearby non-stabilizer elements leave it
        if nearby_sampler is not None:
            g = nearby_sampler(rng)
            gm = action.apply(g, m)
            moved = norm(np.asarray(gm, dtype=float).ravel()
                         - np.asarray(m, dtype=float).ravel())
            if moved > 1e-7:
                rep.add_bool("slice-iii-off", "non-stabilizer leaves S",
                             not S.contains(gm, tol), f"sample {i}")
    return rep


def abel_involutivity(mu: DualForm, adaptor: Adaptor, pi, iota, samples=20,
                      rng=None, tol=1e-5, tol_rank=TOL_RANK,
                      h=1e-5) -> VerificationReport:
    """Involutivity of the almost-horizontal system near an abelian-stabilizer
    singular point, via the adapted form.

    For fields X, Y valued in Xi = ker(adapted form) checks that the adapted
    form annihilates [X, Y], that [X, Y] stays in Xi, and that the
    inertia-derivative correction terms vanish for horizontal inputs.  The
    bracket is a central difference with step ``h`` (the adapted form has
    no exact derivative); the correction terms use :func:`_d_chi`, exact
    where mu and the adaptor are.  mu is evaluated once at each sample.
    """
    A = mu.action
    rng = np.random.default_rng(0) if rng is None else rng
    rep = VerificationReport(scenario="abel_involutivity")
    mu_t = adapted_dual_form(mu, adaptor, pi, iota, tol_rank)
    pi = np.asarray(pi, dtype=float)

    def xi_field(c):
        # frozen coordinate vector projected onto ker of the adapted form;
        # takes a point or a point evaluation of the adapted form
        def X(p):
            pt_t = at(mu_t, p, tol_rank)
            return pt_t.kernel.project(A.project_tangent(pt_t.m, c))
        return X

    E = np.eye(A.vec_dim)
    for i in range(samples):
        v = A.random_tangent(rng, adaptor.m0)
        m = A.retract(adaptor.m0, v, 0.25 * rng.random())
        ci, cj = rng.choice(A.vec_dim, size=2, replace=False)
        X, Y = xi_field(E[ci]), xi_field(E[cj])
        pt = PointEval(mu, m, tol_rank)
        pt_t = PointEval(mu_t, m, tol_rank, K=pt.K,
                         M=_adapted_matrix(adaptor, pi, iota, pt))
        br = field_bracket(A, X, Y, pt_t, h)
        scale = max(1.0, norm(br))
        rep.add("xi-involutive", "adapted form annihilates [X, Y]",
                norm(pt_t.M @ br) / scale, tol, f"sample {i}")
        xi_sub = almost_horizontal_basis(mu, adaptor, pt, tol_rank)
        rep.add("bracket-tangent", "[X, Y] stays inside Xi",
                norm(br - xi_sub.project(br)) / scale, tol,
                f"sample {i}")
        # correction terms of the relative structure equation
        Xm, Ym = X(pt_t), Y(pt_t)
        im = np.asarray(iota(m), dtype=float)
        xi_c = pi @ im @ (pt.M @ Xm)
        eta_c = pi @ im @ (pt.M @ Ym)
        dchi_u = _d_chi(mu, pt, Xm, adaptor=adaptor)
        dchi_v = _d_chi(mu, pt, Ym, adaptor=adaptor)
        rep.add("corrections-vanish",
                "d chi_phi(u) pi eta - d chi_phi(v) pi xi = 0 for horizontal "
                "inputs",
                norm(dchi_u @ eta_c - dchi_v @ xi_c), tol,
                f"sample {i}")
    return rep
