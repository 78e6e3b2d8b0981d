"""Scenario runner: reproduces the worked examples and property suites.

A scenario is a row of ``SCENARIOS``, a tuple of check builders.  A
builder ``check_x(rep, rng, samples)`` appends its records to ``rep`` and
draws only from ``rng``, a new ``np.random.default_rng(seed)`` of its own,
so it gives the same records alone as in its scenario, whatever else the
row holds; the acceptance criteria call the builders with their own seeds
and counts.  ``property-suite-all`` runs the other rows at
``max(4, samples // 4)`` and prefixes their check ids ``name/``.  A
builder that raises a typed numerical or domain error adds one failing
record naming it and the error; any other exception propagates.  The
process exits 0 exactly when every check passes, and reports serialize
byte-stably for a fixed seed.  A record over sampled residuals holds the
largest of them, or NaN if any sample gave NaN.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import actions, connections, curvature, frames, slices
from .groups import cross, exp_so3
from .linalg import SVD, InconsistentSystemError, Subspace, norm
from .report import VerificationReport


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int = 0
    samples: int = 20
    out: str | None = None
    fmt: str = "json"

    def echo(self):
        d = asdict(self)
        d.pop("out")
        return d


def check_dual_form(rep, rng, samples):
    """Dual form properties and idempotent projections on rotating R^3."""
    A, mu = actions.get_action("so3-on-r3"), connections.mu_q(lambda t: t)
    rep.extend(connections.dual_form_verify(mu, samples, rng))
    for i in range(samples):
        P = connections.projection_P_mu(mu, A.random_point(rng))
        rep.add("P-idempotent", "P_mu squares to itself",
                norm(P @ P - P), 1e-9, f"sample {i}")


def check_clean_form(rep, rng, samples):
    """The clean form of the singular partial connection form, its
    discontinuity at the origin and its pairing with the inertia of mu_t."""
    A = actions.get_action("so3-on-r3")
    alpha = connections.alpha_so3r3(lambda m: 0.3 * np.exp(-(m @ m)))
    alpha0 = connections.alpha_so3r3(lambda m: 0.0)
    clean = connections.clean_alpha(alpha)
    gaps = []
    for _ in range(samples):
        m, v = A.random_point(rng), rng.standard_normal(3)
        gaps.append(norm(clean(m, v) - alpha0(m, v)))
    rep.add_worst("clean-form",
                  "cleaning removes the radial isotropy component", gaps, 1e-9)
    # discontinuity witness at the origin
    lim = norm(alpha0.matrix(1e-6 * np.eye(3)[2]))
    rep.add_bool("alpha-discontinuous",
                 "partial connection form stays bounded away from its value "
                 "at the singular point", lim > 0.5)
    mu = connections.mu_q(lambda t: t)
    rep.extend(connections.pair_check(alpha0, mu, samples, rng,
                                      [np.zeros(3)]))


def check_mu_t_d_exact_vs_fd(rep, rng, samples):
    _d_exact_vs_fd(rep, rng, samples, connections.mu_q(lambda t: t))


def check_docility(rep, rng, samples):
    """Docility dichotomy at the origin for the q-weighted forms, and the
    vanishing curvature there along ``samples`` pairs of directions."""
    mu1, mut = connections.mu_q(lambda t: 1.0), connections.mu_q(lambda t: t)
    origin = np.zeros(3)
    ok, witness = curvature.docile(mu1, origin)
    rep.add_bool("non-docile", "constant-weight form fails docility at 0",
                 not ok)
    if witness is not None:
        u, v, val = witness
        rep.add("witness-value",
                "exterior derivative at 0 is twice the weighted cross "
                "product", norm(val - 2.0 * cross(u, v)), 1e-6)
    pt = connections.at(mut, origin)
    ok_t, _ = curvature.docile(mut, pt)
    rep.add_bool("docile", "vanishing-weight form is docile at 0", ok_t)
    norms = []
    for _ in range(samples):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        norms.append(norm(curvature.curvature(mut, pt, u, v)))
    rep.add_worst("zero-curvature", "curvature at the origin vanishes",
                  norms, 1e-7)


_SU3_TABLE = {
    # (basis index pair) -> pinned coordinates (d1, d2, s1, s2, s3, x1..x3)
    (2, 5): np.array([-1.0, 0, 0, 0, 0, 0, 0, 0]),
    (3, 6): np.array([+1.0, 0, 0, 0, 0, 0, 0, 0]),
    (2, 6): np.array([0, 0, 0, 0, -1.0, 0, 0, 0]),
    (3, 5): np.array([0, 0, 0, 0, -1.0, 0, 0, 0]),
}


def check_su3_table(rep, rng, samples):
    """Closed-form curvature of the tamed two-sided torus form on SU(3) on
    every basis pair along exp(theta x3): the tabulated entries, zero
    elsewhere, rank two and range the d1/s3 plane.  Draws nothing."""
    A = actions.get_action("hxh-on-su3")
    E = np.eye(8)
    target = Subspace([E[0], E[4]])
    for theta in (np.pi / 5, np.pi / 3, 1.0):
        g = A.manifold_alg.exp(theta * E[7])
        tag = f"theta={theta:.6f}"
        vals = []
        for i in range(8):
            for j in range(i + 1, 8):
                om = curvature.curvature_leftright_closed(A, g, E[i], E[j])
                vals.append(om)
                want = _SU3_TABLE.get((i, j))
                if want is not None:
                    rep.add(f"table-{i}{j}",
                            "closed-form curvature matches the tabulated "
                            "value", norm(om - want), 1e-9, tag)
                else:
                    rep.add(f"zero-{i}{j}",
                            "curvature vanishes on this basis pair",
                            norm(om), 1e-9, tag)
        svd = SVD(np.array(vals))
        s = svd.s
        rep.add_bool("rank-two", "curvature has numerical rank two",
                     s[2] < 1e-10 * s[0] and s[1] > 1e-6 * s[0], tag)
        # the range of the curvature values is the row space of their stack
        rng_sub = svd.row_space
        rep.add_bool("range", "curvature range is the d1/s3 plane",
                     target.contains_subspace(rng_sub, 1e-8)
                     and rng_sub.contains_subspace(target, 1e-8), tag)


def check_closed_vs_fd(rep, rng, samples):
    """Closed-form curvature of hxh-on-su3 against ``curvature`` of finite
    differences of the untamed mechanical form: the tamed form has the same
    curvature wherever both are docile (``curvature.tame``), and the untamed
    one solves no normal equations, which square cond(chi)."""
    A = actions.get_action("hxh-on-su3")
    nu = connections.fd_oracle(connections.simple_mechanical_mu(A))
    gaps = []
    for _ in range(samples):
        g = A.random_point(rng)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        cf = curvature.curvature_leftright_closed(A, g, u, v)
        gaps.append(np.max(np.abs(cf - curvature.curvature(nu, g, u, v))))
    rep.add_worst("closed-vs-fd", "closed form agrees with finite differences",
                  gaps, 1e-5)


def check_tamed_d_exact_vs_fd(rep, rng, samples):
    _d_exact_vs_fd(rep, rng, samples, curvature.tame(
        connections.simple_mechanical_mu(actions.get_action("hxh-on-su3"))))


def _d_exact_vs_fd(rep, rng, samples, mu, sample_point=None,
                   check_id="d-exact-vs-fd"):
    """The exact derivative ``dmatrix`` of mu against that of its
    ``fd_oracle``, at random points and directions."""
    A = mu.action
    oracle = connections.fd_oracle(mu)
    sample_point = sample_point or A.random_point
    gaps = []
    for _ in range(samples):
        m = sample_point(rng)
        w = A.random_tangent(rng, m)
        gaps.append(norm(mu.dmatrix(m, w) - oracle.dmatrix(m, w)))
    rep.add_worst(check_id,
                  "exact derivative of the form matches finite differences",
                  gaps, 1e-6)


SIGMA = np.array([0.0, 0.0, 1.0])  # axis of both circles of s1s1-on-so3


def check_chi_eigen(rep, rng, samples):
    """Inertia eigenstructure of s1s1-on-so3 at random points."""
    A = actions.get_action("s1s1-on-so3")
    mu = connections.simple_mechanical_mu(A)
    nup = np.array([1.0, 1.0]) / np.sqrt(2)
    num = np.array([1.0, -1.0]) / np.sqrt(2)
    gaps = []
    for _ in range(samples):
        g = A.random_point(rng)
        chi = connections.at(mu, g).chi
        r = float(SIGMA @ (g @ SIGMA))
        gaps += [norm(chi @ nup - (1 - r) * nup),
                 norm(chi @ num - (1 + r) * num)]
    rep.add_worst("chi-eigen", "inertia eigenvalues are 1 -+ <sigma, g sigma>",
                  gaps, 1e-10)


def check_flat(rep, rng, samples):
    """The closed-form curvature of s1s1-on-so3 vanishes identically."""
    A = actions.get_action("s1s1-on-so3")
    norms = []
    for _ in range(samples):
        g = A.random_point(rng)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        norms.append(norm(curvature.curvature_leftright_closed(A, g, u, v)))
    rep.add_worst("flat", "closed-form curvature vanishes identically",
                  norms, 1e-7)


def check_slice(rep, rng, samples):
    """``slice_verify`` and tangency of the s1s1-on-so3 Cayley slice."""
    A = actions.get_action("s1s1-on-so3")
    g0 = np.eye(3)
    sl = slices.cayley_slice(SIGMA, g0)

    def stab(rg):
        R = exp_so3(2 * np.pi * rg.random() * SIGMA)
        return (R, R)

    def nearby(rg):
        a, b = 0.2 * rg.standard_normal(2)
        while abs(a - b) < 1e-3:
            a, b = 0.2 * rg.standard_normal(2)
        return (exp_so3(a * SIGMA), exp_so3(b * SIGMA))

    rep.extend(slices.slice_verify(sl, A, g0, samples, rng, stab, nearby))
    # tangency reduces to orthogonality against the axis
    dots = []
    for _ in range(samples):
        p = 0.4 * rng.standard_normal(2)
        w = SIGMA + sl.psi(p) @ SIGMA
        dots += [abs(t @ w) for t in sl.tangent(p).T]
    rep.add_worst("tangency", "slice tangents annihilate sigma + g sigma",
                  dots, 1e-8)


def _abel_data():
    """The mechanical form of s1s1-on-so3, the trivial adaptor at the
    identity, pi and iota: the data of its adapted form."""
    A = actions.get_action("s1s1-on-so3")
    mu = connections.simple_mechanical_mu(A)
    g0 = np.eye(3)

    def iota(g):
        r = float(SIGMA @ (np.asarray(g) @ SIGMA))
        return np.eye(2) / (1.0 + r)

    return (mu, slices.trivial_adaptor(A, g0),
            0.5 * connections.at(mu, g0).chi, iota)


def check_abel_involutivity(rep, rng, samples):
    """Involutivity near the identity of s1s1-on-so3, trivial adaptor."""
    rep.extend(slices.abel_involutivity(*_abel_data(), samples, rng))


def check_mechanical_d_exact_vs_fd(rep, rng, samples):
    _d_exact_vs_fd(rep, rng, samples, connections.simple_mechanical_mu(
        actions.get_action("s1s1-on-so3")))


def check_adapted_d_exact_vs_fd(rep, rng, samples):
    """The adapted form's derivative at ``abel_involutivity``'s point draw."""
    A = actions.get_action("s1s1-on-so3")
    _d_exact_vs_fd(
        rep, rng, samples, slices.adapted_dual_form(*_abel_data()),
        sample_point=lambda rg: slices.near_base_point(A, np.eye(3), rg),
        check_id="adapted-d-exact-vs-fd")


def check_us2_frame(rep, rng, samples):
    """Equivariance and the closed-form derivative of the US^2 frame."""
    A = actions.get_action("so3-on-us2")
    eq_gaps, d_gaps = [], []
    for _ in range(samples):
        p, g = A.random_point(rng), A.random_group(rng)
        eq_gaps.append(norm(frames.rho_us2(A.apply(g, p))
                            - np.asarray(g) @ frames.rho_us2(p)))
        v = A.random_tangent(rng, p)
        d_gaps.append(norm(frames.dnat_rho(p, v) - frames.dnat_rho_fd(p, v)))
    rep.add_worst("rho-equivariance", "frame is left equivariant", eq_gaps,
                  1e-10)
    rep.add_worst("dnat-closed-form",
                  "trivialized derivative matches finite differences",
                  d_gaps, 1e-6)


def check_beta(rep, rng, samples):
    """Slip-relative equivariance of the eastward partial moving frame, and
    its invariant cross-section."""
    pmf = frames.pmf_from_field(frames.eastward_field)
    rep.extend(frames.beta_equivariance_check(pmf, samples, rng))
    gaps = []
    for _ in range(samples):
        m, g = frames.sample_off_poles_pair(pmf.action, rng)
        gaps.append(norm(frames.cross_section(pmf, np.asarray(g) @ m)
                         - frames.cross_section(pmf, m)))
    rep.add_worst("cross-section", "phi(m)^-1 . m is orbit invariant", gaps,
                  1e-8)


def check_latitude_curvature(rep, rng, samples, thetas=(0.6, 1.0, 1.4),
                             ts=np.linspace(0.0, 2.0, 5)):
    """Latitude geodesic curvature of the eastward frame at polar angles
    ``thetas``, times ``ts``.  Draws nothing."""
    pmf = frames.pmf_from_field(frames.eastward_field)
    gaps = []
    for theta0 in thetas:
        pt, vel = frames.latitude_curve(theta0)
        for t in ts:
            m, dm = pt(t), vel(t)
            pred = cross(m, dm) + m / np.tan(theta0)
            gaps.append(norm(pmf.dnat_phi(m, dm) - pred))
    rep.add_worst("latitude-curvature",
                  "frame derivative along latitudes carries the cot(theta0) "
                  "geodesic curvature", gaps, 1e-5)


def check_frame_d_exact_vs_fd(rep, rng, samples):
    """The closed-form ``dnat_phi`` and ``dnat_slip`` against trivialized
    central differences of phi and of the slip map along the retraction."""
    pmf = frames.pmf_from_field(frames.eastward_field)
    A = pmf.action
    gaps = []
    for _ in range(samples):
        m, g = frames.sample_off_poles_pair(A, rng)
        v = A.random_tangent(rng, m)
        fd_phi = frames._trivialized_fd(
            lambda t: pmf.phi(A.retract(m, v, t)), pmf.phi(m))
        fd_slip = frames._trivialized_fd(
            lambda t: pmf.slip(g, A.retract(m, v, t)), pmf.slip(g, m))
        gaps += [norm(pmf.dnat_phi(m, v) - fd_phi),
                 norm(pmf.dnat_slip(g, m, v) - fd_slip)]
    rep.add_worst("frame-d-exact-vs-fd",
                  "closed-form frame and slip derivatives match finite "
                  "differences", gaps, 1e-6)


SCENARIOS = {  # name -> its check builders, in report order
    "so3-r3-basics": (check_dual_form, check_clean_form,
                      check_mu_t_d_exact_vs_fd),
    "so3-r3-docility": (check_docility,),
    "hxh-su3-curvature": (check_su3_table, check_closed_vs_fd,
                          check_tamed_d_exact_vs_fd),
    "s1s1-so3-slice": (check_chi_eigen, check_flat, check_slice,
                       check_abel_involutivity,
                       check_mechanical_d_exact_vs_fd,
                       check_adapted_d_exact_vs_fd),
    "us2-moving-frame": (check_us2_frame,),
    "s2-pmf-beta": (check_beta, check_latitude_curvature,
                    check_frame_d_exact_vs_fd),
    "property-suite-all": None,  # derived from the six rows above
}

def run_scenario(cfg: ScenarioConfig) -> VerificationReport:
    if cfg.scenario not in SCENARIOS:
        raise KeyError(f"unknown scenario {cfg.scenario!r}; "
                       f"known: {sorted(SCENARIOS)}")
    rep = VerificationReport(scenario=cfg.scenario, config=cfg.echo())
    rows, samples = {"": SCENARIOS[cfg.scenario]}, cfg.samples
    if rows[""] is None:  # property-suite-all
        rows = {f"{name}/": row for name, row in SCENARIOS.items() if row}
        samples = max(4, cfg.samples // 4)
    for prefix, builders in rows.items():
        start = len(rep.checks)
        for builder in builders:
            try:
                builder(rep, np.random.default_rng(cfg.seed), samples)
            except (connections.DegeneracyError, frames.DomainError,
                    InconsistentSystemError, np.linalg.LinAlgError) as err:
                name = builder.__name__  # check_closed_vs_fd: closed-vs-fd
                rep.add_bool("-".join(name.split("_")[1:]),
                             f"{name} raised {type(err).__name__}: {err}",
                             False)
        for c in rep.checks[start:]:
            c.check_id = prefix + c.check_id
    return rep


def emit_report(report: VerificationReport, path=None, fmt="json"):
    text = report.to_json() if fmt == "json" else report.to_text()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _at_least(low):
    """An argparse type: the int of the text, rejected below ``low``."""
    def parse(text):
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text!r}")
        return value
    parse.__name__ = "int"  # for argparse's "invalid int value"
    return parse


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="gconn",
        description="verification scenarios for connection forms of "
                    "non-free group actions",
        argument_default=argparse.SUPPRESS)
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--samples", type=_at_least(1))
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("json", "text"))
    # omitted flags are absent, so the config's own defaults apply
    cfg = ScenarioConfig(**vars(p.parse_args(argv)))
    rep = run_scenario(cfg)
    emit_report(rep, cfg.out, cfg.fmt)
    return 0 if rep.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
