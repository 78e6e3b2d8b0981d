"""End-to-end acceptance checks for the worked examples and identities.

One test per criterion; each prints a single summary line.  The tabulated
SU(3) curvature entries are asserted exactly as stated even where the
closed form disagrees, so a failure here is informative rather than a
regression signal — see the per-entry detail in the assertion message.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import regular_point
from gconn.actions import get_action, isotropy_algebra, orbit_tangent
from gconn.cli import (SIGMA, ScenarioConfig, check_abel_involutivity,
                       check_chi_eigen, check_closed_vs_fd,
                       check_latitude_curvature, check_slice,
                       check_su3_table, check_us2_frame, run_scenario)
from gconn.connections import (at, mu_q, projection_P_mu,
                               simple_mechanical_mu)
from gconn.curvature import (curvature, good_chi_residual,
                             interior_product_residual, involutivity_check,
                             structure_residual, tame)
from gconn.frames import (beta_equivariance_check, eastward_field,
                          pmf_from_field)
from gconn.groups import exp_so3
from gconn.report import VerificationReport


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = f"[acceptance {num:02d}] {status} {name}"
    if detail:
        msg += f" — {detail}"
    print(msg)
    assert ok, msg


def _unit(v):
    return v / np.linalg.norm(v)


def _worst(rep, check_id):
    return max(c.residual for c in rep.checks if c.check_id == check_id)


def test_criterion_01_su3_curvature_table():
    # every record holds an entry to 1e-9, or rank two (1e-10/1e-6) or the
    # range (both containments at 1e-8) at one angle
    rep = VerificationReport("criterion 01")
    t0 = time.time()
    check_su3_table(rep, None, None)
    dt = time.time() - t0
    failures = [f"{c.check_id}@{c.point}:{c.residual:.2e}"
                for c in rep.checks if not c.passed]
    if dt >= 1.0:
        failures.append(f"runtime {dt:.2f}s")
    worst = max(c.residual for c in rep.checks
                if c.check_id.startswith(("table-", "zero-")))
    _line(1, "su3-curvature-table", not failures,
          f"worst entry {worst:.2e}; " + (", ".join(failures)
                                          if failures else f"{dt:.2f}s"))


def test_criterion_02_closed_vs_fd_curvature():
    rng = np.random.default_rng(102)
    rep = VerificationReport("criterion 02")
    t0 = time.time()
    check_closed_vs_fd(rep, rng, 50)
    dt = time.time() - t0
    worst = _worst(rep, "closed-vs-fd")
    _line(2, "closed-vs-fd-curvature", worst < 1e-5 and dt < 10.0,
          f"max discrepancy {worst:.2e} in {dt:.2f}s")


def test_criterion_03_docility_dichotomy():
    rep = run_scenario(ScenarioConfig("so3-r3-docility", seed=103))
    res = {c.check_id: c.residual for c in rep.checks}
    # the witness is recorded exactly when the constant weight fails
    wr = res.get("witness-value", np.inf)
    cn = res["zero-curvature"]
    ok = (res["non-docile"] == 0.0 and wr < 1e-6 and res["docile"] == 0.0
          and cn < 1e-7)
    _line(3, "docility-dichotomy", ok,
          f"witness residual {wr:.2e}, vanishing-weight curvature {cn:.2e}")


def test_criterion_04_structure_equation():
    rng = np.random.default_rng(104)
    forms = [
        (get_action("so3-on-r3"), mu_q(lambda t: t), 34),
        (get_action("s1s1-on-so3"),
         simple_mechanical_mu(get_action("s1s1-on-so3")), 33),
        (get_action("hxh-on-su3"),
         tame(simple_mechanical_mu(get_action("hxh-on-su3"))), 33),
    ]
    worst = 0.0
    for A, mu, n in forms:
        for _ in range(n):
            m = regular_point(A, mu, rng)
            u = _unit(A.random_tangent(rng, m))
            v = _unit(A.random_tangent(rng, m))
            worst = max(worst, structure_residual(mu, m, u, v))
    _line(4, "structure-equation", worst < 1e-5,
          f"worst residual {worst:.2e} over 100 samples")


def test_criterion_05_projection_suite():
    rng = np.random.default_rng(105)
    cases = [
        ("so3-on-r3", mu_q(lambda t: t)),
        ("so3-on-s2", simple_mechanical_mu(get_action("so3-on-s2"))),
        ("s1s1-on-so3", simple_mechanical_mu(get_action("s1s1-on-so3"))),
        ("hxh-on-su3", simple_mechanical_mu(get_action("hxh-on-su3"))),
    ]
    worst_idem = worst_eq = 0.0
    dims_ok = True
    for name, mu in cases:
        A = get_action(name)
        for _ in range(1000):
            m = regular_point(A, mu, rng, cond=1e-3)
            P = projection_P_mu(mu, m)
            worst_idem = max(worst_idem, np.linalg.norm(P @ P - P))
            g = A.random_group(rng)
            if A.manifold_alg is not None:
                D = A.manifold_alg.Ad_matrix(g[0])
            else:
                D = np.asarray(g, float)
            P2 = projection_P_mu(mu, A.apply(g, m))
            worst_eq = max(worst_eq, np.linalg.norm(D @ P - P2 @ D))
            M = mu.matrix(m)
            rank_mu = np.linalg.matrix_rank(M, tol=1e-8 *
                                            np.linalg.norm(M, 2))
            dims_ok &= (rank_mu
                        == A.algebra.dim - isotropy_algebra(A, m).dim)
            dims_ok &= (at(mu, m).kernel.dim + orbit_tangent(A, m).dim
                        == A.vec_dim)
    ok = worst_idem < 1e-9 and worst_eq < 1e-8 and dims_ok
    _line(5, "projection-suite", ok,
          f"idempotency {worst_idem:.2e}, equivariance {worst_eq:.2e}, "
          f"dims {'exact' if dims_ok else 'BROKEN'}")


def test_criterion_06_interior_product_and_annihilator():
    rng = np.random.default_rng(106)
    forms = [
        (get_action("so3-on-r3"), mu_q(lambda t: t)),
        (get_action("s1s1-on-so3"),
         simple_mechanical_mu(get_action("s1s1-on-so3"))),
        (get_action("hxh-on-su3"),
         tame(simple_mechanical_mu(get_action("hxh-on-su3")))),
    ]
    worst_ip = 0.0
    for A, mu in forms:
        for _ in range(200):
            m = regular_point(A, mu, rng)
            eta = _unit(rng.standard_normal(A.algebra.dim))
            v = _unit(A.random_tangent(rng, m))
            worst_ip = max(worst_ip, interior_product_residual(mu, m, eta, v))
    # annihilator property at points with nontrivial isotropy
    worst_gc = 0.0
    mu3 = mu_q(lambda t: t)
    B = get_action("s1s1-on-so3")
    mus = simple_mechanical_mu(B)
    for _ in range(200):
        m = rng.standard_normal(3)
        m *= (0.5 + rng.random()) / np.linalg.norm(m)
        worst_gc = max(worst_gc, good_chi_residual(mu3, m, _unit(m), _unit(m)))
        g = exp_so3(rng.uniform(0.2, 1.2) * SIGMA)
        kern = at(mus, g).kernel
        u = _unit(kern.basis @ rng.standard_normal(kern.dim))
        z = _unit(isotropy_algebra(B, g).basis[:, 0])
        worst_gc = max(worst_gc, good_chi_residual(mus, g, u, z))
    ok = worst_ip < 1e-6 and worst_gc < 1e-6
    _line(6, "interior-product-and-annihilator", ok,
          f"interior {worst_ip:.2e}, annihilator {worst_gc:.2e}")


def test_criterion_07_slice_verification():
    A = get_action("s1s1-on-so3")
    mu = simple_mechanical_mu(A)
    rep = VerificationReport("criterion 07")
    # each builder draws from a generator of the seed, as in a scenario
    check_slice(rep, np.random.default_rng(107), 50)
    check_chi_eigen(rep, np.random.default_rng(107), 50)
    conditions = [c for c in rep.checks if c.check_id.startswith("slice-")]
    passed = sum(c.passed for c in conditions)
    worst_tan = _worst(rep, "tangency")
    worst_eig = _worst(rep, "chi-eigen")
    # flatness of the tamed form's (exactly differentiated) curvature
    nu = tame(mu)
    rng = np.random.default_rng(107)
    worst_cur = 0.0
    for _ in range(100):
        g = regular_point(A, mu, rng, cond=1e-3)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        worst_cur = max(worst_cur, np.linalg.norm(curvature(nu, g, u, v)))
    ok = (passed == len(conditions) and worst_tan < 1e-8
          and worst_eig < 1e-10 and worst_cur < 1e-7)
    _line(7, "slice-verification", ok,
          f"conditions {passed}/{len(conditions)}, "
          f"tangency {worst_tan:.2e}, eigen {worst_eig:.2e}, "
          f"curvature {worst_cur:.2e}")


def test_criterion_08_involutivity():
    rng = np.random.default_rng(108)
    ok = True
    details = []
    cases = [
        (get_action("so3-on-r3"), mu_q(lambda t: t), None),
        (get_action("so3-on-s2"),
         simple_mechanical_mu(get_action("so3-on-s2")), None),
        (get_action("s1s1-on-so3"),
         simple_mechanical_mu(get_action("s1s1-on-so3")), None),
        (get_action("hxh-on-su3"),
         tame(simple_mechanical_mu(get_action("hxh-on-su3"))), 3),
    ]
    for A, mu, npairs in cases:
        passed = total = 0
        for _ in range(50):
            m = regular_point(A, mu, rng, cond=1e-3)
            pairs = None
            if npairs is not None:
                E = np.eye(A.vec_dim)
                idx = rng.choice(A.vec_dim, size=2 * npairs, replace=False)
                pairs = [(E[idx[2 * k]], E[idx[2 * k + 1]])
                         for k in range(npairs)]
            rep = involutivity_check(mu, m, pairs=pairs)
            passed += rep.summary["passed"]
            total += rep.summary["total"]
        ok &= passed == total
        details.append(f"{A.name}:{passed}/{total}")
    # involutivity near the singular base point via the adapted form
    rep = VerificationReport("criterion 08")
    check_abel_involutivity(rep, np.random.default_rng(108), 50)
    ok &= rep.all_passed
    details.append(f"near-singular:{rep.summary['passed']}"
                   f"/{rep.summary['total']}")
    _line(8, "involutivity", ok, ", ".join(details))


def test_criterion_09_moving_frames():
    rep = VerificationReport("criterion 09")
    # each builder draws from a generator of the seed, as in a scenario
    check_us2_frame(rep, np.random.default_rng(109), 1000)
    check_latitude_curvature(rep, np.random.default_rng(109), None,
                             (0.5, 0.9, 1.3), np.linspace(0.0, 3.0, 7))
    pmf = pmf_from_field(eastward_field)
    worst_eq = _worst(rep, "rho-equivariance")
    worst_d = _worst(rep, "dnat-closed-form")
    worst_lat = _worst(rep, "latitude-curvature")
    beta = beta_equivariance_check(pmf, samples=200,
                                   rng=np.random.default_rng(109))
    worst_slip = _worst(beta, "slip-property")
    ok = (worst_eq < 1e-10 and worst_d < 1e-6 and worst_lat < 1e-5
          and beta.all_passed and worst_slip < 1e-9)
    _line(9, "moving-frames", ok,
          f"equivariance {worst_eq:.2e}, d-rho {worst_d:.2e}, "
          f"latitude {worst_lat:.2e}, slip {worst_slip:.2e}, "
          f"beta {beta.summary['passed']}/{beta.summary['total']}")


def test_criterion_10_full_suite_deterministic():
    cmd = [sys.executable, "-m", "gconn.cli", "--scenario",
           "property-suite-all", "--seed", "11"]
    t0 = time.time()
    a = subprocess.run(cmd, capture_output=True, text=True)
    dt = time.time() - t0
    b = subprocess.run(cmd, capture_output=True, text=True)
    ok = a.stdout == b.stdout and len(a.stdout) > 0 and dt < 60.0
    _line(10, "full-suite-deterministic", ok,
          f"{len(a.stdout)} bytes, identical={a.stdout == b.stdout}, "
          f"{dt:.2f}s")
