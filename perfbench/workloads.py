"""The benchmark's seeded workloads and the checks on their outputs.

``torus-sweep`` and ``so3-sweep`` are closed loops of in-process requests
against the public ``gconn`` API; every input (points, tangent vectors,
group elements, sub-seeds) is generated from the workload seed before
timing starts.  ``cli-cold`` runs one fresh ``gconn`` CLI process per op.

Each request returns residual records ``(check, residual, threshold)``;
the thresholds are those of the matching acceptance criterion.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from gconn import actions, connections, curvature, frames, slices
from gconn.groups import exp_so3
from gconn.report import VerificationReport
from tracer import TRACE_MARK

SIGMA = np.array([0.0, 0.0, 1.0])

# acceptance-criterion thresholds
IDEMPOTENCY = 1e-9      # criterion 05
EQUIVARIANCE = 1e-8     # criterion 05
CLOSED_VS_FD = 1e-5     # criterion 02
STRUCTURE = 1e-5        # criterion 04
DNAT_RHO = 1e-6         # criterion 09
RHO_EQUIVARIANCE = 1e-10  # criterion 09
LATITUDE = 1e-5         # criterion 09
WITNESS = 1e-6          # criterion 03
BOOL = 0.5              # yes/no checks recorded as residual 0/1

MAX_TRIES = 10_000
# Seeded inputs per request slot: one pass of a sweep holds at least 100
# requests, so that its 90th percentile has ten beyond it, and few enough
# that each request runs twenty times or more in a 35 s run.
INPUTS_PER_KIND = {"torus-sweep": 5, "so3-sweep": 15}

SCENARIOS = ["so3-r3-basics", "so3-r3-docility", "hxh-su3-curvature",
             "s1s1-so3-slice", "us2-moving-frame", "s2-pmf-beta",
             "property-suite-all"]
CLI_TIMEOUT_S = 120


@dataclass(slots=True)
class OpResult:
    kind: str
    seconds: float
    misses: int = 0          # residual records over their threshold
    error: str | None = None  # exception type name of a failed op
    stdout: str = ""
    trace: dict | None = None


@dataclass(slots=True)
class Request:
    """Every run of one seeded request, folded as it completes so that
    memory does not grow with the number of runs (which would make a
    faster program read as a larger one)."""
    kind: str
    runs: int = 0
    failed: int = 0
    seconds: float = math.inf   # the fastest run
    total_s: float = 0.0
    misses: int = 0             # check misses of the first run
    error: str | None = None    # exception type of the first failed run

    def add(self, r: OpResult):
        if self.runs == 0:
            self.misses = r.misses
        self.runs += 1
        self.total_s += r.seconds
        self.seconds = min(self.seconds, r.seconds)
        if r.error is not None:
            self.failed += 1
            self.error = self.error or r.error


def fold(results):
    """One :class:`Request` per op of a schedule run once."""
    requests = [Request(r.kind) for r in results]
    for req, r in zip(requests, results):
        req.add(r)
    return requests


def count_misses(records):
    """Records ``(check, residual, threshold)`` over their threshold; a NaN
    residual counts as a miss."""
    return sum(1 for _, r, tol in records if not r <= tol)


def _norm(x):
    return float(np.linalg.norm(x))


def _unit(v):
    return v / np.linalg.norm(v)


def _report_records(rep):
    return [(c.check_id, c.residual, c.tolerance) for c in rep.checks]


def regular_point(action, form, rng, cond=1e-2):
    """A point whose inertia factor is well conditioned on the complement
    of the isotropy (the acceptance tests' regular-point filter)."""
    for _ in range(MAX_TRIES):
        m = action.random_point(rng)
        chi = form.matrix(m) @ action.gen_matrix(m)
        s = np.linalg.svd(chi, compute_uv=False)
        r = chi.shape[0] - actions.isotropy_algebra(action, m).dim
        if r > 0 and s[r - 1] > cond * s[0]:
            return m
    raise RuntimeError(f"no regular point of {action.name} in {MAX_TRIES} "
                       "tries")


# ---------------------------------------------------------------------------
# request kinds: each takes the workload's forms and an rng, draws its
# inputs, and returns the request as a closure

def projection(action, mu, rng):
    """P_mu is idempotent and equivariant at g.m (criterion 05)."""
    m = regular_point(action, mu, rng, cond=1e-3)
    g = action.random_group(rng)
    gm = action.apply(g, m)

    def run():
        P = connections.projection_P_mu(mu, m)
        if action.manifold_alg is not None:
            D = action.manifold_alg.Ad_matrix(g[0])
        else:
            D = np.asarray(g, float)
        P2 = connections.projection_P_mu(mu, gm)
        return [("idempotency", _norm(P @ P - P), IDEMPOTENCY),
                ("equivariance", _norm(D @ P - P2 @ D), EQUIVARIANCE)]
    return run


def closed_vs_fd(action, mu, tamed, rng):
    """Closed-form torus curvature against finite differences of the
    tamed form (criterion 02)."""
    g = regular_point(action, mu, rng)
    u = rng.standard_normal(action.vec_dim)
    v = rng.standard_normal(action.vec_dim)

    def run():
        cf = curvature.curvature_leftright_closed(action, g, u, v)
        fd = curvature.curvature(tamed, g, u, v)
        return [("closed-vs-fd", float(np.max(np.abs(cf - fd))),
                 CLOSED_VS_FD)]
    return run


def structure(action, form, rng):
    """Structure equation at one sample (criterion 04)."""
    m = regular_point(action, form, rng)
    u = _unit(action.random_tangent(rng, m))
    v = _unit(action.random_tangent(rng, m))

    def run():
        return [("structure", curvature.structure_residual(form, m, u, v),
                 STRUCTURE)]
    return run


def involutivity(action, form, rng):
    """Involutivity on one basis pair at a regular point (criterion 08)."""
    m = regular_point(action, form, rng, cond=1e-3)
    i, j = rng.choice(action.vec_dim, size=2, replace=False)
    E = np.eye(action.vec_dim)

    def run():
        return _report_records(
            curvature.involutivity_check(form, m, pairs=[(E[i], E[j])]))
    return run


def _stabilizer(rg):
    R = exp_so3(2 * np.pi * rg.random() * SIGMA)
    return (R, R)


def _nearby(rg):
    a, b = 0.2 * rg.standard_normal(2)
    while abs(a - b) < 1e-3:
        a, b = 0.2 * rg.standard_normal(2)
    return (exp_so3(a * SIGMA), exp_so3(b * SIGMA))


def _iota(g):
    return np.eye(2) / (1.0 + float(SIGMA @ (np.asarray(g) @ SIGMA)))


def slice_sample(forms, rng):
    """One sample of the Cayley slice conditions (criterion 07)."""
    seed = int(rng.integers(2**63))

    def run():
        return _report_records(slices.slice_verify(
            forms["slice"], forms["s1s1"], np.eye(3), samples=1,
            rng=np.random.default_rng(seed),
            stabilizer_sampler=_stabilizer, nearby_sampler=_nearby))
    return run


def abel_sample(forms, rng):
    """One sample of near-singular involutivity (criterion 08)."""
    seed = int(rng.integers(2**63))

    def run():
        return _report_records(slices.abel_involutivity(
            forms["s1s1_mu"], forms["adaptor"], forms["pi"], _iota,
            samples=1, rng=np.random.default_rng(seed)))
    return run


def docile_at_origin(forms, rng):
    """Docility dichotomy at the origin on random probes (criterion 03)."""
    probes = list(rng.standard_normal((3, 3)))

    def run():
        origin = np.zeros(3)
        ok1, witness = curvature.docile(forms["r3_mu1"], origin, probes)
        wr = np.inf
        if witness is not None:
            u, v, val = witness
            wr = _norm(val - 2.0 * np.cross(u, v))
        ok_t, _ = curvature.docile(forms["r3_mu"], origin, probes)
        return [("non-docile", float(ok1), BOOL), ("witness", wr, WITNESS),
                ("docile", float(not ok_t), BOOL)]
    return run


def dnat_rho_sample(forms, rng):
    """Moving frame on US^2: equivariance and closed-form derivative
    against finite differences (criterion 09)."""
    A = forms["us2"]
    p = A.random_point(rng)
    g = A.random_group(rng)
    gp = A.apply(g, p)
    v = A.random_tangent(rng, p)

    def run():
        eq = _norm(frames.rho_us2(gp) - np.asarray(g) @ frames.rho_us2(p))
        d = _norm(frames.dnat_rho(p, v) - frames.dnat_rho_fd(p, v))
        return [("rho-equivariance", eq, RHO_EQUIVARIANCE),
                ("dnat-rho", d, DNAT_RHO)]
    return run


def beta_sample(forms, rng):
    """One sample of the slip-relative equivariance identities
    (criterion 09)."""
    seed = int(rng.integers(2**63))

    def run():
        return _report_records(frames.beta_equivariance_check(
            forms["pmf"], samples=1, rng=np.random.default_rng(seed)))
    return run


def latitude_sample(forms, rng):
    """Partial-frame derivative along one latitude carries the cot(theta0)
    geodesic curvature (criterion 09)."""
    theta0 = rng.uniform(0.5, 1.3)
    ts = rng.uniform(0.0, 3.0, size=7)

    def run():
        pt, vel = frames.latitude_curve(theta0)
        worst = 0.0
        for t in ts:
            m, dm = pt(t), vel(t)
            pred = np.cross(m, dm) + m / np.tan(theta0)
            worst = max(worst, _norm(forms["pmf"].dnat_phi(m, dm) - pred))
        return [("latitude", worst, LATITUDE)]
    return run


# ---------------------------------------------------------------------------
# workloads

def torus_forms():
    su3 = actions.get_action("hxh-on-su3")
    so3 = actions.get_action("s1s1-on-so3")
    su3_mu = connections.simple_mechanical_mu(su3)
    s1s1_mu = connections.simple_mechanical_mu(so3)
    return {
        "su3": su3, "su3_mu": su3_mu, "su3_tamed": curvature.tame(su3_mu),
        "s1s1": so3, "s1s1_mu": s1s1_mu, "s1s1_tamed": curvature.tame(s1s1_mu),
        "slice": slices.cayley_slice(SIGMA, np.eye(3)),
        "adaptor": slices.trivial_adaptor(so3, np.eye(3)),
        "pi": 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    }


def torus_kinds(f):
    su3 = [
        ("hxh-projection", lambda r: projection(f["su3"], f["su3_mu"], r)),
        ("hxh-closed-vs-fd", lambda r: closed_vs_fd(
            f["su3"], f["su3_mu"], f["su3_tamed"], r)),
        ("hxh-structure", lambda r: structure(f["su3"], f["su3_tamed"], r)),
        ("hxh-involutivity",
         lambda r: involutivity(f["su3"], f["su3_tamed"], r)),
    ]
    s1s1 = [
        ("s1s1-projection", lambda r: projection(f["s1s1"], f["s1s1_mu"], r)),
        ("s1s1-closed-vs-fd", lambda r: closed_vs_fd(
            f["s1s1"], f["s1s1_mu"], f["s1s1_tamed"], r)),
        ("s1s1-structure", lambda r: structure(f["s1s1"], f["s1s1_mu"], r)),
        ("s1s1-involutivity",
         lambda r: involutivity(f["s1s1"], f["s1s1_mu"], r)),
        ("s1s1-slice", lambda r: slice_sample(f, r)),
        ("s1s1-abel", lambda r: abel_sample(f, r)),
    ]
    # Three s1s1 rounds per hxh round: with equal weights the median and
    # the 90th percentile of the mixed latencies fall exactly between two
    # request kinds, and jump between them from run to run.
    return su3 + s1s1 * 3


def so3_forms():
    return {
        "r3": actions.get_action("so3-on-r3"),
        "r3_mu": connections.mu_q(lambda t: t),
        "r3_mu1": connections.mu_q(lambda t: 1.0),
        "s2": actions.get_action("so3-on-s2"),
        "s2_mu": connections.simple_mechanical_mu(
            actions.get_action("so3-on-s2")),
        "us2": actions.get_action("so3-on-us2"),
        "pmf": frames.pmf_from_field(frames.eastward_field),
    }


def so3_kinds(f):
    return [
        ("r3-projection", lambda r: projection(f["r3"], f["r3_mu"], r)),
        ("s2-projection", lambda r: projection(f["s2"], f["s2_mu"], r)),
        ("r3-structure", lambda r: structure(f["r3"], f["r3_mu"], r)),
        ("r3-docile", lambda r: docile_at_origin(f, r)),
        ("us2-dnat-rho", lambda r: dnat_rho_sample(f, r)),
        ("s2-beta", lambda r: beta_sample(f, r)),
        ("s2-latitude", lambda r: latitude_sample(f, r)),
    ]


SWEEPS = {"torus-sweep": (torus_forms, torus_kinds),
          "so3-sweep": (so3_forms, so3_kinds)}


def sweep_ops(workload, forms, seed, per_kind=None):
    """The round-robin request list: ``per_kind`` rounds of every slot,
    each slot drawing fresh inputs from the seeded stream."""
    rng = np.random.default_rng(seed)
    slots = SWEEPS[workload][1](forms)
    per_kind = per_kind or INPUTS_PER_KIND[workload]
    return [(kind, make(rng)) for _ in range(per_kind)
            for kind, make in slots]


def run_op(kind, run, tracer=None):
    """One request, timed; an exception fails the op and is recorded."""
    start = time.perf_counter()
    try:
        with tracer.op() if tracer else nullcontext():
            misses = count_misses(run())
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        misses, error = 0, type(exc).__name__
    return OpResult(kind, time.perf_counter() - start, misses, error)


def closed_loop(ops, seconds, tracer=None, count=None, requests=None):
    """Run ``ops`` round-robin, one at a time, until ``seconds`` elapse (or,
    given ``count``, for exactly that many ops), folding each run into
    ``requests[i]`` for op ``i``.  Passing the ``requests`` of an earlier
    loop continues it where it stopped."""
    if requests is None:
        requests = [Request(kind) for kind, _ in ops]
    i = sum(r.runs for r in requests)
    done = 0
    deadline = time.perf_counter() + seconds
    while (done < count if count is not None
           else time.perf_counter() < deadline):
        kind, run = ops[(i + done) % len(ops)]
        requests[(i + done) % len(ops)].add(run_op(kind, run, tracer))
        done += 1
    return requests


# ---------------------------------------------------------------------------
# cli-cold

def cli_schedule(seed, cycles):
    """(scenario, CLI seed) pairs: all seven scenarios at each of the
    consecutive CLI seeds 0 .. cycles-1, which include the CLI default 0.

    The window is the same for every ``seed``, which only shuffles the
    scenario order within each cycle: the set of ops, and with it the
    failures and check misses, must not change between runs.
    """
    rng = random.Random(seed)
    return [(s, k) for k in range(cycles)
            for s in rng.sample(SCENARIOS, len(SCENARIOS))]


_EXC_LINE = re.compile(r"^([A-Za-z_][\w.]*)(?::|$)")


def _exception_type(stderr):
    """Type name from the last line of a traceback, if there is one."""
    for line in reversed(stderr.strip().splitlines()):
        if line.startswith(TRACE_MARK):
            continue
        m = _EXC_LINE.match(line)
        return m.group(1).rsplit(".", 1)[-1] if m else None
    return None


def judge_report(stdout, returncode):
    """Parse a CLI report and check it against itself.

    Returns ``(report, problem)``: ``report`` is None when the stdout is not
    a report whose summary matches its records; ``problem`` names an
    inconsistency in a report that did parse (a wrong output).
    """
    try:
        data = json.loads(stdout)
        rep = VerificationReport.from_json(stdout)
    except (ValueError, KeyError, TypeError):
        return None, None
    if data.get("summary") != rep.summary:
        return None, "summary does not match records"
    if any(c.passed != (c.residual <= c.tolerance) for c in rep.checks):
        return rep, "a record's pass flag disagrees with its residual"
    if returncode != (0 if rep.all_passed else 1):
        return rep, f"exit status {returncode} with {rep.summary}"
    return rep, None


def run_cli_op(scenario, seed, env, traced_cli=None):
    """One fresh CLI process; ``traced_cli`` runs it under the tracer."""
    entry = [str(traced_cli)] if traced_cli else ["-m", "gconn.cli"]
    cmd = [sys.executable, *entry, "--scenario", scenario,
           "--seed", str(seed)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return OpResult(scenario, time.perf_counter() - start,
                        error="Timeout"), None
    seconds = time.perf_counter() - start
    trace = None
    for line in proc.stderr.splitlines():
        if line.startswith(TRACE_MARK):
            trace = json.loads(line[len(TRACE_MARK):])
    rep, problem = judge_report(proc.stdout, proc.returncode)
    if rep is None:
        error = _exception_type(proc.stderr) or problem or "NoReport"
        return OpResult(scenario, seconds, error=error,
                        stdout=proc.stdout, trace=trace), problem
    return OpResult(scenario, seconds, rep.summary["failed"],
                    stdout=proc.stdout, trace=trace), problem

