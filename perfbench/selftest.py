"""Tests of the benchmark's own machinery (tracer, percentiles, report
judging).  Not collected by the repository's test run; run them with

    python3 -m pytest perfbench/selftest.py

or ``python3 perfbench/selftest.py`` from the root of the checkout.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gconn.curvature  # noqa: E402
import gconn.linalg  # noqa: E402
import gconn.slices  # noqa: E402
from gconn.report import VerificationReport  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OP, Tracer  # noqa: E402


def test_alias_reached_call_is_counted():
    # slices calls central_difference only through its own
    # `from .linalg import central_difference` alias
    original = gconn.linalg.central_difference
    sl = gconn.slices.cayley_slice(workloads.SIGMA, np.eye(3))
    target = sl.psi(np.array([0.1, -0.2]))
    with Tracer() as tracer:
        assert gconn.slices.central_difference.__wrapped__ is original
        params, resid = sl.locate(target)
    totals = tracer.totals()
    assert resid < 1e-10
    assert totals["linalg.central_difference"]["calls"] > 0
    assert totals["slices.SliceCandidate.locate"]["calls"] == 1
    assert totals["slices.SliceCandidate.locate.psi_evals"]["calls"] > 0
    # uninstalling restores every alias
    assert gconn.slices.central_difference is original
    assert gconn.linalg.central_difference is original


def test_errors_are_counted_and_reraised():
    with Tracer() as tracer:
        try:
            gconn.linalg.solve_consistent(np.zeros((2, 2)), np.ones(2))
        except gconn.linalg.InconsistentSystemError:
            pass
        else:
            raise AssertionError("expected InconsistentSystemError")
    assert tracer.totals()["linalg.solve_consistent"]["errors"] == 1


def test_self_times_of_one_op_fit_in_its_wall_time():
    forms = workloads.torus_forms()
    ops = workloads.sweep_ops("torus-sweep", forms, seed=3, per_kind=1)
    kind, request = next(o for o in ops if o[0] == "hxh-involutivity")
    with Tracer() as tracer:
        t0 = time.perf_counter()
        result = workloads.run_op(kind, request, tracer)
        wall = time.perf_counter() - t0
    assert result.error is None and result.misses == 0
    self_s = tracer.self_times()
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    layers = ids != tracer.names.index(OP)
    assert layers.sum() > 100
    assert np.all(self_s >= 0.0)
    assert self_s[layers].sum() <= wall
    # root span plus layer self times telescope to the op's duration
    root = tracer.end[0] - tracer.start[0]
    assert abs(self_s.sum() - root) < 1e-9 * max(1.0, len(self_s))


def test_failed_op_ranks_slower_than_completed_ops():
    results = [workloads.OpResult("a", 0.5),
               workloads.OpResult("b", 0.1, error="DegeneracyError"),
               workloads.OpResult("c", 0.2)]
    assert run.percentile_ms(results, 0.3) == 0.2 * 1e3
    assert run.percentile_ms(results, 0.5) == 0.5 * 1e3
    assert run.percentile_ms(results, 1.0) == 0.5 * 1e3


def test_request_time_is_its_fastest_run():
    # two requests run round-robin; request b fails once
    results = [workloads.OpResult("a", 0.4, misses=1),
               workloads.OpResult("b", 0.3),
               workloads.OpResult("a", 0.1),
               workloads.OpResult("b", 0.2, error="DegeneracyError"),
               workloads.OpResult("a", 0.2, misses=1)]
    runs = iter(results)
    orig = workloads.run_op
    workloads.run_op = lambda kind, run, tracer=None: next(runs)
    try:
        ops = [("a", None), ("b", None)]
        requests = workloads.closed_loop(ops, 0, count=2)
        workloads.closed_loop(ops, 0, count=3, requests=requests)
    finally:
        workloads.run_op = orig
    assert [r.runs for r in requests] == [3, 2]
    assert [r.seconds for r in workloads.fold(results)] == [
        r.seconds for r in results]
    s = run.summarize(requests)
    assert (s["attempted"], s["failed"], s["requests"]) == (5, 1, 2)
    assert s["ops_per_s"] == 1 / (0.1 + 0.2)
    assert s["op_p50_ms"] == s["op_p90_ms"] == 0.1 * 1e3
    assert (s["judged"], s["checks_failed"]) == (2, 1)
    assert abs(s["ms_per_op"] - 1.2 / 5 * 1e3) < 1e-9


def test_judge_report():
    rep = VerificationReport(scenario="x")
    rep.add("ok", "passes", 1e-12, 1e-9)
    rep.add("miss", "fails", 1e-3, 1e-9)
    text = rep.to_json()
    parsed, problem = workloads.judge_report(text, 1)
    assert parsed is not None and problem is None
    assert workloads.judge_report(text, 0)[1] is not None
    assert workloads.judge_report("", 1) == (None, None)
    bad = text.replace('"failed": 1', '"failed": 0')
    assert workloads.judge_report(bad, 1)[0] is None
    tb = ("Traceback (most recent call last):\n  File ...\n"
          "gconn.connections.DegeneracyError: ker chi has dim 1\n")
    assert workloads._exception_type(tb) == "DegeneracyError"


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
