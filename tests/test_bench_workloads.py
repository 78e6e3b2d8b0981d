"""The benchmark's sweeps call the public ``gconn`` API by name and keyword
(``samples``, ``rng``, the slice samplers); one pass of each must run every
request without a failed op or a check miss."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload, requests", [("torus-sweep", 22),
                                                ("so3-sweep", 7)])
def test_one_pass_of_each_sweep_runs_clean(workloads, workload, requests):
    forms = workloads.SWEEPS[workload][0]()
    ops = workloads.sweep_ops(workload, forms, 0, per_kind=1)
    results = [workloads.run_op(kind, run) for kind, run in ops]
    assert len(results) == requests
    assert [(r.kind, r.error) for r in results if r.error] == []
    assert [(r.kind, r.misses) for r in results if r.misses] == []
