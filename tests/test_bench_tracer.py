"""The benchmark's tracer wraps gconn functions by name; a rename in
``src/`` must not leave one of its targets dangling, and its counts read
the work the code does."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gconn.slices import cayley_slice

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    missing = []
    for module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"gconn.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the lookup Tracer.install makes
        if attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert not missing, missing


def test_tracer_counts_one_psi_evaluation_per_locate():
    """Locating an on-slice point evaluates the slice once, so the
    benchmark's slices.locate.psi_evals_per_call reads 1."""
    tracer = _load_tracer()
    S = cayley_slice(np.array([0.0, 0.0, 1.0]), np.eye(3))
    target = S.psi(np.array([0.1, -0.2]))
    with tracer.Tracer() as t:
        _, resid = S.locate(target)
    totals = t.totals()
    assert resid <= 1e-15
    assert totals["slices.SliceCandidate.locate"]["calls"] == 1
    assert totals[tracer.PSI_EVALS]["calls"] == 1
    assert tracer.per_layer_metrics(totals, 1)[
        "slices.locate.psi_evals_per_call"] == (1.0, "evals/call")
