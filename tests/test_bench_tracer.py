"""The benchmark's tracer wraps gconn functions by name; a rename in
``src/`` must not leave one of its targets dangling."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
