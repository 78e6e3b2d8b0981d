"""Every function of ``src/gconn`` is reached by a CLI report, or it is
listed here with the reason it stays (ROADMAP item 17)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gconn

INTERFACE = "Action interface"
ERROR_PATH = "error path"
PERFBENCH = "perfbench target or workload"
TEST_UTILITY = "test utility"

# module.qualname -> why it stays though no report calls it
UNREACHED = {
    # the base methods that every action overrides
    "actions.Action.Ad_group": INTERFACE,
    "actions.Action.apply": INTERFACE,
    "actions.Action.dPhi": INTERFACE,
    "actions.Action.dgen_matrix": INTERFACE,
    "actions.Action.gen_matrix": INTERFACE,
    "actions.Action.group_exp": INTERFACE,
    "actions.Action.random_point": INTERFACE,
    "actions.Action.retract": INTERFACE,
    "actions.Action.tangent_metric": INTERFACE,
    # an action's methods that no record calls (ROADMAP items 3 and 17)
    "actions.So3OnS2.dproject_tangent": INTERFACE,
    "actions.So3OnS2.random_point": INTERFACE,
    "actions.So3OnUS2.dproject_tangent": INTERFACE,
    "actions.So3OnUS2.gen_matrix": INTERFACE,
    "actions.So3OnVectors.dgen_matrix": INTERFACE,
    "actions.TorusSquareAlgebra.ad_matrix": INTERFACE,
    "actions.TorusSquareAlgebra.bracket": INTERFACE,
    "actions.TorusSquareAlgebra.embed": INTERFACE,
    "actions.TorusSquareAlgebra.split": INTERFACE,
    "actions.TorusSquareOnGroup.Ad_group": INTERFACE,
    "actions.TorusSquareOnGroup.dPhi": INTERFACE,
    "actions.TorusSquareOnGroup.group_exp": INTERFACE,
    "actions.TorusSquareOnGroup.group_inv": INTERFACE,
    "actions.action_names": TEST_UTILITY,
    "connections.gamma_apply": PERFBENCH,
    "connections.inertia_factor": PERFBENCH,
    # criteria 04, 05, 06 and half of 08 have no builder (ROADMAP item 3)
    "curvature.good_chi_residual": TEST_UTILITY,
    "curvature.horizontal_field": PERFBENCH,
    "curvature.horizontal_field.<locals>.X": PERFBENCH,
    "curvature.horizontal_field.<locals>.derivative": PERFBENCH,
    "curvature.interior_product_residual": TEST_UTILITY,
    "curvature.involutivity_check": PERFBENCH,
    "curvature.structure_residual": PERFBENCH,
    "groups.LieAlgebra.Ad_matrix": PERFBENCH,
    "groups.LieAlgebra.__repr__": TEST_UTILITY,
    "groups.LieAlgebra.coords": PERFBENCH,
    "linalg.InconsistentSystemError.__init__": ERROR_PATH,
    "linalg.SVD.cond": ERROR_PATH,
    "linalg.SVD.gap": ERROR_PATH,
    "linalg.Subspace.__repr__": TEST_UTILITY,
    "linalg.central_difference": PERFBENCH,
    "linalg.central_difference.<locals>.<lambda>": PERFBENCH,
    "linalg.solve_consistent": PERFBENCH,
    "report.VerificationReport.from_json": PERFBENCH,
}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="code objects carry co_qualname from Python 3.11")
def test_the_unreached_functions_are_the_listed_ones():
    # a fresh interpreter, so that import-time and first-use calls count,
    # importing the gconn that this test imports
    env = dict(os.environ, PYTHONPATH=str(Path(gconn.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reach.py"))],
        capture_output=True, text=True, check=True, env=env).stdout
    unreached = set(out.split())
    assert sorted(set(UNREACHED) - unreached) == [], "reached: unlist them"
    assert sorted(unreached - set(UNREACHED)) == [], "unreached: list them"
