"""Set-up probe, run in a fresh interpreter: time importing gconn, then
building the action registry and the forms a workload needs before its
first op.  Prints ``{"import_s": ..., "registry_s": ...}``.

Usage: python3 perfbench/probe.py WORKLOAD
"""

import json
import sys
import time

t0 = time.perf_counter()
workload = sys.argv[1]
if workload == "cli-cold":
    import gconn.cli
    t1 = time.perf_counter()
    gconn.actions.action_names()
else:
    import gconn.actions
    import gconn.connections
    import gconn.curvature
    import gconn.frames
    import gconn.slices
    t1 = time.perf_counter()
    import workloads
    workloads.SWEEPS[workload][0]()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "registry_s": t2 - t1}))
