"""The gconn CLI run under the benchmark's tracer.

Behaves like ``python -m gconn.cli`` (same arguments, stdout and exit
status) and writes the per-span aggregates of the whole process as one
``PERFBENCH-TRACE {json}`` line to stderr, also when the CLI raises.

Usage: python3 perfbench/traced_cli.py --scenario NAME [--seed N ...]
"""

import json
import sys

import gconn.cli

from tracer import TRACE_MARK, Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        with tracer.op():
            code = gconn.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.totals()) + "\n")
    sys.exit(code)
