"""The functions of ``src/gconn`` that no CLI report reaches.

Usage: ``python tests/reach.py`` prints, one a line, every function defined
in the ``gconn`` package that a fresh interpreter does not call while it
imports ``gconn.cli`` and runs ``cli.main`` over every scenario at seed 0:
one run with ``--format text``, one with ``--out`` to a temporary file,
and the others writing JSON to stdout.  A function is named
``module.qualname``; nested functions and lambdas count, comprehensions
and class bodies do not, and a list, set or dict comprehension is left out
of a qualname, as Python 3.12 inlines them.
"""

import contextlib
import importlib.util
import io
import re
import sys
import tempfile
from pathlib import Path

_CO_OPTIMIZED = 0x1  # set on the code of a function, not of a class body


def _name(module, code):
    """module.qualname of ``code``, without comprehension segments."""
    return re.sub(r"<(list|set|dict)comp>\.", "",
                  f"{module}.{code.co_qualname}")


def _defined(package):
    """module.qualname of every function whose code is in ``package``."""
    names = set()

    def walk(code, module):
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                if (const.co_flags & _CO_OPTIMIZED
                        and (not const.co_name.startswith("<")
                             or const.co_name == "<lambda>")):
                    names.add(_name(module, const))
                walk(const, module)

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return names


def unreached():
    package = Path(importlib.util.find_spec("gconn").origin).parent
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(package)):
            called.add(_name(Path(code.co_filename).stem, code))

    with tempfile.TemporaryDirectory() as tmp:
        flags = {0: ["--format", "text"],
                 1: ["--out", str(Path(tmp, "report.json"))]}
        sys.setprofile(profile)
        try:
            from gconn import cli
            with contextlib.redirect_stdout(io.StringIO()):
                for i, name in enumerate(sorted(cli.SCENARIOS)):
                    cli.main(["--scenario", name, "--seed", "0"]
                             + flags.get(i, []))
        finally:
            sys.setprofile(None)
    return sorted(_defined(package) - called)


if __name__ == "__main__":
    print("\n".join(unreached()))
