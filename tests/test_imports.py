"""Every name that the package and its tests import is used.

The check parses each module with :mod:`ast` and fails on an imported name
that the module never reads.  Names listed in a module's ``__all__`` and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/gconn/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """The imported names of ``source`` that it never reads, sorted."""
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= {e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant)}
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau\n__all__ = ['tau']\nnp.zeros(pi)\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
