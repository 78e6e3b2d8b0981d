import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gconn
from gconn.linalg import norm


@pytest.fixture(scope="session", autouse=True)
def cli_imports_this_tree():
    """The CLI tests start ``python -m gconn.cli`` in a subprocess; it must
    import the tree the tests import, also where only pytest's
    ``pythonpath`` setting put that tree on ``sys.path``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(gconn.__file__).parents[1]),
                  prepend=os.pathsep)
        yield


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of the numpy.linalg entry points that decompose a matrix:
    ``svd``, ``lstsq``, ``pinv`` and the spectral norm ``norm(A, 2)`` of a
    2-d A."""
    counts = Counter()
    svd, lstsq = np.linalg.svd, np.linalg.lstsq
    pinv, norm = np.linalg.pinv, np.linalg.norm

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_lstsq(*args, **kwargs):
        counts["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counted_pinv(*args, **kwargs):
        counts["pinv"] += 1
        return pinv(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["spectral_norm"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


def is_special_orthogonal(g, tol=1e-10):
    g = np.asarray(g, dtype=float)
    return (norm(g.T @ g - np.eye(g.shape[0])) < tol
            and abs(np.linalg.det(g) - 1.0) < tol)


def is_special_unitary(g, tol=1e-10):
    g = np.asarray(g, dtype=complex)
    return (np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])) < tol
            and abs(np.linalg.det(g) - 1.0) < tol)
