import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gconn
from gconn import actions, linalg
from gconn.connections import at
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
    """Counts of the entry points that decompose a matrix: the package's
    one SVD, ``gconn.linalg.svd``, and numpy.linalg's ``lstsq``, ``pinv``
    and spectral norm ``norm(A, 2)`` of a 2-d A."""
    counts = Counter()
    svd, lstsq = linalg.svd, np.linalg.lstsq
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

    monkeypatch.setattr(linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


@pytest.fixture
def generator_evaluations(monkeypatch):
    """Counts of the calls of every action's ``gen_matrix``, by the point
    they are made at (the bytes of its array)."""
    counts = Counter()

    def counted(gen_matrix):
        def wrapper(self, m):
            counts[np.asarray(m).tobytes()] += 1
            return gen_matrix(self, m)
        return wrapper

    for cls in vars(actions).values():
        if isinstance(cls, type) and "gen_matrix" in vars(cls):
            monkeypatch.setattr(cls, "gen_matrix",
                                counted(vars(cls)["gen_matrix"]))
    return counts


def general_Ad(alg, g, C):
    """Ad(g, C) by the general path: the conjugates of the matrices of the
    columns of C by inv(g), projected onto the basis with the span test."""
    stack = np.array([alg.matrix(c) for c in np.asarray(C).T])
    return alg._coords_columns(g @ stack @ np.linalg.inv(g))


def is_special_orthogonal(g, tol=1e-10):
    g = np.asarray(g, dtype=float)
    return (norm(g.T @ g - np.eye(g.shape[0])) < tol
            and abs(np.linalg.det(g) - 1.0) < tol)


def is_special_unitary(g, tol=1e-10):
    g = np.asarray(g, dtype=complex)
    return (np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])) < tol
            and abs(np.linalg.det(g) - 1.0) < tol)


def regular_point(action, form, rng, cond=1e-2):
    """Sample a point whose inertia factor is safely full-rank on the
    complement of the isotropy (stays off the singular set)."""
    for _ in range(10_000):
        m = action.random_point(rng)
        pt = at(form, m)
        s = pt.chi_svd.s
        # rank of the generator map: algebra dim minus isotropy dim
        r = pt.K_svd.rank
        if r > 0 and s[r - 1] > cond * s[0]:
            return m
    raise RuntimeError(f"no regular point of {action.name} in 10000 tries")
