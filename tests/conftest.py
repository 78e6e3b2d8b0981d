from collections import Counter

import numpy as np
import pytest


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
