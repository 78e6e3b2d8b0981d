"""Span tracer that wraps the public functions of the ``gconn`` modules.

The tracer lives entirely in the benchmark: it replaces each function in
:data:`TARGETS` by a wrapper that records one span per call (name, start,
end, parent span, op id) into flat in-memory arrays, and rebinds every
``from ... import`` alias of a wrapped function in every loaded ``gconn``
module, so that a call made through such an alias is counted too.  The
``numpy.linalg`` kernels in :data:`COUNTED` are counted without spans.

A layer's self time is its span's duration minus the part covered by its
child spans; spans nest because everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute path inside the module, report an `.errors` count)
TARGETS = [
    ("groups", "LieAlgebra.coords", False),
    ("groups", "LieAlgebra.Ad_matrix", False),
    ("groups", "LieAlgebra.bracket", False),
    ("groups", "LieAlgebra.exp", False),
    ("actions", "So3OnR3.gen_matrix", False),
    ("actions", "So3OnS2.gen_matrix", False),
    ("actions", "So3OnUS2.gen_matrix", False),
    ("actions", "TorusSquareOnGroup.gen_matrix", False),
    ("actions", "isotropy_algebra", False),
    ("actions", "orbit_tangent", False),
    ("actions", "get_action", False),
    ("connections", "DualForm.matrix", False),
    ("connections", "inertia_factor", True),
    ("connections", "gamma_apply", False),
    ("connections", "projection_P_mu", False),
    ("connections", "dual_form_verify", False),
    ("curvature", "d_oneform", False),
    ("curvature", "field_bracket", False),
    ("curvature", "covariant_derivative", False),
    ("curvature", "curvature", True),
    ("curvature", "curvature_leftright_closed", False),
    ("curvature", "structure_residual", False),
    ("curvature", "involutivity_check", False),
    ("curvature", "docile", False),
    ("linalg", "rank_nullspace", False),
    ("linalg", "range_space", False),
    ("linalg", "solve_consistent", True),
    ("linalg", "central_difference", False),
    ("linalg", "curve_derivative", False),
    ("linalg", "Subspace.__init__", False),
    ("slices", "SliceCandidate.locate", False),
    ("slices", "slice_verify", False),
    ("slices", "abel_involutivity", False),
    ("slices", "almost_horizontal_basis", False),
    ("slices", "adapted_inertia", False),
    ("frames", "rho_us2", False),
    ("frames", "dnat_rho_fd", False),
    ("frames", "PartialMovingFrame.dnat_phi", False),
    ("frames", "PartialMovingFrame.slip", False),
    ("frames", "PartialMovingFrame.dnat_slip", False),
    ("frames", "beta_equivariance_check", False),
    ("report", "VerificationReport.add", False),
    ("report", "VerificationReport.to_json", False),
    ("cli", "run_scenario", False),
    ("cli", "main", False),
]

# numpy.linalg kernels counted (no spans): the floor every layer sits on.
COUNTED = ["svd", "lstsq", "pinv", "inv", "solve", "eigh"]

PSI_EVALS = "slices.SliceCandidate.locate.psi_evals"
OP = "op"
# prefix of the stderr line that carries a traced CLI process's totals
TRACE_MARK = "PERFBENCH-TRACE "


def span_name(module, path):
    return f"{module}.{path}"


class Tracer:
    """Records spans of the wrapped functions while installed.

    Use :meth:`install` / :meth:`uninstall` (or the tracer as a context
    manager) around the traced ops, and :meth:`op` around each op so that
    its spans share an op id and a root span.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.errors = Counter()
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._restore = []

    # -- recording ------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(i)

        return functools.update_wrapper(traced, fn)

    def _counting(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _locate(self, fn):
        """Wrap SliceCandidate.locate and count the psi evaluations of
        each inversion (the Gauss-Newton work)."""
        counts = self.counts

        def locate(slice_, *args, **kwargs):
            psi = slice_.psi

            def counted_psi(p):
                counts[PSI_EVALS] += 1
                return psi(p)

            slice_.psi = counted_psi
            try:
                return fn(slice_, *args, **kwargs)
            finally:
                slice_.psi = psi

        return self.wrap(span_name("slices", "SliceCandidate.locate"), locate)

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; nested spans carry its op id."""
        self._op += 1
        i = self._open(self._id(OP))
        try:
            yield
        finally:
            self._close(i)

    # -- installing -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {m: importlib.import_module(f"gconn.{m}")
                   for m in {t[0] for t in TARGETS}}
        gconn_modules = [mod for key, mod in list(sys.modules.items())
                         if mod is not None
                         and (key == "gconn" or key.startswith("gconn."))]
        for module, path, _ in TARGETS:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if path == "SliceCandidate.locate":
                wrapped = self._locate(original)
            else:
                wrapped = self.wrap(span_name(module, path), original)
            self._set(owner, attr, wrapped)
            if not outer:
                # rebind `from .x import f` aliases held by other modules
                for mod in gconn_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for name in COUNTED:
            self._set(np.linalg, name,
                      self._counting(f"numpy.linalg.{name}",
                                     getattr(np.linalg, name)))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the child spans it covers."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def totals(self):
        """Aggregate per span name: calls, self seconds and errors, plus
        the plain counters."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self.self_times(),
                             minlength=len(self.names))
        out = {name: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                      "errors": int(self.errors[name])}
               for k, name in enumerate(self.names)}
        out.update({name: {"calls": int(n), "self_s": 0.0, "errors": 0}
                    for name, n in self.counts.items()})
        return out


def merge(totals, more):
    """Add the aggregates ``more`` into ``totals`` in place."""
    for name, rec in more.items():
        acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                       "errors": 0})
        for key in acc:
            acc[key] += rec[key]


def per_layer_metrics(totals, ops):
    """Per-op metrics for every target, in a fixed order and unit."""
    ops = max(ops, 1)
    out = {}

    def rec(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})

    for module, path, errors in TARGETS:
        name = span_name(module, path)
        r = rec(name)
        out[f"{name}.calls"] = (r["calls"] / ops, "calls/op")
        out[f"{name}.self_s"] = (r["self_s"] / ops, "s/op")
        if errors:
            out[f"{name}.errors"] = (r["errors"] / ops, "errors/op")
    locate_calls = rec(span_name("slices", "SliceCandidate.locate"))["calls"]
    out["slices.locate.psi_evals_per_call"] = (
        rec(PSI_EVALS)["calls"] / locate_calls if locate_calls else 0.0,
        "evals/call")
    for name in COUNTED:
        out[f"numpy.linalg.{name}.calls"] = (
            rec(f"numpy.linalg.{name}")["calls"] / ops, "calls/op")
    return out
