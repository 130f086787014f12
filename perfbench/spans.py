"""Span recorder that wraps lapbasis's public functions from outside.

Each wrapped function records a span (name, start, end, parent) and
counters at the same boundary.  Wrappers are installed by replacing the
attribute at every name a caller looks up: every ``lapbasis`` module
attribute that is the original function, or the class attribute for a
method.  No file of the library changes.  A target that no longer exists
is skipped, so its metrics read zero instead of raising.

Every per-layer time is self time: the span's duration minus the spans of
wrapped functions it called.  A job's value is the sum over its spans;
the run reports the median over traced jobs.
"""

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "numerics.shifted_factor_s": "s",
    "numerics.shifted_factor_calls": "count",
    "numerics.complex_factor_calls": "count",
    "numerics.shifted_solve_s": "s",
    "numerics.shifted_solve_calls": "count",
    "numerics.solve_columns": "count",
    "numerics.eigensolve_s": "s",
    "numerics.eigensolve_calls": "count",
    "basis.apply_s": "s",
    "basis.apply_calls": "count",
    "basis.truncated_s": "s",
    "seeds.fps_s": "s",
    "seeds.coverage_s": "s",
    "seeds.coverage_iterations": "count",
    "seeds.generator_calls": "count",
    "mesh.distances_s": "s",
    "mesh.distances_calls": "count",
    "mesh.adjacency_s": "s",
    "mesh.adjacency_calls": "count",
    "mesh.load_s": "s",
    "laplacian.assemble_s": "s",
    "laplacian.nnz": "count",
    "cli.export_s": "s",
    "cli.export_bytes": "bytes",
    "cli.manifest_s": "s",
    "trace.overhead_s": "s",
}

# (module, attribute or Class.method, span name); a span "x.y" feeds the
# metrics "x.y_s" (self time) and "x.y_calls"
TARGETS = (
    ("lapbasis.mesh", "load_mesh", "mesh.load"),
    ("lapbasis.mesh", "vertex_distances", "mesh.distances"),
    ("lapbasis.mesh", "TriangleMesh.adjacency", "mesh.adjacency"),
    ("lapbasis.laplacian", "assemble", "laplacian.assemble"),
    ("lapbasis.seeds", "farthest_point_sampling", "seeds.fps"),
    ("lapbasis.seeds", "coverage_loop", "seeds.coverage"),
    ("lapbasis.numerics", "shifted_factor", "numerics.shifted_factor"),
    ("lapbasis.numerics", "smallest_eigenpairs", "numerics.eigensolve"),
    ("lapbasis.basis", "ChebyshevKernel.apply", "basis.apply"),
    ("lapbasis.basis", "truncated_spectral", "basis.truncated"),
    ("lapbasis.cli", "_export_fields", "cli.export"),
    ("lapbasis.cli", "Run.finish", "cli.manifest"),
)


def _sparse_nnz(M):
    """nnz of a scipy sparse matrix, or of one held in a ``.data`` wrapper."""
    return M.nnz if hasattr(M, "nnz") else M.data.nnz


def _argument(fn, args, kwargs, name):
    """Value bound to parameter ``name`` in a call of fn, or None."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def replace_everywhere(module_name, attr, make_wrapper):
    """Replace a lapbasis function or method by make_wrapper(original).

    Returns the (owner, name, original) triples needed to undo it, or an
    empty list when the target does not exist.
    """
    module = sys.modules.get(module_name)
    if module is None:
        return []
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return []
        original = vars(cls)[meth]
        setattr(cls, meth, make_wrapper(original))
        return [(cls, meth, original)]
    original = getattr(module, attr, None)
    if original is None:
        return []
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lapbasis" or name.startswith("lapbasis.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


def restore(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    """In-memory spans and counters for the jobs of one run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job)
        self.job = -1
        self._counts = defaultdict(Counter)  # job -> metric -> count
        self._self_s = defaultdict(Counter)  # job -> span name -> self time
        self._stack = []  # [span id, name, start, child time, parent id]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def start_job(self):
        self.job += 1

    def count(self, metric, n=1):
        self._counts[self.job][metric] += n

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0,
                            parent])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.job))
        self._self_s[self.job][name] += (end - start) - child
        if self._stack:
            self._stack[-1][3] += end - start
        self._counts[self.job][name + "_calls"] += 1

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- wrappers with counters ---------------------------------------------

    def _assemble(self, fn):
        timed = self.timed("laplacian.assemble", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = timed(*args, **kwargs)
            self.count("laplacian.nnz", _sparse_nnz(op.L))
            return op
        return wrapper

    def _coverage(self, fn):
        timed = self.timed("seeds.coverage", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            generator = bound.arguments["generator"]

            def counted(*a, **k):
                self.count("seeds.generator_calls")
                return generator(*a, **k)

            bound.arguments["generator"] = counted
            result = timed(*bound.args, **bound.kwargs)
            self.count("seeds.coverage_iterations", result.iterations)
            return result
        return wrapper

    def _shifted_factor(self, fn):
        timed = self.timed("numerics.shifted_factor", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solve = timed(*args, **kwargs)
            beta = _argument(fn, args, kwargs, "beta")
            if np.iscomplexobj(np.asarray(beta)):
                self.count("numerics.complex_factor_calls")
            timed_solve = self.timed("numerics.shifted_solve", solve)

            def traced_solve(rhs, *a, **k):
                self.count("numerics.solve_columns",
                           np.shape(rhs)[1] if np.ndim(rhs) == 2 else 1)
                return timed_solve(rhs, *a, **k)
            return traced_solve
        return wrapper

    def _export(self, fn):
        timed = self.timed("cli.export", fn)

        @functools.wraps(fn)
        def wrapper(run, *args, **kwargs):
            before = len(run.outputs)
            out = timed(run, *args, **kwargs)
            self.count("cli.export_bytes",
                       sum(os.path.getsize(p) for p in run.outputs[before:]))
            return out
        return wrapper

    def install(self):
        special = {
            "laplacian.assemble": self._assemble,
            "seeds.coverage": self._coverage,
            "numerics.shifted_factor": self._shifted_factor,
            "cli.export": self._export,
        }
        for module, attr, name in TARGETS:
            make = special.get(name) or functools.partial(self.timed, name)
            self._undo += replace_everywhere(module, attr, make)

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s):
        """Every per-layer metric: its median over the traced jobs."""
        out = {}
        for metric, unit in LAYER_METRICS.items():
            if metric == "trace.overhead_s":
                value = overhead_s
            elif unit == "s":
                value = statistics.median(
                    self._self_s[j][metric[:-2]] for j in range(self.job + 1))
            else:
                value = statistics.median(
                    self._counts[j][metric] for j in range(self.job + 1))
            out[metric] = {"value": value, "unit": unit}
        return out

    def span_records(self):
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "job": job}
            for sid, name, start, end, parent, job in sorted(self.spans)
        ]
