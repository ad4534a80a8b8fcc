"""Spans around srj's public functions, and the per-layer metrics they give.

A :class:`Tracer` replaces each traced function at every name where srj
code looks it up (``srj.solver`` binds ``spmv`` by ``from .sparse import
spmv``, so wrapping ``srj.sparse.spmv`` alone would miss the solver's
calls) and puts the originals back afterwards.  Each call records one
span: name, start, end, parent span and op id.  Spans stay in memory and
are written once, when the run ends.  A function that no longer exists,
or a span that never fires, yields 0 and is not an error.
"""

import contextlib
import gzip
import importlib
import sys
import time

import machine

# span name -> (module that defines the function, attribute name)
TARGETS = {
    "sparse.spmv": ("srj.sparse", "spmv"),
    "solver.relaxed_step": ("srj.solver", "relaxed_step"),
    "solver.run_srj": ("srj.solver", "run_srj"),
    "optimizer.derive_scheme": ("srj.optimizer", "derive_scheme"),
    "optimizer.make_problem": ("srj.optimizer", "make_problem"),
    "optimizer.trust_constr": ("srj.optimizer", "minimize"),
    "spectral.jacobi_eigenvalues": ("srj.spectral", "jacobi_eigenvalues"),
    "spectral.rank_schemes": ("srj.spectral", "rank_schemes"),
    "amplification.amp_eval": ("srj.amplification", "amp_eval"),
    "pde.build_2d": ("srj.pde", "build_2d"),
    "pde.build_1d": ("srj.pde", "build_1d"),
    "catalog.lookup": ("srj.catalog", "lookup"),
    "cli.main": ("srj.cli", "main"),
}

OP = "op"  # root span of one benchmark op


def _sweeps_and_status(tracer, args, result):
    history = result[1]
    return len(history.residuals) - 1, history.status


# span name -> what to record from (tracer, args, result) besides the times
_META = {
    "sparse.spmv": lambda tracer, args, result: tracer.matrix_bytes(args[0]),
    "solver.run_srj": _sweeps_and_status,
    "optimizer.derive_scheme": lambda tracer, args, result: result.iterations,
}


class Tracer:
    """Records spans; install() wraps the targets, restore() undoes it."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, op, meta]
        self._stack = []
        self._patched = []
        self._bytes_cache = {}
        self.op = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        meta = _META.get(name)
        tracer = self

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if meta is not None:
                record[5] = meta(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def matrix_bytes(self, matrix):
        """Computed bytes of one spmv with ``matrix``, cached; the matrix is
        kept so its id stays unique."""
        key = id(matrix)
        if key not in self._bytes_cache:
            self._bytes_cache[key] = (matrix, machine.spmv_counts(matrix)["bytes_total"])
        return self._bytes_cache[key][1]

    def install(self, targets=TARGETS):
        """Wrap every target at each srj module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "srj" or n.startswith("srj."))]
        for name, (module_name, attr) in targets.items():
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue  # gone after a refactor: the span reports 0
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; yields its record, whose [1] and [2] are start and end."""
        record = [OP, 0.0, 0.0, -1, op_id, None]
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def write(self, path):
        """Write the spans as gzip CSV: name,start_us,end_us,parent,op."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as stream:
            stream.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op, _ in self.spans:
                stream.write(f"{name},{(start - base) * 1e6:.1f},{(end - base) * 1e6:.1f},{parent},{op}\n")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans, overhead_ratio, probe_ms):
    """Per-layer metrics from a span list; a layer with no spans gives 0.

    Counts and per-call times cover every span, the traced set-up
    included; shares divide time inside timed ops by total op time.
    """
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]

    def ancestor_named(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return parent
            parent = spans[parent][3]
        return -1

    calls, total, self_total, in_ops = {}, {}, {}, {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration[i]
        self_total[name] = self_total.get(name, 0.0) + duration[i] - child_time[i]
        if span[4] != "setup":
            in_ops[name] = in_ops.get(name, 0.0) + duration[i]
    op_time = in_ops.get(OP, 0.0)

    def per_call(name, scale, use_self=False):
        source = self_total if use_self else total
        return _ratio(source.get(name, 0.0), calls.get(name, 0)) * scale

    def share(name):
        return _ratio(in_ops.get(name, 0.0), op_time)

    sweeps = useful = 0
    spmv_in_solver = 0
    for i, span in enumerate(spans):
        if span[0] == "solver.run_srj" and span[5] is not None:
            sweeps += span[5][0]
            if span[5][1] == "converged":
                useful += span[5][0]
        elif span[0] == "sparse.spmv" and ancestor_named(i, "solver.run_srj") >= 0:
            spmv_in_solver += 1
    spmv_bytes = sum(s[5] for s in spans if s[0] == "sparse.spmv" and s[5] is not None)

    derives = calls.get("optimizer.derive_scheme", 0)
    stages = sum(1 for i, s in enumerate(spans)
                 if s[0] == "optimizer.make_problem" and ancestor_named(i, "optimizer.derive_scheme") >= 0)
    iterations = sum(s[5] for s in spans if s[0] == "optimizer.derive_scheme" and s[5] is not None)
    minimize_in_derive = sum(duration[i] for i, s in enumerate(spans)
                             if s[0] == "optimizer.trust_constr" and ancestor_named(i, "optimizer.derive_scheme") >= 0)

    return {
        "sparse.spmv.calls": (calls.get("sparse.spmv", 0), "count"),
        "sparse.spmv.us_per_call": (per_call("sparse.spmv", 1e6, use_self=True), "us"),
        "sparse.spmv.share": (share("sparse.spmv"), "ratio"),
        "sparse.spmv.gbs_computed": (_ratio(spmv_bytes, total.get("sparse.spmv", 0.0)) / 1e9, "GB/s"),
        "solver.sweeps": (sweeps, "count"),
        "solver.spmv_per_sweep": (_ratio(spmv_in_solver, sweeps), "ratio"),
        "solver.us_per_sweep": (_ratio(total.get("solver.run_srj", 0.0), sweeps) * 1e6, "us"),
        "solver.relaxed_step.us_per_call": (per_call("solver.relaxed_step", 1e6), "us"),
        "solver.run_srj.self_share": (_ratio(self_total.get("solver.run_srj", 0.0), total.get("solver.run_srj", 0.0)), "ratio"),
        "solver.useful_sweep_ratio": (_ratio(useful, sweeps), "ratio"),
        "optimizer.derive_scheme.ms_per_call": (per_call("optimizer.derive_scheme", 1e3), "ms"),
        "optimizer.stages_per_derive": (_ratio(stages, derives), "count"),
        "optimizer.iterations_per_derive": (_ratio(iterations, derives), "count"),
        "optimizer.trust_constr.share": (_ratio(minimize_in_derive, total.get("optimizer.derive_scheme", 0.0)), "ratio"),
        "spectral.jacobi_eigenvalues.ms_per_call": (per_call("spectral.jacobi_eigenvalues", 1e3), "ms"),
        "spectral.jacobi_eigenvalues.share": (share("spectral.jacobi_eigenvalues"), "ratio"),
        "spectral.rank_schemes.ms_per_call": (per_call("spectral.rank_schemes", 1e3), "ms"),
        "amplification.amp_eval.calls": (calls.get("amplification.amp_eval", 0), "count"),
        "amplification.amp_eval.us_per_call": (per_call("amplification.amp_eval", 1e6), "us"),
        "pde.build_2d.ms_per_call": (per_call("pde.build_2d", 1e3), "ms"),
        "pde.build_1d.ms_per_call": (per_call("pde.build_1d", 1e3), "ms"),
        "catalog.lookup.us_per_call": (per_call("catalog.lookup", 1e6), "us"),
        "cli.main.self_ms_per_call": (per_call("cli.main", 1e3, use_self=True), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "host.probe_ms": (probe_ms, "ms"),
    }

