"""In-memory spans around the calls into each layer of ``bda``.

The tracer never edits the package: it swaps the module-level names the suites
look up (``run_inner``, ``hypergrad_*``, ``solve``, ``default_lambda``, the
serializers, the thread pool) and the ``BilevelProblem`` callables of every
problem the suites build, and restores all of them on exit.

A span is ``(id, name, start, end, parent, thread_id, attrs)``.  Spans are
appended to one list (``list.append`` is atomic under the interpreter lock);
the parent comes from a per-thread stack, except for pool jobs, whose parent
is the pool span on the submitting thread.  Self time is a span's duration
minus the time its children on the same thread cover.
"""
from __future__ import annotations

import csv
import dataclasses
import gzip
import itertools
import os
import threading
import time
from collections import defaultdict

ORACLES = ("F", "f", "grad_x_F", "grad_y_F", "grad_y_f", "grad_x_f",
           "hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")
VALUE_ORACLES = ("F", "f")
SERIALIZE_SPANS = ("harness.atomic_write", "harness.emit_trace",
                   "harness.emit_inner_trace", "harness.write_summary")
HYPERGRAD_SPANS = ("hypergrad.reverse", "hypergrad.forward",
                   "hypergrad.implicit", "hypergrad.onestage")
VERIFY_SPANS = {"verify.rate_constants": "compute_rate_constants",
                "verify.rate_bound": "check_rate_bound",
                "verify.descent": "check_descent_inequality",
                "verify.nonexpansive": "check_nonexpansive",
                "verify.stationarity": "check_stationarity"}


METHODS = ("bda", "rhg", "trhg", "ihg", "obda")

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move).  A layer that does not run in a workload reports 0.
_PROBLEM_TARGET = "wall_s, peak_rss_mb on counterexample and hyperclean; ~0 on small"
LAYER_METRICS = (
    *[(f"problems.calls_per_iter.{name}", "calls/iter", "lower", _PROBLEM_TARGET)
      for name in ORACLES],
    ("problems.value_s", "s", "lower", _PROBLEM_TARGET),
    ("problems.grad_s", "s", "lower", _PROBLEM_TARGET),
    ("problems.hess_s", "s", "lower", _PROBLEM_TARGET),
    ("problems.hess_bytes_per_iter", "B/iter", "lower", _PROBLEM_TARGET),
    ("numerics.project_calls", "count", "lower", "wall_s on small and hyperclean"),
    ("numerics.project_s", "s", "lower", "wall_s on small and hyperclean"),
    ("inner.calls", "count", "lower", "wall_s on hyperclean and small"),
    ("inner.steps", "count", "lower", "wall_s on hyperclean and small"),
    ("inner.self_s", "s", "lower", "wall_s on hyperclean and small"),
    ("inner.step_us", "us", "lower", "wall_s on hyperclean and small"),
    ("inner.proj_active_steps", "count", "lower", "wall_s on hyperclean and small"),
    ("hypergrad.reverse.calls", "count", "lower", "wall_s on counterexample"),
    ("hypergrad.reverse.self_s", "s", "lower", "wall_s on counterexample"),
    ("hypergrad.backward_steps", "count", "lower", "wall_s on counterexample"),
    ("hypergrad.forward.self_s", "s", "lower", "wall_s on small"),
    ("hypergrad.implicit.self_s", "s", "lower", "wall_s on hyperclean"),
    ("hypergrad.cg_iterations", "count", "lower", "wall_s on hyperclean"),
    ("hypergrad.onestage.self_s", "s", "lower", "wall_s on hyperclean"),
    ("hypergrad.onestage.projected_branch", "count", "lower", "wall_s on hyperclean"),
    *[(f"outer.iterations.{m}", "count", "lower", "wall_s on all workloads")
      for m in METHODS],
    *[(f"outer.iter_ms.{m}", "ms", "lower", "wall_s on all workloads")
      for m in METHODS],
    ("outer.self_s", "s", "lower", "wall_s on all workloads"),
    ("outer.default_lambda_s", "s", "lower", "wall_s on small"),
    ("outer.default_lambda.hypergrads", "count", "lower", "wall_s on small"),
    ("verify.rate_constants_s", "s", "lower", "wall_s on small"),
    ("verify.rate_bound_s", "s", "lower", "wall_s on small"),
    ("verify.descent_s", "s", "lower", "wall_s on small"),
    ("verify.nonexpansive_s", "s", "lower", "wall_s on small"),
    ("verify.stationarity_s", "s", "lower", "wall_s on small"),
    ("harness.serialize_s", "s", "lower", "wall_s on small"),
    ("harness.bytes_written", "B", "lower", "wall_s on small"),
    ("harness.files_written", "count", "lower", "wall_s on small"),
    ("harness.inner_trace_rerun_steps", "count", "lower", "wall_s on small"),
    ("harness.pool.workers", "count", "lower", "wall_s on hyperclean and counterexample"),
    ("harness.pool.job_s", "s", "lower", "wall_s on hyperclean and counterexample"),
    ("harness.pool.wall_s", "s", "lower", "wall_s on hyperclean and counterexample"),
    ("harness.pool.speedup", "ratio", "higher", "wall_s on hyperclean and counterexample"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced wall_s, minus 1"),
    ("machine.calib_ms", "ms", "lower", "none: host speed, timed before and after the jobs"),
)

class Tracer:
    """Span recorder; ``install`` patches ``bda``, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_of=None, parent=None):
        """Run ``fn`` inside a span; ``attrs_of(result, args, kwargs)``
        returns the span's attributes."""
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_of(result, args, kwargs) if attrs_of else None
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident(), attrs))
        return result

    def wrap(self, name, fn, attrs_of=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def instrument_problem(self, problem):
        """Copy of ``problem`` whose oracle callables record spans."""
        changes = {}
        for name in ORACLES:
            fn = getattr(problem, name)
            if fn is None:
                continue
            attrs_of = _hess_bytes if name.startswith("hess_") else None
            changes[name] = self.wrap(f"problems.{name}", fn, attrs_of)
        return dataclasses.replace(problem, **changes)

    def _factory(self, factory):
        def build(*args, **kwargs):
            return self.instrument_problem(factory(*args, **kwargs))
        return build

    def install(self, bda) -> None:
        harness, outer, verify = bda.harness, bda.outer, bda.verify
        for name in ("make_counterexample", "make_hypercleaning",
                     "make_remark1", "make_lls_quadratic", "make_problem"):
            self._patch(harness, name, self._factory(getattr(harness, name)))

        box = bda.numerics.BoxRegion
        self._patch(box, "project", self.wrap("numerics.project", box.project))
        self._patch(box, "active_mask",
                    self.wrap("numerics.active_mask", box.active_mask))

        run_inner = self.wrap("inner.run_inner", bda.inner.run_inner,
                              _inner_attrs)
        for module in (bda.hypergrad, outer, verify, harness):
            self._patch(module, "run_inner", run_inner)

        reverse = self.wrap("hypergrad.reverse", bda.hypergrad.hypergrad_reverse,
                            lambda r, a, k: {"backward_steps":
                                             r.diagnostics["truncate_at"]})
        self._patch(outer, "hypergrad_reverse", reverse)
        self._patch(outer, "hypergrad_implicit",
                    self.wrap("hypergrad.implicit",
                              bda.hypergrad.hypergrad_implicit,
                              lambda r, a, k: {"cg_iterations":
                                               r.diagnostics["cg_iterations"]}))
        self._patch(outer, "hypergrad_onestage",
                    self.wrap("hypergrad.onestage",
                              bda.hypergrad.hypergrad_onestage,
                              lambda r, a, k: {"branch": r.diagnostics["branch"]}))
        self._patch(verify, "hypergrad_forward",
                    self.wrap("hypergrad.forward",
                              bda.hypergrad.hypergrad_forward))

        self._patch(harness, "solve", self.wrap("outer.solve", harness.solve,
                                                _solve_attrs))
        self._patch(outer, "default_lambda",
                    self.wrap("outer.default_lambda", outer.default_lambda))
        for span, attr in VERIFY_SPANS.items():
            self._patch(verify, attr, self.wrap(span, getattr(verify, attr)))

        self._patch(harness, "_atomic_write",
                    self.wrap("harness.atomic_write", harness._atomic_write,
                              _written_attrs))
        for name in ("emit_trace", "emit_inner_trace", "write_summary"):
            self._patch(harness, name,
                        self.wrap(f"harness.{name}", getattr(harness, name)))
        self._patch(harness, "_run_jobs", self._pool(harness))

    def _pool(self, harness):
        run_jobs = harness._run_jobs

        def traced_run_jobs(jobs):
            # the pool span is opened here so the jobs can name it as parent
            pool_id = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else 0

            def as_span(job):
                return lambda: self.call("harness.job", job, (), {},
                                         parent=pool_id)

            stack.append(pool_id)
            start = time.perf_counter()
            try:
                return run_jobs([as_span(job) for job in jobs])
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((pool_id, "harness.pool", start, end, parent,
                                   threading.get_ident(),
                                   {"workers": harness._max_workers(),
                                    "jobs": len(jobs)}))
        return traced_run_jobs

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV, times relative to the
        first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", newline="",
                       compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_us", "end_us", "parent",
                             "thread", "attrs"])
            for sid, name, start, end, parent, tid, attrs in self.spans:
                writer.writerow([sid, name, f"{(start - origin) * 1e6:.3f}",
                                 f"{(end - origin) * 1e6:.3f}", parent, tid,
                                 "" if attrs is None else repr(attrs)])


def _hess_bytes(result, args, kwargs):
    return {"bytes": getattr(result, "nbytes", 0)}


def _inner_attrs(result, args, kwargs):
    _, trace = result
    return {"steps": trace.K,
            "proj_active_steps": int(trace.proj_active.any(axis=1).sum())}


def _solve_attrs(record, args, kwargs):
    return {"method": record.method, "iterations": int(record.T)}


def _written_attrs(result, args, kwargs):
    path = args[0]
    return {"file": os.path.basename(path), "bytes": os.path.getsize(path)}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced job
# ---------------------------------------------------------------------------

def layer_metrics(spans, deterministic_files) -> dict:
    """Per-layer counts and times of one traced job.

    ``deterministic_files`` names the written files whose bytes count toward
    ``harness.bytes_written`` (the ones the determinism check hashes).
    """
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    cover = defaultdict(float)
    for span in spans:
        by_name[span[1]].append(span)
        owner = by_id.get(span[4])
        if owner is not None and owner[5] == span[5]:
            cover[span[4]] += span[3] - span[2]

    def count(name):
        return len(by_name[name])

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def own(name):
        return sum(s[3] - s[2] - cover[s[0]] for s in by_name[name])

    def attr_sum(name, key, where=None):
        return sum(s[6][key] for s in by_name[name]
                   if where is None or where(s))

    def has_ancestor(span, ancestor):
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == ancestor:
                return True
            parent = by_id.get(parent[4])
        return False

    iterations = attr_sum("outer.solve", "iterations")
    per_iter = 1.0 / iterations if iterations else 0.0
    out = {}
    for name in ORACLES:
        out[f"problems.calls_per_iter.{name}"] = count(f"problems.{name}") * per_iter
    out["problems.value_s"] = sum(own(f"problems.{n}") for n in VALUE_ORACLES)
    out["problems.grad_s"] = sum(own(f"problems.{n}") for n in ORACLES
                                 if n.startswith("grad_"))
    out["problems.hess_s"] = sum(own(f"problems.{n}") for n in ORACLES
                                 if n.startswith("hess_"))
    out["problems.hess_bytes_per_iter"] = per_iter * sum(
        attr_sum(f"problems.{n}", "bytes") for n in ORACLES
        if n.startswith("hess_"))

    out["numerics.project_calls"] = (count("numerics.project")
                                     + count("numerics.active_mask"))
    out["numerics.project_s"] = (own("numerics.project")
                                 + own("numerics.active_mask"))

    steps = attr_sum("inner.run_inner", "steps")
    out["inner.calls"] = count("inner.run_inner")
    out["inner.steps"] = steps
    out["inner.self_s"] = own("inner.run_inner")
    out["inner.step_us"] = 1e6 * total("inner.run_inner") / steps if steps else 0.0
    out["inner.proj_active_steps"] = attr_sum("inner.run_inner",
                                              "proj_active_steps")

    out["hypergrad.reverse.calls"] = count("hypergrad.reverse")
    out["hypergrad.reverse.self_s"] = own("hypergrad.reverse")
    out["hypergrad.backward_steps"] = attr_sum("hypergrad.reverse",
                                               "backward_steps")
    out["hypergrad.forward.self_s"] = own("hypergrad.forward")
    out["hypergrad.implicit.self_s"] = own("hypergrad.implicit")
    out["hypergrad.cg_iterations"] = attr_sum("hypergrad.implicit",
                                              "cg_iterations")
    out["hypergrad.onestage.self_s"] = own("hypergrad.onestage")
    out["hypergrad.onestage.projected_branch"] = sum(
        1 for s in by_name["hypergrad.onestage"]
        if s[6]["branch"] == "projected")

    for method in METHODS:
        its = attr_sum("outer.solve", "iterations",
                       lambda s, m=method: s[6]["method"] == m)
        ms = 1e3 * sum(s[3] - s[2] for s in by_name["outer.solve"]
                       if s[6]["method"] == method)
        out[f"outer.iterations.{method}"] = its
        out[f"outer.iter_ms.{method}"] = ms / its if its else 0.0
    out["outer.self_s"] = own("outer.solve")
    out["outer.default_lambda_s"] = total("outer.default_lambda")
    out["outer.default_lambda.hypergrads"] = sum(
        1 for name in HYPERGRAD_SPANS for s in by_name[name]
        if has_ancestor(s, "outer.default_lambda"))

    for span in VERIFY_SPANS:
        out[f"{span}_s"] = total(span)

    out["harness.serialize_s"] = sum(own(n) for n in SERIALIZE_SPANS)
    out["harness.bytes_written"] = attr_sum(
        "harness.atomic_write", "bytes",
        lambda s: s[6]["file"] in deterministic_files)
    out["harness.files_written"] = count("harness.atomic_write")
    out["harness.inner_trace_rerun_steps"] = attr_sum(
        "inner.run_inner", "steps",
        lambda s: has_ancestor(s, "harness.emit_inner_trace"))
    out["harness.pool.workers"] = max(
        (s[6]["workers"] for s in by_name["harness.pool"]), default=0)
    out["harness.pool.job_s"] = total("harness.job")
    out["harness.pool.wall_s"] = total("harness.pool")
    out["harness.pool.speedup"] = (total("harness.job") / total("harness.pool")
                                   if total("harness.pool") else 0.0)
    return out
