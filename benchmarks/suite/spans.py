"""Span tracing for the benchmark suite, installed from outside ``src/``.

The suite never edits the program it measures. It times each layer by
replacing the public calls into that layer with timing wrappers, from
this file, in the process that runs the traced round:

* coarse calls become full spans (name, start, end, parent, round, job):
  ``Workload.kernel``, ``WorkloadCache.load``/``store``,
  ``ResultCache.load``/``store``, ``Executor.run``, ``run_spec`` and
  ``Engine.run``;
* hot calls are aggregated as a count plus total and self nanoseconds on
  the innermost open span, so a traced round keeps a few hundred spans
  in memory however many cycles it simulates: ``RunSpec.cache_key``,
  ``compile_body`` and, per engine, ``scheduler.dispatch``,
  ``dynpar.deliver_due``, every ``SMX.try_issue`` (instance attributes
  set after construction) and the closures ``MemoryHierarchy.accessor``
  returns.

A span's self time is its duration minus the child spans and top-level
hot calls inside it; a hot call's self time excludes the hot calls nested
in it (compile inside dispatch, memory access inside issue). Timestamps
are ``time.perf_counter_ns()``, which is CLOCK_MONOTONIC on Linux, so
spans from the server and its worker processes share one time axis.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter_ns

#: hot calls that also count truthy results (issue yield, placements)
_COUNT_TRUTHY = frozenset({"smx.issue", "core.dispatch"})


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "job", "attrs", "hot", "child_ns")

    def __init__(self, span_id: int, parent: "Span | None", name: str, job: str | None) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = perf_counter_ns()
        self.end = None
        self.job = job
        self.attrs: dict = {}
        #: hot call name -> [calls, total ns, self ns, extra]
        self.hot: dict[str, list[int]] = {}
        self.child_ns = 0

    def to_dict(self, round_id) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "self_ns": self.end - self.start - self.child_ns,
            "round": round_id,
            "job": self.job,
            "attrs": self.attrs,
            "hot": {
                name: {"n": n, "ns": ns, "self_ns": self_ns, "extra": extra}
                for name, (n, ns, self_ns, extra) in self.hot.items()
            },
        }


class Tracer:
    """Spans of one process. Single-threaded: open spans form one stack."""

    def __init__(self, round_id=None) -> None:
        self.round = round_id
        self.stack: list[Span] = []
        #: child-time accumulators of the hot calls currently executing
        self.hot_stack: list[int] = []
        self.spans: list[Span] = []
        #: holds hot calls made while no span is open
        self.root = Span(0, None, "process", None)
        self._ids = 1
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, job: str | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(self._ids, parent, name, job)
        self._ids += 1
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self.stack.pop()
        duration = span.end - span.start
        if self.hot_stack:
            self.hot_stack[-1] += duration
        elif span.parent is not None:
            span.parent.child_ns += duration
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, job: str | None = None):
        span = self.begin(name, job)
        try:
            yield span
        finally:
            self.end(span)

    def wrap_span(self, name: str, fn, *, job=None, after=None):
        """Record every call of ``fn`` as a span; ``job(args)`` names the
        job it serves and ``after(span, args, result)`` may attach
        attributes once the call returns."""

        def wrapper(*args, **kwargs):
            with self.span(name, job(args) if job is not None else None) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def wrap_hot(self, name: str, fn, *, count_lines: bool = False):
        """Aggregate calls of ``fn`` onto the innermost open span."""
        stack, hot_stack, root = self.stack, self.hot_stack, self.root
        truthy = name in _COUNT_TRUTHY

        def wrapper(*args):
            t0 = perf_counter_ns()
            hot_stack.append(0)
            try:
                result = fn(*args)
            finally:
                dt = perf_counter_ns() - t0
                inner = hot_stack.pop()
                span = stack[-1] if stack else root
                rec = span.hot.get(name)
                if rec is None:
                    rec = span.hot[name] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if hot_stack:
                    hot_stack[-1] += dt
                else:
                    span.child_ns += dt
            if truthy:
                if result is not None and result is not False:
                    rec[3] += 1
            elif count_lines:
                rec[3] += args[2] - args[1]
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every traced call; :meth:`uninstall` restores them."""
        import repro.gpu.compiled as compiled
        import repro.harness.execution as execution
        from repro.gpu.engine import Engine
        from repro.harness.cache import ResultCache
        from repro.harness.execution import Executor, RunSpec
        from repro.harness.workload_cache import WorkloadCache
        from repro.workloads import Workload

        original_kernel = Workload.kernel

        def kernel(workload):
            # kernel() memoizes: only a call that builds is a span
            if workload.is_built:
                return original_kernel(workload)
            with self.span("workloads.build"):
                return original_kernel(workload)

        self.patch(Workload, "kernel", kernel)

        def stored(span, args, result):
            cache, benchmark, scale, seed = args[:4]
            path = cache.path_for(cache.key_for(benchmark, scale, seed))
            span.attrs["bytes"] = path.stat().st_size

        self.patch(WorkloadCache, "store",
                   self.wrap_span("workload_cache.store", WorkloadCache.store, after=stored))
        self.patch(WorkloadCache, "load", self.wrap_span("workload_cache.load", WorkloadCache.load))

        def loaded(span, args, result):
            span.attrs["hit"] = result is not None

        self.patch(ResultCache, "load",
                   self.wrap_span("result_cache.load", ResultCache.load, after=loaded))
        self.patch(ResultCache, "store", self.wrap_span("result_cache.store", ResultCache.store))
        self.patch(Executor, "run", self.wrap_span("execution.run", Executor.run))
        self.patch(RunSpec, "cache_key", self.wrap_hot("execution.cache_key", RunSpec.cache_key))
        self.patch(execution, "run_spec",
                   self.wrap_span("execution.run_spec", execution.run_spec, job=_spec_job))
        self.patch(compiled, "compile_body", self.wrap_hot("compiled.compile", compiled.compile_body))
        self.patch(Engine, "run", self._engine_run(Engine.run))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _engine_run(self, original_run):
        wrap_hot = self.wrap_hot

        def run(engine):
            # per-instance hooks: the engine binds these once at the top of
            # run(), so instance attributes set here are what it calls
            scheduler = engine.scheduler
            scheduler.dispatch = wrap_hot("core.dispatch", scheduler.dispatch)
            dynpar = engine.dynpar
            dynpar.deliver_due = wrap_hot("dynpar.deliver", dynpar.deliver_due)
            for smx in engine.smxs:
                smx.try_issue = wrap_hot("smx.issue", smx.try_issue)
            memory = engine.memory
            accessor = memory.accessor
            memory.accessor = lambda smx_id: wrap_hot(
                "memory.access", accessor(smx_id), count_lines=True
            )
            with self.span("engine.run") as span:
                stats = original_run(engine)
            span.attrs.update(
                cycles=stats.cycles,
                instructions=stats.instructions,
                tbs=stats.tbs_dispatched,
                launches=stats.launches,
                l1_hits=stats.l1_hits,
                l1_accesses=stats.l1_accesses,
                l2_hits=stats.l2_hits,
                l2_accesses=stats.l2_accesses,
                dram_accesses=stats.dram_accesses,
                mshr_dropped=stats.mshr_dropped,
                steals=stats.work_steals,
            )
            return stats

        return run

    # -- output ----------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        out = [span.to_dict(self.round) for span in self.spans]
        if self.root.hot:
            self.root.end = perf_counter_ns()
            out.append(self.root.to_dict(self.round))
        return out

    def dump(self, path: str, label: str) -> None:
        record = {"pid": os.getpid(), "label": label, "spans": self.to_dicts()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _spec_job(args) -> str:
    spec = args[0]
    return f"{spec.benchmark}|{spec.scheduler}|{spec.model}|{spec.scale}|{spec.seed}"


# -- aggregation ---------------------------------------------------------------


def layer_totals(spans: list[dict]) -> dict:
    """Sum spans and hot calls by name: ``{name: {n, s, self_s, extra}}``
    plus ``attrs`` sums per span name (bytes, cycles, hits, ...)."""
    totals: dict[str, dict] = {}
    attrs: dict[str, dict] = {}

    def add(name, n, ns, self_ns, extra):
        row = totals.setdefault(name, {"n": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
        row["n"] += n
        row["s"] += ns / 1e9
        row["self_s"] += self_ns / 1e9
        row["extra"] += extra

    for span in spans:
        if span["name"] != "process":
            add(span["name"], 1, span["end_ns"] - span["start_ns"], span["self_ns"], 0)
            sums = attrs.setdefault(span["name"], {})
            for key, value in span["attrs"].items():
                sums[key] = sums.get(key, 0) + int(value)
        for name, rec in span["hot"].items():
            add(name, rec["n"], rec["ns"], rec["self_ns"], rec["extra"])
    return {"totals": totals, "attrs": attrs}
