"""Declarative experiment execution: RunSpecs, executors and caching.

Every experiment in the repository — the Figures 7/8/9 grid, the seed
sweeps, the latency sweep, ``repro run``/``compare`` — reduces to a set
of independent simulations. This module makes that set explicit:

* :class:`RunSpec` is a frozen, hashable description of one simulation
  (benchmark, scale, seed, scheduler, model, full machine configuration,
  cycle budget). Equal RunSpecs denote byte-identical simulations, which
  is what makes deduplication and content-addressed caching sound.
* An :class:`Executor` maps RunSpecs to :class:`SimStats`, the one
  thing a run produces, caches or returns. Every miss, in this process
  or a worker, runs :func:`run_spec` → :func:`simulate`, the one place
  an engine is built. :class:`SerialExecutor` runs in-process;
  :class:`ParallelExecutor` fans out over the worker fleet of
  :mod:`repro.harness.pool`, the same pool ``repro serve`` runs on.
  Workers resolve the workload from the spec (benchmark name + scale +
  seed), so nothing unpicklable — launch trees with shared bodies —
  ever crosses the process boundary; only small plain dicts do.
* Both executors deduplicate identical specs within a call and can share
  a :class:`repro.harness.cache.ResultCache`; a warm cache answers a
  whole grid without constructing a single engine. An executor with a
  result cache owns the :class:`WorkloadCache` beside it and passes it
  down explicitly (``kernel_for`` → ``run_spec``); pool jobs carry its
  root in their payload. No trace store is process-wide state.

The simulator is deterministic, so serial, parallel and cached execution
of the same specs produce identical results (tests assert byte-identical
``grid_to_json`` output). See docs/harness.md for the architecture and
cache-invalidation rules.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core import canonical_scheduler_name
from repro.gpu.config import GPUConfig, canonical_json
from repro.gpu.stats import SimStats
from repro.harness.cache import ResultCache
from repro.harness.workload_cache import WorkloadCache

if TYPE_CHECKING:
    from repro.gpu.kernel import KernelSpec
    from repro.telemetry.events import TelemetrySink
    from repro.workloads import Workload

#: Version of the simulation semantics. Bump whenever an engine,
#: scheduler, memory-model or workload-generation change can alter the
#: stats a RunSpec produces: it enters every cache key, so all previously
#: stored results go cold (never wrong) without manual cleanup.
#: 2: SimStats gained work_steals / scheduler_queue_high_water.
#: 3: the MSHR table lost its capacity, so mshr_dropped is always 0.
#: 4: work_steals counts TBs placed by stealing, not victim lookups.
ENGINE_VERSION = 4

#: Default cycle budget, matching the historical harness default.
DEFAULT_MAX_CYCLES = 500_000_000

#: sentinel distinguishing "no cycle budget" from "default budget" in
#: serialized specs (None must round-trip losslessly through JSON keys)
_UNLIMITED = -1


@dataclass(frozen=True)
class RunSpec:
    """Complete, hashable description of one simulation.

    ``config_json`` holds the canonical JSON encoding of the full
    :class:`GPUConfig` (not just a fingerprint), so a spec is
    self-contained: any process can rebuild the machine and the workload
    from the spec alone. An empty string normalizes to the standard
    experiment machine at construction time, so
    ``RunSpec("amr", "rr", "dtbl")`` equals
    ``RunSpec.create("amr", "rr", "dtbl")``.

    ``scheduler`` accepts any spelling the component grammar resolves —
    named compositions, spec strings, aliases, ``+throttle`` — and
    normalizes to the canonical label at construction time, so
    ``"pri=level,bind=smx,steal=backup"`` and ``"adaptive-bind"`` denote
    the same spec and share one cache address.
    """

    benchmark: str
    scheduler: str
    model: str
    scale: str = "small"
    seed: int = 7
    config_json: str = ""
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES

    def __post_init__(self) -> None:
        canonical = canonical_scheduler_name(self.scheduler)
        if canonical != self.scheduler:
            object.__setattr__(self, "scheduler", canonical)
        if not self.config_json:
            from repro.harness.registry import experiment_config

            object.__setattr__(
                self, "config_json", canonical_json(experiment_config().to_dict())
            )

    @classmethod
    def create(
        cls,
        benchmark: str,
        scheduler: str,
        model: str,
        *,
        scale: str = "small",
        seed: int = 7,
        config: Optional[GPUConfig] = None,
        max_cycles: Optional[int] = DEFAULT_MAX_CYCLES,
    ) -> "RunSpec":
        """Build a spec from a real :class:`GPUConfig` (None = standard)."""
        config_json = "" if config is None else canonical_json(config.to_dict())
        return cls(
            benchmark=benchmark,
            scheduler=scheduler,
            model=model,
            scale=scale,
            seed=seed,
            config_json=config_json,
            max_cycles=max_cycles,
        )

    @classmethod
    def for_workload(
        cls,
        workload,
        scheduler: str,
        model: str,
        config: Optional[GPUConfig] = None,
        *,
        max_cycles: Optional[int] = DEFAULT_MAX_CYCLES,
    ) -> "RunSpec":
        """Spec for an existing workload instance (name, scale and seed)."""
        return cls.create(
            workload.full_name,
            scheduler,
            model,
            scale=workload.scale,
            seed=workload.seed,
            config=config,
            max_cycles=max_cycles,
        )

    def gpu_config(self) -> GPUConfig:
        """Rebuild the machine description this spec encodes."""
        return GPUConfig.from_dict(json.loads(self.config_json))

    def with_rung(
        self,
        *,
        scale: Optional[str] = None,
        max_cycles: Optional[int] = ...,
        config: Optional[GPUConfig] = None,
        config_overrides: Optional[dict] = None,
    ) -> "RunSpec":
        """Derive the scaled variant of this run used by a search rung.

        Successive-halving searches (``repro.search``) evaluate the same
        (benchmark, scheduler, model, seed) point at several fidelities:
        a cheaper *rung* shrinks the workload ``scale``, caps the cycle
        budget and/or swaps in a scaled-down machine, while the final
        rung is the unmodified spec — so its results share cache
        addresses with ordinary ``repro run``/``grid`` invocations.

        ``max_cycles`` uses ``...`` as its "keep" sentinel because None
        already means "no cycle budget". ``config_overrides`` applies
        field overrides on top of this spec's machine (mutually exclusive
        with ``config``, which replaces it wholesale).
        """
        if config is not None and config_overrides:
            raise ValueError("pass either config or config_overrides, not both")
        if config_overrides:
            config = self.gpu_config().with_overrides(**config_overrides)
        return RunSpec(
            benchmark=self.benchmark,
            scheduler=self.scheduler,
            model=self.model,
            scale=self.scale if scale is None else scale,
            seed=self.seed,
            config_json=(
                self.config_json
                if config is None
                else canonical_json(config.to_dict())
            ),
            max_cycles=self.max_cycles if max_cycles is ... else max_cycles,
        )

    @property
    def config_fingerprint(self) -> str:
        """Short content hash of the machine configuration."""
        return hashlib.sha256(self.config_json.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """Plain-dict view (JSON- and pickle-safe); inverse of :meth:`from_dict`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["max_cycles"] is None:
            out["max_cycles"] = _UNLIMITED
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunSpec fields {unknown}")
        kwargs = dict(data)
        if kwargs.get("max_cycles") == _UNLIMITED:
            kwargs["max_cycles"] = None
        return cls(**kwargs)

    def cache_key(self) -> str:
        """Content hash addressing this run in a :class:`ResultCache`.

        Includes :data:`ENGINE_VERSION`, so results simulated under older
        engine semantics are never returned for current specs.
        """
        payload = {"engine_version": ENGINE_VERSION, "spec": self.to_dict()}
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Human-readable one-liner for progress output."""
        return (
            f"{self.benchmark}/{self.scheduler}/{self.model} "
            f"(scale={self.scale}, seed={self.seed}, config={self.config_fingerprint})"
        )


# --- workload / kernel reuse -------------------------------------------------
#
# Building a workload trace can cost far more than simulating it once, and
# a grid simulates the same trace under every scheduler x model. Kernels
# are keyed by (benchmark, scale, seed) — exactly the RunSpec fields a
# trace depends on — and shared across executor calls in this process.
# Pool workers get their own copy of this cache (prepopulated for free
# under the ``fork`` start method).
#
# An entry is either a resolved KernelSpec or a workload registered by
# ``seed_kernel_cache`` whose trace nobody has asked for yet: it is
# resolved on the first ``kernel_for``, so a grid answered entirely from
# the result cache neither builds nor loads a single trace.
#
# Below the in-memory layer sits the optional on-disk workload cache
# (repro.harness.workload_cache), passed in as ``disk``: an executor with
# a result cache owns one at <result-cache-root>/workloads/, so traces
# persist across processes and ``repro`` invocations — a warm grid or
# tune run executes zero datagen steps. With no ``disk``, nothing is
# read from or written to disk.

_KERNEL_CACHE: "OrderedDict[tuple[str, str, int], KernelSpec | Workload]" = OrderedDict()
_KERNEL_CACHE_MAX = 32


def _remember_kernel(key: tuple[str, str, int], entry: KernelSpec | Workload) -> None:
    _KERNEL_CACHE[key] = entry
    _KERNEL_CACHE.move_to_end(key)
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.popitem(last=False)


def _is_registry_workload(workload) -> bool:
    """Whether (full_name, scale, seed) fully determines this workload.

    Only exact registry classes qualify: a custom subclass may share a
    name with a Table II application while generating a different trace,
    so it must never be answered from the content-addressed disk cache.
    """
    from repro.workloads import APPLICATIONS

    return type(workload) is APPLICATIONS.get(workload.name)


def seed_kernel_cache(workload) -> None:
    """Register a workload so executors reuse (or cache-load) its trace.

    Registration is free: nothing is built or loaded until a simulation
    asks :func:`kernel_for` for the trace. This also lets
    :class:`SerialExecutor` run workloads that are not in the Table II
    registry (e.g. custom :class:`~repro.workloads.Workload` subclasses),
    which could not be rebuilt by name in a worker process.
    """
    _remember_kernel((workload.full_name, workload.scale, workload.seed), workload)


def _resolve(
    key: tuple[str, str, int], workload: Optional[Workload], disk: Optional[WorkloadCache]
) -> KernelSpec:
    """Produce the trace for ``key`` from a registered workload (or, with
    none, the registry): a custom or already-built workload's own
    :meth:`~repro.workloads.Workload.kernel` object, else ``disk``, else
    a real build. Registry traces are stored back to ``disk``."""
    if workload is not None and not _is_registry_workload(workload):
        return workload.kernel()  # never answered from, or stored to, disk
    if disk is not None and (workload is None or not workload.is_built):
        spec = disk.load(*key)
        if spec is not None:
            return spec
    if workload is None:
        from repro.harness.registry import load_benchmark

        workload = load_benchmark(key[0], scale=key[1], seed=key[2])
    spec = workload.kernel()
    if disk is not None:
        disk.store(*key, spec)
    return spec


def kernel_for(
    benchmark: str, scale: str, seed: int, disk: Optional[WorkloadCache] = None
) -> KernelSpec:
    """The (cached) kernel trace for one benchmark.

    Resolution order: a resolved trace in the in-memory LRU; a pre-built
    workload registered by :func:`seed_kernel_cache` (its own
    ``kernel()`` object, so the caller's trace is the one replayed); the
    on-disk workload cache ``disk``, if given; then a real
    build (datagen + trace generation), stored back to both layers.
    """
    from repro.gpu.kernel import KernelSpec

    key = (benchmark, scale, seed)
    entry = _KERNEL_CACHE.get(key)
    if isinstance(entry, KernelSpec):
        _KERNEL_CACHE.move_to_end(key)
        return entry
    spec = _resolve(key, entry, disk)
    _remember_kernel(key, spec)
    return spec


def simulate(
    spec: KernelSpec,
    scheduler: str = "rr",
    model: str = "dtbl",
    config: Optional[GPUConfig] = None,
    *,
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES,
    telemetry: Optional[TelemetrySink] = None,
) -> SimStats:
    """Run one kernel under one scheduler and launch model in this
    process: every engine the package builds is built here.

    ``config`` defaults to the standard experiment machine; ``telemetry``
    attaches a :class:`~repro.telemetry.events.TelemetrySink` (without
    one the engine gets the null sink, which costs nothing). The engine
    stack is imported here, on a cache miss: a run answered from the
    result cache never loads it.
    """
    from repro.core import make_scheduler
    from repro.dynpar import make_model
    from repro.gpu.engine import Engine
    from repro.telemetry.events import NULL_SINK

    if config is None:
        from repro.harness.registry import experiment_config

        config = experiment_config()
    engine = Engine(
        config,
        make_scheduler(scheduler),
        make_model(model),
        [spec],
        max_cycles=max_cycles,
        telemetry=NULL_SINK if telemetry is None else telemetry,
    )
    return engine.run()


def run_spec(spec: RunSpec, disk: Optional[WorkloadCache] = None) -> SimStats:
    """Simulate one RunSpec in this process (no result caching, no dedup);
    its trace comes through :func:`kernel_for` with ``disk``."""
    return simulate(
        kernel_for(spec.benchmark, spec.scale, spec.seed, disk=disk),
        spec.scheduler,
        spec.model,
        spec.gpu_config(),
        max_cycles=spec.max_cycles,
    )


#: one trace store per root for the life of a pool worker, so a failing
#: disk is reported once per worker, not once per job
_worker_store = functools.cache(WorkloadCache)


def _worker_run(payload: dict) -> dict:
    """Pool-worker entry point: plain dict in, plain dict out.

    The payload (see :meth:`Executor.payload`) names the trace store by
    its root, or None for no disk."""
    spec = RunSpec.from_dict(payload["spec"])
    root = payload.get("workloads")
    disk = None if root is None else _worker_store(root)
    return {"stats": run_spec(spec, disk=disk).to_dict()}


# --- executors ----------------------------------------------------------------


class Executor:
    """Maps RunSpecs to SimStats with deduplication and optional caching.

    ``run`` is the one entry point: it deduplicates the requested specs,
    answers what it can from the cache, executes the misses (strategy
    supplied by subclasses) and stores fresh results back. ``hits`` /
    ``misses`` count cache outcomes across the executor's lifetime.

    A result record holds exactly ``engine_version``, ``spec`` and
    ``stats``; any other key a record carries is ignored.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        # a result cache brings a workload cache along at
        # <root>/workloads/, so cache-miss runs at least skip datagen
        self.workload_cache = WorkloadCache.beside(cache.root) if cache is not None else None
        self.hits = 0
        self.misses = 0

    def run(self, specs: Sequence[RunSpec]) -> dict[RunSpec, SimStats]:
        """Execute every distinct spec once; returns spec -> stats."""
        unique = list(dict.fromkeys(specs))
        results: dict[RunSpec, SimStats] = {}
        pending: list[RunSpec] = []
        for spec in unique:
            stats = self._cache_get(spec)
            if stats is None:
                pending.append(spec)
            else:
                results[spec] = stats
        if pending:
            for spec, stats in zip(pending, self._execute(pending)):
                self._cache_put(spec, stats)
                results[spec] = stats
        return results

    def run_one(self, spec: RunSpec) -> SimStats:
        return self.run([spec])[spec]

    def payload(self, spec: RunSpec) -> dict:
        """The pool job that runs ``spec`` as this executor would."""
        disk = self.workload_cache
        return {
            "spec": spec.to_dict(),
            "workloads": None if disk is None else str(disk.root),
        }

    # -- caching ---------------------------------------------------------------
    def _cache_get(self, spec: RunSpec) -> Optional[SimStats]:
        if self.cache is None:
            return None
        record = self.cache.load(spec.cache_key())
        if (
            record is None
            or record.get("engine_version") != ENGINE_VERSION
            or record.get("spec") != spec.to_dict()
            or not isinstance(record.get("stats"), dict)
        ):
            self.misses += 1
            return None
        try:
            stats = SimStats.from_dict(record["stats"])
        except (TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _cache_put(self, spec: RunSpec, stats: SimStats) -> None:
        if self.cache is None:
            return
        record = {
            "engine_version": ENGINE_VERSION,
            "spec": spec.to_dict(),
            "stats": stats.to_dict(),
        }
        self.cache.store(spec.cache_key(), record)

    # -- execution strategy ----------------------------------------------------
    def _execute(self, specs: Sequence[RunSpec]) -> list[SimStats]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Runs every simulation in the calling process, one after another."""

    def _execute(self, specs: Sequence[RunSpec]) -> list[SimStats]:
        return [run_spec(spec, disk=self.workload_cache) for spec in specs]


class ParallelExecutor(Executor):
    """Fans simulations out over a :class:`~repro.harness.pool.WorkerFleet`.

    Specs travel to workers as plain dicts and stats come back the same
    way, so no engine state, scheduler object or kernel trace is ever
    pickled. Each result lands in its spec's slot, not in completion
    order, so output is deterministic regardless of scheduling. A worker
    crash is retried once on a fresh worker; a second crash, or an error
    inside a simulation, raises a ``RuntimeError`` naming the spec.
    """

    def __init__(self, jobs: int, cache: Optional[ResultCache] = None) -> None:
        super().__init__(cache)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def _execute(self, specs: Sequence[RunSpec]) -> list[SimStats]:
        if len(specs) == 1 or self.jobs == 1:
            return SerialExecutor._execute(self, specs)
        disk = self.workload_cache
        # resolve each distinct workload of the pending specs once up
        # front (registered ones always, every one with a disk cache):
        # forked workers then inherit the trace, or load it from disk,
        # instead of each regenerating its own copy. Traces no pending
        # spec needs are never touched.
        for key in dict.fromkeys((s.benchmark, s.scale, s.seed) for s in specs):
            if disk is not None or key in _KERNEL_CACHE:
                kernel_for(*key, disk=disk)
        # imported here: asyncio loads only when a batch really fans out
        from repro.harness.pool import run_batch

        outs = run_batch(
            [(spec.label(), self.payload(spec)) for spec in specs],
            size=min(self.jobs, len(specs)),
        )
        return [SimStats.from_dict(obj["stats"]) for obj in outs]


def make_executor(jobs: int = 1, cache: Optional[ResultCache | str] = None) -> Executor:
    """Executor factory: ``jobs<=1`` serial, else a ``jobs``-wide pool.

    ``cache`` may be a :class:`ResultCache` or a directory path (a cache
    is created there); None disables result caching.
    """
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        cache = ResultCache(cache)
    if jobs <= 1:
        return SerialExecutor(cache)
    return ParallelExecutor(jobs, cache)
