"""Experiment runner: benchmark x scheduler x launch-model grids.

``simulate`` runs one configuration in-process; everything larger
(``run_grid`` for the Figures 7-9 matrix, ``run_seed_sweep``,
``run_latency_sweep`` for Section V-D) is a thin composition over the
:mod:`repro.harness.execution` layer: each sweep enumerates
:class:`~repro.harness.execution.RunSpec` objects and hands them to an
executor, which deduplicates shared runs (the RR baseline simulates once
per distinct spec, however many subjects compare against it), optionally
fans out over worker processes (``jobs``) and consults the on-disk
result cache (``cache``). Serial, parallel and cached execution produce
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core import SCHEDULER_ORDER, canonical_scheduler_name, make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kernel import KernelSpec
from repro.gpu.stats import SimStats
from repro.harness.cache import ResultCache
from repro.harness.execution import (
    Executor,
    RunSpec,
    make_executor,
    seed_kernel_cache,
)
from repro.harness.registry import experiment_config, iter_benchmarks
from repro.telemetry.events import NULL_SINK, TelemetrySink
from repro.workloads import Workload

DEFAULT_MODELS = ("cdp", "dtbl")

#: launch latencies (cycles) swept by Section V-D, DTBL hardware path to
#: well past the measured CDP software path
DEFAULT_LATENCIES = (250, 1000, 4000, 16000, 64000)


def simulate(
    spec: KernelSpec,
    scheduler: str = "rr",
    model: str = "dtbl",
    config: Optional[GPUConfig] = None,
    *,
    max_cycles: Optional[int] = 500_000_000,
    telemetry: TelemetrySink = NULL_SINK,
) -> SimStats:
    """Run one kernel under one scheduler and launch model.

    ``telemetry`` attaches a :class:`~repro.telemetry.events.TelemetrySink`
    (e.g. a :class:`~repro.telemetry.chrome_trace.ChromeTraceSink`) to the
    engine; the default null sink records nothing and costs nothing.
    """
    config = config or experiment_config()
    engine = Engine(
        config,
        make_scheduler(scheduler),
        make_model(model),
        [spec],
        max_cycles=max_cycles,
        telemetry=telemetry,
    )
    return engine.run()


def _resolve_executor(
    executor: Optional[Executor],
    jobs: int,
    cache: Optional[ResultCache | str],
) -> Executor:
    """Accept an explicit executor, or build one from jobs/cache knobs."""
    if executor is not None:
        return executor
    return make_executor(jobs=jobs, cache=cache)


@dataclass
class GridResult:
    """Results of a benchmark x scheduler x model sweep."""

    schedulers: list[str]
    models: list[str]
    benchmarks: list[str] = field(default_factory=list)
    #: stats[(benchmark, scheduler, model)] -> SimStats
    stats: dict[tuple[str, str, str], SimStats] = field(default_factory=dict)

    def _check_pair(self, scheduler: str, model: str) -> None:
        if scheduler not in self.schedulers:
            raise KeyError(
                f"unknown scheduler {scheduler!r}; this grid has {sorted(self.schedulers)}"
            )
        if model not in self.models:
            raise KeyError(f"unknown model {model!r}; this grid has {sorted(self.models)}")

    def get(self, benchmark: str, scheduler: str, model: str) -> SimStats:
        stats = self.stats.get((benchmark, scheduler, model))
        if stats is not None:
            return stats
        # grids are keyed by canonical scheduler label; accept any grammar
        # spelling ('pri=level,bind=smx,steal=backup' == 'adaptive-bind')
        try:
            canonical = canonical_scheduler_name(scheduler)
        except ValueError:
            canonical = scheduler
        if canonical != scheduler:
            stats = self.stats.get((benchmark, canonical, model))
            if stats is not None:
                return stats
            scheduler = canonical
        self._check_pair(scheduler, model)
        if benchmark not in self.benchmarks:
            raise KeyError(
                f"unknown benchmark {benchmark!r}; this grid has {sorted(self.benchmarks)}"
            )
        raise KeyError(
            f"no result for ({benchmark!r}, {scheduler!r}, {model!r}); this grid "
            f"has benchmarks {sorted(self.benchmarks)}, schedulers "
            f"{sorted(self.schedulers)}, models {sorted(self.models)}"
        )

    def metric(self, benchmark: str, scheduler: str, model: str, name: str) -> float:
        return getattr(self.get(benchmark, scheduler, model), name)

    def normalized_ipc(self, benchmark: str, scheduler: str, model: str, baseline: str = "rr") -> float:
        """IPC normalized to the baseline scheduler under the same model."""
        base = self.get(benchmark, baseline, model).ipc
        return self.get(benchmark, scheduler, model).ipc / base if base else 0.0

    def mean_metric(self, scheduler: str, model: str, name: str) -> float:
        self._check_pair(scheduler, model)
        values = [self.metric(b, scheduler, model, name) for b in self.benchmarks]
        return sum(values) / len(values) if values else 0.0

    def mean_normalized_ipc(self, scheduler: str, model: str, baseline: str = "rr") -> float:
        self._check_pair(scheduler, model)
        self._check_pair(baseline, model)
        values = [self.normalized_ipc(b, scheduler, model, baseline) for b in self.benchmarks]
        return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class SeedSweepResult:
    """Normalized-IPC statistics over several workload seeds."""

    scheduler: str
    model: str
    speedups: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.speedups) / len(self.speedups) if self.speedups else 0.0

    @property
    def std(self) -> float:
        if len(self.speedups) < 2:
            return 0.0
        mu = self.mean
        return (sum((x - mu) ** 2 for x in self.speedups) / (len(self.speedups) - 1)) ** 0.5

    @property
    def min(self) -> float:
        return min(self.speedups) if self.speedups else 0.0

    @property
    def max(self) -> float:
        return max(self.speedups) if self.speedups else 0.0


def run_seed_sweep(
    benchmark: str,
    scheduler: str,
    *,
    model: str = "dtbl",
    seeds: Sequence[int] = (1, 2, 3, 5, 7),
    scale: str = "small",
    config: Optional[GPUConfig] = None,
    baseline: str = "rr",
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache | str] = None,
) -> SeedSweepResult:
    """Measure a scheduler's speedup over the baseline across input seeds.

    Workload generation is seeded; a result that only holds for one seed
    is noise. This regenerates the input for every seed and reports the
    distribution of normalized IPC. When ``scheduler == baseline`` the
    subject spec *is* the baseline spec, so each seed simulates exactly
    once and the speedups are identically 1.0 — never two runs of the
    same simulation.
    """
    config = config or experiment_config()
    executor = _resolve_executor(executor, jobs, cache)
    pairs = []
    for seed in seeds:
        base = RunSpec.create(benchmark, baseline, model, scale=scale, seed=seed, config=config)
        subject = (
            base
            if scheduler == baseline
            else RunSpec.create(benchmark, scheduler, model, scale=scale, seed=seed, config=config)
        )
        pairs.append((base, subject))
    results = executor.run([spec for pair in pairs for spec in pair])
    speedups = tuple(
        results[subject].ipc / results[base].ipc if results[base].ipc else 0.0
        for base, subject in pairs
    )
    return SeedSweepResult(scheduler=scheduler, model=model, speedups=speedups)


def run_grid(
    workloads: Optional[Iterable[Workload]] = None,
    schedulers: Sequence[str] = tuple(SCHEDULER_ORDER),
    models: Sequence[str] = DEFAULT_MODELS,
    config: Optional[GPUConfig] = None,
    *,
    scale: str = "small",
    verbose: bool = False,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache | str] = None,
) -> GridResult:
    """Run the full evaluation grid (Figures 7, 8 and 9).

    Workload traces are registered with the execution layer, so a serial
    executor never rebuilds them; with a result cache attached, traces
    also persist in the on-disk workload cache, and a warm grid runs
    zero datagen steps (worker processes pre-load the stored traces
    instead of rebuilding by (benchmark, scale, seed)). Workloads
    outside the Table II registry require a serial executor.

    ``schedulers`` accepts any grammar spelling (named composition, spec
    string, ``+throttle``); grid rows are keyed by canonical label.
    """
    config = config or experiment_config()
    executor = _resolve_executor(executor, jobs, cache)
    schedulers = list(dict.fromkeys(canonical_scheduler_name(s) for s in schedulers))
    if workloads is None:
        workloads = list(iter_benchmarks(scale=scale))
    else:
        workloads = list(workloads)
    result = GridResult(schedulers=list(schedulers), models=list(models))
    cells: dict[tuple[str, str, str], RunSpec] = {}
    for workload in workloads:
        seed_kernel_cache(workload)
        result.benchmarks.append(workload.full_name)
        for model in models:
            for scheduler in schedulers:
                cells[(workload.full_name, scheduler, model)] = RunSpec.for_workload(
                    workload, scheduler, model, config
                )
    stats_by_spec = executor.run(list(cells.values()))
    for (benchmark, scheduler, model), spec in cells.items():
        stats = stats_by_spec[spec]
        result.stats[(benchmark, scheduler, model)] = stats
        if verbose:
            print(f"  {benchmark:16s} {scheduler:14s} {model}: {stats.summary()}")
    return result


def run_latency_sweep(
    benchmark: str = "bfs-citation",
    latencies: Sequence[int] = DEFAULT_LATENCIES,
    *,
    scheduler: str = "adaptive-bind",
    baseline: str = "rr",
    model: str = "dtbl",
    scale: str = "small",
    seed: int = 7,
    config: Optional[GPUConfig] = None,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache | str] = None,
) -> list[tuple[int, float, float]]:
    """Section V-D: sweep the device-launch latency.

    Returns ``(latency, subject speedup over baseline, subject child
    mean wait)`` rows, one per latency, in the order given.
    """
    base_config = config or experiment_config()
    executor = _resolve_executor(executor, jobs, cache)
    cells = []
    for latency in latencies:
        latency_config = base_config.with_overrides(dtbl_launch_latency=latency)
        cells.append(
            (
                latency,
                RunSpec.create(benchmark, baseline, model, scale=scale, seed=seed, config=latency_config),
                RunSpec.create(benchmark, scheduler, model, scale=scale, seed=seed, config=latency_config),
            )
        )
    results = executor.run([spec for _, base, subject in cells for spec in (base, subject)])
    return [
        (
            latency,
            results[subject].ipc / results[base].ipc if results[base].ipc else 0.0,
            results[subject].child_mean_wait,
        )
        for latency, base, subject in cells
    ]
