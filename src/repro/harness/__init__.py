"""Experiment harness: registry, RunSpec execution layer, and reports."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.harness.registry": (
            "BENCHMARKS",
            "benchmark_names",
            "experiment_config",
            "iter_benchmarks",
            "load_benchmark",
        ),
        "repro.harness.cache": ("ResultCache",),
        "repro.harness.execution": (
            "ENGINE_VERSION",
            "Executor",
            "ParallelExecutor",
            "RunSpec",
            "SerialExecutor",
            "make_executor",
            "run_spec",
            "seed_kernel_cache",
            "simulate",
        ),
        "repro.harness.export": ("grid_records", "grid_to_csv", "grid_to_json", "write_grid"),
        "repro.harness.workload_cache": ("TRACE_VERSION", "WorkloadCache"),
        "repro.harness.runner": (
            "DEFAULT_LATENCIES",
            "DEFAULT_MODELS",
            "GridResult",
            "SeedSweepResult",
            "run_grid",
            "run_latency_sweep",
            "run_seed_sweep",
        ),
    },
)
