"""LaPerm: Locality Aware Scheduler for Dynamic Parallelism on GPUs.

A from-scratch Python reproduction of the ISCA 2016 paper by Wang, Rubin,
Sidelnik and Yalamanchili: a trace-driven, cycle-level GPU simulator with
CDP/DTBL dynamic parallelism, a composable TB-scheduler stack whose
named presets are the four policies the paper evaluates (round-robin
baseline, TB-Pri, SMX-Bind, Adaptive-Bind = LaPerm; see
docs/schedulers.md for the component grammar), the eight irregular
benchmark applications, and the analysis/harness code that regenerates
every table and figure.

Quick start::

    from repro import simulate, make_workload

    workload = make_workload("bfs", "citation", scale="small")
    baseline = simulate(workload.kernel(), scheduler="rr", model="dtbl")
    laperm = simulate(workload.kernel(), scheduler="adaptive-bind", model="dtbl")
    print(laperm.ipc / baseline.ipc)
"""

from repro.analysis import (
    FootprintResult,
    OccupancyTimeline,
    analyze_footprint,
    inter_tb_reuse,
    reuse_distance_histogram,
)
from repro.core import (
    NAMED_COMPOSITIONS,
    SCHEDULER_ORDER,
    ComposedScheduler,
    SchedulerSpec,
    canonical_scheduler_name,
    make_scheduler,
    parse_spec,
)
from repro.dynpar import MODELS, make_model
from repro.functional import BFSProgram, DeviceMemory, run_functional_kernel
from repro.gpu import Engine, GPUConfig, KernelSpec, SimStats
from repro.harness import (
    BENCHMARKS,
    GridResult,
    ResultCache,
    RunSpec,
    experiment_config,
    iter_benchmarks,
    load_benchmark,
    make_executor,
    run_grid,
    run_latency_sweep,
    run_seed_sweep,
    simulate,
)
from repro.workloads import APPLICATIONS, Workload, make_workload

__version__ = "1.0.0"

__all__ = [
    "APPLICATIONS",
    "BENCHMARKS",
    "BFSProgram",
    "ComposedScheduler",
    "DeviceMemory",
    "Engine",
    "FootprintResult",
    "GPUConfig",
    "GridResult",
    "KernelSpec",
    "MODELS",
    "NAMED_COMPOSITIONS",
    "OccupancyTimeline",
    "ResultCache",
    "RunSpec",
    "SCHEDULER_ORDER",
    "SchedulerSpec",
    "SimStats",
    "Workload",
    "analyze_footprint",
    "canonical_scheduler_name",
    "parse_spec",
    "experiment_config",
    "inter_tb_reuse",
    "iter_benchmarks",
    "load_benchmark",
    "make_executor",
    "make_model",
    "make_scheduler",
    "make_workload",
    "run_functional_kernel",
    "reuse_distance_histogram",
    "run_grid",
    "run_latency_sweep",
    "run_seed_sweep",
    "simulate",
    "__version__",
]
