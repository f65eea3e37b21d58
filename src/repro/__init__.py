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

Every public name below resolves on first use (PEP 562), so importing
``repro`` or any of its submodules loads only what that code needs: a
warm-cache ``repro grid`` never imports numpy or the analysis code
(docs/harness.md, "What a run imports").
"""

import importlib

__version__ = "1.0.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    "FootprintResult": "repro.analysis",
    "OccupancyTimeline": "repro.analysis",
    "analyze_footprint": "repro.analysis",
    "inter_tb_reuse": "repro.analysis",
    "reuse_distance_histogram": "repro.analysis",
    "NAMED_COMPOSITIONS": "repro.core",
    "SCHEDULER_ORDER": "repro.core",
    "ComposedScheduler": "repro.core",
    "SchedulerSpec": "repro.core",
    "canonical_scheduler_name": "repro.core",
    "make_scheduler": "repro.core",
    "parse_spec": "repro.core",
    "MODELS": "repro.dynpar",
    "make_model": "repro.dynpar",
    "Engine": "repro.gpu",
    "GPUConfig": "repro.gpu",
    "KernelSpec": "repro.gpu",
    "SimStats": "repro.gpu",
    "BENCHMARKS": "repro.harness",
    "GridResult": "repro.harness",
    "ResultCache": "repro.harness",
    "RunSpec": "repro.harness",
    "experiment_config": "repro.harness",
    "iter_benchmarks": "repro.harness",
    "load_benchmark": "repro.harness",
    "make_executor": "repro.harness",
    "run_grid": "repro.harness",
    "run_latency_sweep": "repro.harness",
    "run_seed_sweep": "repro.harness",
    "simulate": "repro.harness",
    "APPLICATIONS": "repro.workloads",
    "Workload": "repro.workloads",
    "make_workload": "repro.workloads",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
