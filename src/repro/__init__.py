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

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis": (
            "FootprintResult",
            "OccupancyTimeline",
            "analyze_footprint",
            "inter_tb_reuse",
        ),
        "repro.core": (
            "NAMED_COMPOSITIONS",
            "SCHEDULER_ORDER",
            "ComposedScheduler",
            "SchedulerSpec",
            "canonical_scheduler_name",
            "make_scheduler",
            "parse_spec",
        ),
        "repro.dynpar": ("MODELS", "make_model"),
        "repro.gpu": ("Engine", "GPUConfig", "KernelSpec", "SimStats"),
        "repro.harness": (
            "BENCHMARKS",
            "GridResult",
            "ResultCache",
            "RunSpec",
            "experiment_config",
            "iter_benchmarks",
            "load_benchmark",
            "make_executor",
            "run_grid",
            "run_latency_sweep",
            "run_seed_sweep",
            "simulate",
        ),
        "repro.workloads": ("APPLICATIONS", "Workload", "make_workload"),
    },
)

__all__ += ["__version__"]
