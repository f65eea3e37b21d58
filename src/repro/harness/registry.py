"""Benchmark and scheduler registries, and the experiment machine.

``BENCHMARKS`` lists every application+input pair of Table II;
:func:`scheduler_catalog` enumerates the named policy compositions and
their component specs (see :mod:`repro.core.components`).

``experiment_config`` returns the machine used by the evaluation harness:
the paper's 13-SMX Kepler with capacities and caches scaled down ~2-4x so
that Python-feasible input sizes exercise the same contention regimes
(parent kernels larger than GPU residency; working sets a small multiple
of L2) that the paper's full-size inputs created on the full-size machine.
DESIGN.md §2 and EXPERIMENTS.md document this scaling.
"""

from __future__ import annotations

from repro.core import NAMED_COMPOSITIONS, SCHEDULER_ORDER, describe_components
from repro.dynpar import MODELS
from repro.gpu.config import CacheConfig, GPUConfig
from repro.workloads import APPLICATIONS, Workload, make_workload
from repro.workloads.base import SCALES

#: (application, input) pairs, in the paper's Table II order
BENCHMARKS: list[tuple[str, str]] = [
    ("amr", "combustion"),
    ("bht", "random-points"),
    ("bfs", "citation"),
    ("bfs", "graph500"),
    ("bfs", "cage15"),
    ("clr", "citation"),
    ("clr", "graph500"),
    ("clr", "cage15"),
    ("regx", "darpa"),
    ("regx", "random"),
    ("pre", "movielens"),
    ("join", "uniform"),
    ("join", "gaussian"),
    ("sssp", "citation"),
    ("sssp", "graph500"),
    ("sssp", "cage15"),
]


def benchmark_names() -> list[str]:
    """Full names ('bfs-citation', …) in registry order."""
    return [make_workload(app, inp, scale="tiny").full_name for app, inp in BENCHMARKS]


def load_benchmark(full_name: str, scale: str = "small", seed: int = 7) -> Workload:
    """Construct a benchmark from its full name (e.g. 'bfs-citation')."""
    for app, inp in BENCHMARKS:
        w_cls = APPLICATIONS[app]
        candidate = f"{app}-{inp}" if len(w_cls.inputs) > 1 else app
        if candidate == full_name:
            return make_workload(app, inp, scale=scale, seed=seed)
    raise ValueError(f"unknown benchmark {full_name!r}")


def iter_benchmarks(scale: str = "small", seed: int = 7):
    """Yield every Table II workload instance."""
    for app, inp in BENCHMARKS:
        yield make_workload(app, inp, scale=scale, seed=seed)


def scheduler_catalog() -> list[dict]:
    """Every named policy composition: ``{name, spec, paper}`` rows.

    The paper's four schedulers come first (figure order), then the
    composed policies the spec grammar unlocks. ``spec`` is the canonical
    spec string, so each row doubles as a grammar example.
    """
    ordered = SCHEDULER_ORDER + [n for n in NAMED_COMPOSITIONS if n not in SCHEDULER_ORDER]
    return [
        {
            "name": name,
            "spec": NAMED_COMPOSITIONS[name].canonical,
            "paper": name in SCHEDULER_ORDER,
        }
        for name in ordered
    ]


def catalog_dict() -> dict:
    """One machine-readable catalog of everything the harness can run.

    The single source behind ``repro list`` (``--json`` prints it
    verbatim), the service's ``GET /v1/catalog`` and any external tool
    that wants to enumerate the experiment space: benchmarks in Table II
    order, the named scheduler compositions with canonical specs, the
    spec grammar axes, the launch models and the accepted scales.
    """
    return {
        "benchmarks": benchmark_names(),
        "schedulers": scheduler_catalog(),
        "spec_grammar": describe_components(),
        "launch_models": sorted(MODELS),
        "scales": list(SCALES),
    }


def experiment_config(**overrides) -> GPUConfig:
    """The scaled 13-SMX machine used for all paper experiments."""
    config = GPUConfig(
        num_smx=13,
        max_threads_per_smx=1024,
        max_tbs_per_smx=16,
        max_registers_per_smx=32768,
        shared_mem_per_smx=48 * 1024,
        l1=CacheConfig(size_bytes=16 * 1024, associativity=4),
        l2=CacheConfig(size_bytes=384 * 1024, associativity=16),
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config
