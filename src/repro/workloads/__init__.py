"""Benchmark applications (paper Table II) and their input generators.

The application modules hold no trace types at module level: each
imports the trace layer (and numpy) inside ``build()``, so constructing
a workload, as a warm run does, loads neither.
"""

from repro._exports import lazy_exports
from repro.workloads.amr import AMR
from repro.workloads.base import AddressSpace, Array, Workload
from repro.workloads.bfs import BFS
from repro.workloads.bht import BHT
from repro.workloads.clr import CLR
from repro.workloads.join import JOIN
from repro.workloads.pre import PRE
from repro.workloads.regx import REGX
from repro.workloads.sssp import SSSP

#: application classes by short name
APPLICATIONS = {
    "amr": AMR,
    "bht": BHT,
    "bfs": BFS,
    "clr": CLR,
    "regx": REGX,
    "pre": PRE,
    "join": JOIN,
    "sssp": SSSP,
}


def make_workload(name: str, input_name: str | None = None, scale: str = "small", seed: int = 7) -> Workload:
    """Construct a benchmark by application name and input name."""
    try:
        cls = APPLICATIONS[name]
    except KeyError:
        raise ValueError(f"unknown application {name!r}; expected one of {sorted(APPLICATIONS)}") from None
    return cls(input_name, scale=scale, seed=seed)


__getattr__, __dir__, _ = lazy_exports(__name__, {"repro.gpu.trace": ("WarpTrace",)})

__all__ = [
    "AMR",
    "APPLICATIONS",
    "AddressSpace",
    "Array",
    "BFS",
    "BHT",
    "CLR",
    "JOIN",
    "PRE",
    "REGX",
    "SSSP",
    "WarpTrace",
    "Workload",
    "make_workload",
]
