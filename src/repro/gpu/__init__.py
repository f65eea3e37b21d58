"""GPU simulator substrate: machine model, kernels, and the engine."""

from repro.gpu.config import KEPLER_K20C, CacheConfig, GPUConfig
from repro.gpu.engine import DeadlockError, Engine
from repro.gpu.kdu import KDU
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq, TBState, ThreadBlock
from repro.gpu.kmu import KMU
from repro.gpu.serialize import load_spec, save_spec
from repro.gpu.smx import SMX, WarpContext
from repro.gpu.stats import SimStats
from repro.gpu.trace import (
    Instr,
    LaunchSpec,
    Op,
    TBBody,
    WarpTrace,
    compute,
    launch,
    load,
    store,
    walk_bodies,
)

__all__ = [
    "CacheConfig",
    "DeadlockError",
    "Engine",
    "GPUConfig",
    "Instr",
    "KDU",
    "KEPLER_K20C",
    "KMU",
    "Kernel",
    "KernelSpec",
    "LaunchSpec",
    "Op",
    "ResourceReq",
    "SMX",
    "SimStats",
    "TBBody",
    "TBState",
    "ThreadBlock",
    "WarpContext",
    "WarpTrace",
    "compute",
    "launch",
    "load",
    "load_spec",
    "save_spec",
    "store",
    "walk_bodies",
]
