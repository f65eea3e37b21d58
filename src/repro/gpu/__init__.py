"""GPU simulator substrate: machine model, kernels, and the engine."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.gpu.config": ("KEPLER_K20C", "CacheConfig", "GPUConfig"),
        "repro.gpu.engine": ("DeadlockError", "Engine"),
        "repro.gpu.kdu": ("KDU",),
        "repro.gpu.kernel": ("Kernel", "KernelSpec", "ResourceReq", "TBState", "ThreadBlock"),
        "repro.gpu.kmu": ("KMU",),
        "repro.gpu.serialize": ("load_spec", "save_spec"),
        "repro.gpu.smx": ("SMX", "WarpContext"),
        "repro.gpu.stats": ("SimStats",),
        "repro.gpu.trace": (
            "Instr",
            "LaunchSpec",
            "Op",
            "TBBody",
            "WarpTrace",
            "compute",
            "launch",
            "load",
            "store",
            "walk_bodies",
        ),
    },
)
