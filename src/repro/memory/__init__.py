"""Memory-system substrate: caches, coalescer, DRAM, and the hierarchy."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.memory.cache": ("Cache", "CacheStats"),
        "repro.memory.coalescer": ("coalesce", "coalescing_degree"),
        "repro.memory.dram": ("DRAM", "DRAMStats"),
        "repro.memory.hierarchy": ("MemoryHierarchy",),
    },
)
