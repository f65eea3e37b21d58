"""Memory-system substrate: caches, coalescer, DRAM, and the hierarchy."""

from repro.memory.cache import Cache, CacheStats
from repro.memory.coalescer import coalesce, coalescing_degree
from repro.memory.dram import DRAM, DRAMStats
from repro.memory.hierarchy import MemoryHierarchy

__all__ = [
    "Cache",
    "CacheStats",
    "DRAM",
    "DRAMStats",
    "MemoryHierarchy",
    "coalesce",
    "coalescing_degree",
]
