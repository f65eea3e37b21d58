"""DRAM timing model.

A fixed service latency plus a bandwidth queue: the memory system can
*complete* at most ``lines_per_cycle`` line transfers per cycle, so bursts
of misses queue up and observe increasing latency. This first-order model
captures the contention effect that makes cache hit rate matter for IPC,
without simulating GDDR5 bank/row timing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DRAMStats:
    transactions: int = 0
    total_latency: int = 0
    max_queue_delay: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.transactions if self.transactions else 0.0


class DRAM:
    """Bandwidth-limited fixed-latency DRAM.

    ``service(now)`` returns the absolute cycle at which a new line
    transaction issued at cycle ``now`` completes. The memory walk
    (``MemoryHierarchy._make_accessor``) inlines the same arithmetic; the
    reference walk (``tests/memory_reference.py``) calls this method.
    """

    def __init__(self, latency: int, lines_per_cycle: float) -> None:
        if lines_per_cycle <= 0:
            raise ValueError("lines_per_cycle must be positive")
        self.latency = latency
        self.cycles_per_line = 1.0 / lines_per_cycle
        # earliest time the DRAM data bus is free, in (possibly fractional)
        # cycles; monotonically non-decreasing
        self._bus_free: float = 0.0
        self.stats = DRAMStats()

    def service(self, now: int) -> int:
        start = max(float(now), self._bus_free)
        self._bus_free = start + self.cycles_per_line
        finish = int(start) + self.latency
        self.stats.transactions += 1
        self.stats.total_latency += finish - now
        self.stats.max_queue_delay = max(self.stats.max_queue_delay, int(start) - now)
        return finish

    def reset(self) -> None:
        self._bus_free = 0.0
        self.stats = DRAMStats()
