"""Kernel Management Unit (KMU).

The KMU receives kernels — host-launched at time 0, device-launched (CDP)
during execution — and moves them into the KDU as entries free up.

Two admission policies exist, matching the paper:

* ``fcfs`` (baseline): kernels enter the KDU strictly in arrival order.
* ``prioritized`` (LaPerm): among pending device kernels the KMU picks the
  highest clamped priority first (FCFS within a priority level), checking
  SMX-bound queues round-robin; host kernels sit at the lowest priority.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.gpu.kdu import KDU
from repro.gpu.kernel import Kernel


class KMU:
    """Pending-kernel queue in front of the KDU.

    Pending kernels wait in a heap of ``(key, seq, kernel)``: ``key`` is
    the negated priority under ``prioritized`` and ``0`` under FCFS, and
    ``seq`` is the unique arrival number, so a pop returns exactly the
    kernel a scan for the highest priority, earliest arrival would pick.
    Admission costs ``O(log n)`` however long the device-launch backlog
    grows (sssp-cage15 ``small`` under CDP queues up to 1,426 kernels).
    """

    def __init__(self, kdu: KDU, *, prioritized: bool = False) -> None:
        self.kdu = kdu
        self.prioritized = prioritized
        self._seq = itertools.count()
        # the pending heap; mutated in place only, since the engine's run
        # loop binds the list once
        self._pending: list[tuple[int, int, Kernel]] = []
        # invoked whenever a kernel becomes KDU-resident
        self.on_admit: Optional[Callable[[Kernel, int], None]] = None
        self.pending_high_water = 0

    def submit(self, kernel: Kernel, now: int) -> None:
        """Receive a kernel (host launch or CDP device launch)."""
        key = -kernel.priority if self.prioritized else 0
        heappush(self._pending, (key, next(self._seq), kernel))
        self.pending_high_water = max(self.pending_high_water, len(self._pending))
        self.fill_kdu(now)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def fill_kdu(self, now: int) -> None:
        """Admit pending kernels while KDU entries are free."""
        pending = self._pending
        while pending and not self.kdu.full:
            _, _, kernel = heappop(pending)
            self.kdu.admit(kernel)
            if self.on_admit is not None:
                self.on_admit(kernel, now)

    @property
    def drained(self) -> bool:
        return not self._pending
