"""Dynamic-parallelism model interface.

A model decides what a device-side ``LAUNCH`` instruction turns into and
how long that takes. Two concrete models exist, matching the paper:

* :class:`repro.dynpar.cdp.CDP` — CUDA Dynamic Parallelism: the launch
  becomes a *device kernel* that travels SMX → KMU → KDU, paying a large
  software launch latency and consuming a KDU entry.
* :class:`repro.dynpar.dtbl.DTBL` — Dynamic Thread Block Launch: the launch
  becomes a lightweight *TB group* coalesced onto an existing kernel with a
  matching configuration, paying a small hardware latency and no KDU entry.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from typing import Optional, TYPE_CHECKING

from repro.gpu.kernel import ThreadBlock
from repro.gpu.trace import LaunchSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.engine import Engine


def clamp_priority(parent_priority: int, max_levels: int) -> int:
    """Child priority = parent + 1, clamped to the maximum level L."""
    return min(parent_priority + 1, max_levels)


class DynamicParallelismModel(ABC):
    """Queues in-flight launches and delivers them after their latency."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.engine: Optional["Engine"] = None
        self._pending: list[tuple[int, int, ThreadBlock, LaunchSpec]] = []
        self._seq = itertools.count()

    def attach(self, engine: "Engine") -> None:
        self.engine = engine

    def detach(self) -> None:
        """Drop the engine once its run has ended (undoes :meth:`attach`)."""
        self.engine = None

    @abstractmethod
    def launch_latency(self) -> int:
        """Cycles from launch instruction to the child being schedulable."""

    @abstractmethod
    def _deliver(self, parent_tb: ThreadBlock, spec: LaunchSpec, now: int) -> None:
        """Materialize one launch (model-specific)."""

    def queue_launch(self, parent_tb: ThreadBlock, spec: LaunchSpec, now: int) -> None:
        ready_at = now + self.launch_latency()
        heapq.heappush(self._pending, (ready_at, next(self._seq), parent_tb, spec))
        self._on_queued(parent_tb, spec)

    def _on_queued(self, parent_tb: ThreadBlock, spec: LaunchSpec) -> None:
        """Hook for subclasses (e.g. DTBL keeps the target kernel alive)."""

    def deliver_due(self, now: int) -> None:
        while self._pending and self._pending[0][0] <= now:
            _, _, parent_tb, spec = heapq.heappop(self._pending)
            self._deliver(parent_tb, spec, now)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def next_delivery_time(self) -> Optional[int]:
        return self._pending[0][0] if self._pending else None
