"""The cycle-level simulation engine.

The engine owns the machine state (SMXs, memory hierarchy, KMU, KDU) and
advances a global clock. Each cycle it:

1. delivers device launches whose latency has elapsed (CDP kernels to the
   KMU, DTBL groups onto their target kernels),
2. retires thread blocks whose last warp finished, freeing SMX resources
   and KDU entries,
3. invokes the pluggable TB scheduler, which may place **one** TB on one
   SMX (the paper's one-TB-per-cycle dispatch stage),
4. lets every SMX *that can act this cycle* issue at most one instruction.

Step 4 is event-driven: the engine keeps a wake calendar — a min-heap of
``(cycle, smx_id)`` entries — and each SMX reports its next possible issue
cycle (:meth:`SMX.next_event_time`) after every visit; a TB placement
re-arms its SMX for the current cycle. Only wake-due SMXs are visited, in
ascending SMX id within a cycle (the fixed sweep order the memory system's
shared state depends on), so idle and port-busy SMXs cost nothing. The
calendar uses lazy invalidation: ``SMX.wake_at`` holds the authoritative
wake cycle and stale heap entries are skipped on pop. This visits an SMX
on exactly the cycles the classic every-SMX sweep would have issued or
re-queued a warp on, so simulated results are cycle-exact with the
pre-calendar engine (pinned by tests/golden_equivalence.json).

When nothing can happen, the clock jumps to the next event — the earliest
of the retire heap, the launch-delivery queue, and the wake calendar — so
that memory-stall-dominated regions do not cost wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence, TYPE_CHECKING

from repro.gpu.config import GPUConfig
from repro.gpu.kdu import KDU
from repro.gpu.kernel import Kernel, KernelSpec, TBState, ThreadBlock
from repro.gpu.kmu import KMU
from repro.gpu.smx import SMX
from repro.gpu.stats import SimStats
from repro.gpu.trace import LaunchSpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.telemetry.events import (
    NULL_SINK,
    CacheSample,
    ChildLaunched,
    KernelDispatched,
    TBCompleted,
    TBDispatched,
    TelemetrySink,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TBScheduler
    from repro.dynpar.launch import DynamicParallelismModel


class DeadlockError(RuntimeError):
    """No event can ever make progress (e.g. a TB too large for any SMX)."""


class Engine:
    """One simulation run: machine + scheduler + dynamic-parallelism model."""

    def __init__(
        self,
        config: GPUConfig,
        scheduler: "TBScheduler",
        dynpar: "DynamicParallelismModel",
        host_kernels: Sequence[KernelSpec],
        *,
        max_cycles: Optional[int] = None,
        telemetry: TelemetrySink = NULL_SINK,
        telemetry_sample_interval: int = 2048,
    ) -> None:
        if not host_kernels:
            raise ValueError("need at least one host kernel")
        self.config = config
        self.scheduler = scheduler
        self.dynpar = dynpar
        self.max_cycles = max_cycles
        self.memory = MemoryHierarchy(config)
        self.smxs = [SMX(i, config) for i in range(config.num_smx)]
        self.kdu = KDU(config.kdu_entries)
        self.kmu = KMU(self.kdu, prioritized=scheduler.prioritized_kmu)
        self.kmu.on_admit = self._on_kernel_admitted
        self.now = 0
        self.stats = SimStats()
        self._retire_heap: list[tuple[int, int, ThreadBlock]] = []
        self._retire_seq = itertools.count()
        # the SMX wake calendar: (cycle, smx_id) entries, lazily invalidated
        # against the authoritative SMX.wake_at (see module docstring)
        self._wake_heap: list[tuple[int, int]] = []
        self._live_tbs = 0
        self._finished = False
        # telemetry sink (docs/telemetry.md): every emit site guards on
        # `telemetry.enabled` before constructing the event, so the
        # default NULL_SINK costs one attribute read per site
        self.telemetry = telemetry
        if telemetry_sample_interval < 1:
            raise ValueError("telemetry_sample_interval must be positive")
        self._sample_interval = telemetry_sample_interval

        scheduler.attach(self)
        dynpar.attach(self)

        for spec in host_kernels:
            kernel = Kernel(spec, priority=0, created_at=0)
            self.register_kernel(kernel)
            self.kmu.submit(kernel, 0)

    # ----- bookkeeping hooks (called by dynpar / SMXs) ---------------------
    def register_kernel(self, kernel: Kernel) -> None:
        """Account for a newly created kernel's thread blocks."""
        self._live_tbs += kernel.num_tbs

    def register_group(self, tbs: Sequence[ThreadBlock]) -> None:
        """Account for a DTBL group appended to an existing kernel."""
        self._live_tbs += len(tbs)

    def _on_kernel_admitted(self, kernel: Kernel, now: int) -> None:
        if self.telemetry.enabled:
            self.telemetry.emit(
                KernelDispatched(
                    time=now,
                    kernel_id=kernel.kernel_id,
                    kernel=kernel.name,
                    priority=kernel.priority,
                    num_tbs=kernel.num_tbs,
                    is_device=kernel.is_device_kernel,
                )
            )
        self.scheduler.on_kernel_arrival(kernel, now)

    def handle_launch(self, parent_tb: ThreadBlock, spec: LaunchSpec, now: int) -> None:
        """A LAUNCH instruction executed on an SMX."""
        self.stats.launches += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                ChildLaunched(
                    time=now,
                    smx_id=parent_tb.smx_id,
                    parent_tb_id=parent_tb.tb_id,
                    kernel=spec.name,
                    num_tbs=len(spec.bodies),
                )
            )
        self.dynpar.queue_launch(parent_tb, spec, now)

    def schedule_retire(self, tb: ThreadBlock, time: int) -> None:
        """The last warp of ``tb`` finishes at ``time``."""
        heapq.heappush(self._retire_heap, (time, next(self._retire_seq), tb))

    def record_dispatch(self, tb: ThreadBlock, now: int) -> None:
        """Called by schedulers after placing a TB (statistics)."""
        if self.telemetry.enabled:
            parent = tb.parent
            self.telemetry.emit(
                TBDispatched(
                    time=now,
                    smx_id=tb.smx_id,
                    tb_id=tb.tb_id,
                    kernel_id=tb.kernel.kernel_id,
                    kernel=tb.kernel.name,
                    priority=tb.priority,
                    warps=tb.body.num_warps,
                    is_dynamic=tb.is_dynamic,
                    parent_smx_id=parent.smx_id if parent is not None else None,
                    wait_cycles=now - tb.created_at,
                )
            )
        self.stats.tbs_dispatched += 1
        if tb.is_dynamic:
            self.stats.child_tbs_dispatched += 1
            self.stats.child_wait_total += now - tb.created_at
            parent = tb.parent
            if parent is not None and parent.smx_id is not None:
                if parent.smx_id == tb.smx_id:
                    self.stats.child_same_smx += 1
                if self.config.cluster_of(parent.smx_id) == self.config.cluster_of(tb.smx_id):
                    self.stats.child_same_cluster += 1

    # ----- main loop --------------------------------------------------------
    def _retire_due(self, now: int) -> bool:
        retired = False
        heap = self._retire_heap
        while heap and heap[0][0] <= now:
            time, _, tb = heapq.heappop(heap)
            smx = self.smxs[tb.smx_id]
            smx.release(tb)
            tb.state = TBState.DONE
            tb.retired_at = time
            if self.telemetry.enabled:
                self.telemetry.emit(
                    TBCompleted(
                        time=time,
                        smx_id=tb.smx_id,
                        tb_id=tb.tb_id,
                        kernel_id=tb.kernel.kernel_id,
                        kernel=tb.kernel.name,
                        warps=tb.body.num_warps,
                        is_dynamic=tb.is_dynamic,
                        dispatched_at=tb.dispatched_at,
                    )
                )
            kernel = tb.kernel
            kernel.retired_tbs += 1
            self._live_tbs -= 1
            retired = True
            if kernel.complete and kernel in self.kdu:
                self.kdu.retire(kernel)
                self.kmu.fill_kdu(now)
        return retired

    def _work_remaining(self) -> bool:
        return (
            self._live_tbs > 0
            or self.dynpar.pending_count > 0
            or not self.kmu.drained
        )

    # ----- the SMX wake calendar -------------------------------------------
    def _wake_smx(self, smx: SMX, at: int) -> None:
        """Arm (or advance) an SMX's next visit to cycle ``at``."""
        wake = smx.wake_at
        if wake is None or at < wake:
            smx.wake_at = at
            heapq.heappush(self._wake_heap, (at, smx.smx_id))

    def _next_event_time(self) -> Optional[int]:
        """Earliest cycle at which anything can happen, or None."""
        best = self._retire_heap[0][0] if self._retire_heap else None
        nxt = self.dynpar.next_delivery_time()
        if nxt is not None and (best is None or nxt < best):
            best = nxt
        heap = self._wake_heap
        while heap:
            t, sid = heap[0]
            if self.smxs[sid].wake_at != t:  # stale calendar entry
                heapq.heappop(heap)
                continue
            if best is None or t < best:
                best = t
            break
        return best

    def _emit_sample(self, now: int) -> None:
        resident = sum(len(smx.resident_tbs) for smx in self.smxs)
        self.telemetry.emit(
            CacheSample(
                time=now,
                l1_hit_rate=self.memory.l1_hit_rate,
                l2_hit_rate=self.memory.l2_hit_rate,
                queued_tbs=self._live_tbs - resident,
                resident_tbs=resident,
            )
        )

    def run(self) -> SimStats:
        """Run to completion and return the statistics."""
        if self._finished:
            raise RuntimeError("engine instances are single-use")
        now = self.now
        # cycles spent rotating the dispatch stage with no other event in
        # sight: bounded, or a TB that fits nowhere would spin forever
        stall_budget = 4 * len(self.smxs) + 16
        stalled = 0
        sampling = self.telemetry.enabled
        next_sample = now
        max_cycles = self.max_cycles
        smxs = self.smxs
        wake_heap = self._wake_heap
        retire_heap = self._retire_heap
        deliver_due = self.dynpar.deliver_due
        dispatch = self.scheduler.dispatch
        retire_due = self._retire_due
        heappop, heappush = heapq.heappop, heapq.heappush
        # _work_remaining() inlined: both pending lists are created once and
        # mutated in place, so binding them here is safe and skips four
        # attribute/property lookups per executed cycle
        dynpar_pending = self.dynpar._pending
        kmu_pending = self.kmu._pending
        # dispatch-skip state: a pure scheduler whose dispatch returned None
        # without counting a steal cannot place anything until a delivery,
        # kernel admission, TB retire or placement changes machine state, so
        # the engine stops calling it until one of those happens. Schedulers
        # with timed side effects opt out via ``idle_dispatch_pure``.
        scheduler = self.scheduler
        dispatch_pure = scheduler.idle_dispatch_pure
        dispatch_dirty = True
        while self._live_tbs > 0 or dynpar_pending or kmu_pending:
            if sampling and now >= next_sample:
                self._emit_sample(now)
                next_sample = now + self._sample_interval
            # both stage helpers start with the same due-check: hoisting it
            # here skips the call entirely on the (common) nothing-due cycle
            if dynpar_pending and dynpar_pending[0][0] <= now:
                deliver_due(now)
                dispatch_dirty = True
            if retire_heap and retire_heap[0][0] <= now:
                retired = retire_due(now)
                dispatch_dirty = True
            else:
                retired = False
            if dispatch_dirty:
                steals_before = scheduler.steals
                placed_tb = dispatch(now)
                if placed_tb is not None:
                    # a freshly placed TB may issue this very cycle
                    self._wake_smx(smxs[placed_tb.smx_id], now)
                elif dispatch_pure and scheduler.steals == steals_before:
                    dispatch_dirty = False
            else:
                placed_tb = None
            issued = False
            # visit the wake-due SMXs in ascending id (the sweep order the
            # shared L2/DRAM state depends on); each visit re-arms the SMX
            while wake_heap and wake_heap[0][0] <= now:
                t, sid = heappop(wake_heap)
                smx = smxs[sid]
                if smx.wake_at != t:  # stale calendar entry
                    continue
                if smx.try_issue(now, self):
                    issued = True
                # SMX.next_event_time, inlined (one call per visit adds up;
                # kept in sync with smx.py). The `current.done` guard is
                # dropped: try_issue never leaves a finished warp current.
                floor = smx.port_free_at
                if floor <= now:
                    floor = now + 1
                nxt = None
                current = smx._current
                if current is not None:
                    nxt = current.ready_at if current.ready_at > floor else floor
                if smx._ready and (nxt is None or floor < nxt):
                    nxt = floor
                smx_stalled = smx._stalled
                if smx_stalled:
                    st = smx_stalled[0][0]
                    if st < floor:
                        st = floor
                    if nxt is None or st < nxt:
                        nxt = st
                smx.wake_at = nxt
                if nxt is not None:
                    heappush(wake_heap, (nxt, sid))
            if placed_tb is not None or issued or retired:
                now += 1
                stalled = 0
            else:
                nxt = self._next_event_time()
                if nxt is not None:
                    now = max(now + 1, nxt)
                    stalled = 0
                elif self.scheduler.has_pending():
                    # idle machine, but the dispatch rotation may reach a
                    # suitable SMX within one sweep
                    now += 1
                    stalled += 1
                    if stalled > stall_budget:
                        raise DeadlockError(
                            "dispatch cannot place any pending TB "
                            f"(cycle {now}, {self._live_tbs} live TBs)"
                        )
                else:
                    if self._work_remaining():
                        raise DeadlockError(
                            f"no progress possible at cycle {now}: "
                            f"{self._live_tbs} live TBs, "
                            f"{self.dynpar.pending_count} pending launches, "
                            f"KMU drained={self.kmu.drained}"
                        )
                    break
            if max_cycles is not None and now > max_cycles:
                raise RuntimeError(f"exceeded max_cycles={max_cycles}")
        self.now = now
        self._finished = True
        # engines are single-use, so no later request can merge into a
        # fill: free the MSHR table now, not when the engine's reference
        # cycles are collected
        self.memory._inflight.clear()
        if sampling:
            self._emit_sample(now)  # final machine state closes counter tracks
            self.telemetry.close()
        return self._collect_stats()

    # ----- results -----------------------------------------------------------
    def _collect_stats(self) -> SimStats:
        stats = self.stats
        stats.cycles = self.now
        stats.instructions = sum(s.issued_instructions for s in self.smxs)
        l1 = self.memory.l1_stats_merged()
        stats.l1_accesses = l1.accesses
        stats.l1_hits = l1.hits
        l2 = self.memory.l2.stats
        stats.l2_accesses = l2.accesses
        stats.l2_hits = l2.hits
        stats.dram_accesses = self.memory.dram_transactions()
        stats.dram_mean_latency = self.memory.dram_mean_latency()
        stats.per_smx_instructions = [s.issued_instructions for s in self.smxs]
        stats.per_smx_busy_cycles = [s.issue_cycles for s in self.smxs]
        stats.per_smx_tbs = [s.tbs_executed for s in self.smxs]
        stats.scheduler_overflow_events = self.scheduler.overflow_events
        stats.work_steals = self.scheduler.steals
        stats.scheduler_queue_high_water = self.scheduler.queue_high_water
        stats.kdu_high_water = self.kdu.high_water
        stats.kmu_pending_high_water = self.kmu.pending_high_water
        return stats
