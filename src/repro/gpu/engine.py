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

Step 4 reads one number per SMX: ``SMX.wake_at``, its next possible issue
cycle (``None`` when it holds no work). Each executed cycle the engine
walks its SMXs in id order — the fixed sweep order the memory system's
shared state depends on — and visits every SMX whose ``wake_at`` has
arrived; after the visit it sets ``wake_at`` from
:meth:`SMX.next_event_time`. A TB placement sets its SMX's ``wake_at`` to
the current cycle. Idle and port-busy SMXs are never visited, and an SMX
is visited on exactly the cycles a sweep over every SMX would have issued
or re-queued a warp on, so simulated results are cycle-exact with that
sweep (``tests/engine_reference.py``; pinned by
tests/golden_equivalence.json). With the paper's 13 SMXs, reading every
``wake_at`` each cycle costs less than keeping them in a heap.

When nothing can happen, the clock jumps to the next event — the earliest
of the retire heap, the launch-delivery queue, and the SMXs' ``wake_at`` — so
that memory-stall-dominated regions do not cost wall-clock time.

An engine is single-use. Its run ends, returned or raised, by releasing
the reference cycles it built (each kernel's TB list, the scheduler's,
launch model's and KMU's references back to the engine), so dropping a
finished engine frees everything it made by reference counting alone.
The statistics and every counter they are read from stay readable.
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
    from repro.core.composed import ComposedScheduler
    from repro.dynpar.launch import DynamicParallelismModel


class DeadlockError(RuntimeError):
    """No event can ever make progress (e.g. a TB too large for any SMX)."""


class Engine:
    """One simulation run: machine + scheduler + dynamic-parallelism model."""

    def __init__(
        self,
        config: GPUConfig,
        scheduler: "ComposedScheduler",
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
        self._live_tbs = 0
        # every kernel this run created, whose TB lists _release empties
        self._kernels: list[Kernel] = []
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
        self._kernels.append(kernel)
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

    def _next_event_time(self) -> Optional[int]:
        """Earliest cycle at which anything can happen, or None."""
        times = [smx.wake_at for smx in self.smxs if smx.wake_at is not None]
        if self._retire_heap:
            times.append(self._retire_heap[0][0])
        nxt = self.dynpar.next_delivery_time()
        if nxt is not None:
            times.append(nxt)
        return min(times, default=None)

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
        """Run to completion and return the statistics.

        Engines are single-use. Whether the run returns or raises, it ends
        with :meth:`_release`, so dropping the engine frees it by
        reference counting alone.
        """
        if self._finished:
            raise RuntimeError("engine instances are single-use")
        self._finished = True
        try:
            return self._simulate()
        finally:
            self._release()

    def _simulate(self) -> SimStats:
        now = self.now
        # cycles spent rotating the dispatch stage with no other event in
        # sight: bounded, or a TB that fits nowhere would spin forever
        stall_budget = 4 * len(self.smxs) + 16
        stalled = 0
        sampling = self.telemetry.enabled
        next_sample = now
        max_cycles = self.max_cycles
        smxs = self.smxs
        retire_heap = self._retire_heap
        deliver_due = self.dynpar.deliver_due
        dispatch = self.scheduler.dispatch
        retire_due = self._retire_due
        # _work_remaining() inlined: both pending lists are created once and
        # mutated in place, so binding them here is safe and skips four
        # attribute/property lookups per executed cycle
        dynpar_pending = self.dynpar._pending
        kmu_pending = self.kmu._pending
        # dispatch-skip state: a pure scheduler whose dispatch returned None
        # cannot place anything until a delivery, kernel admission, TB
        # retire or placement changes machine state, so the engine stops
        # calling it until one of those happens. Schedulers with timed side
        # effects opt out via ``idle_dispatch_pure``.
        dispatch_pure = self.scheduler.idle_dispatch_pure
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
                placed_tb = dispatch(now)
                if placed_tb is not None:
                    # a freshly placed TB may issue this very cycle (its
                    # SMX's wake_at is None or >= now: every due SMX was
                    # visited, and the clock never jumps past a wake_at)
                    smxs[placed_tb.smx_id].wake_at = now
                elif dispatch_pure:
                    dispatch_dirty = False
            else:
                placed_tb = None
            issued = False
            # visit the due SMXs in ascending id (the sweep order the shared
            # L2/DRAM state depends on); each visit re-arms the SMX
            for smx in smxs:
                wake = smx.wake_at
                if wake is not None and wake <= now:
                    if smx.try_issue(now, self):
                        issued = True
                    smx.wake_at = smx.next_event_time(now)
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
        if sampling:
            self._emit_sample(now)  # final machine state closes counter tracks
            self.telemetry.close()
        return self._collect_stats()

    def _release(self) -> None:
        """Break the reference cycles a run builds: each kernel lists its
        TBs and each TB points at its kernel, and the scheduler, the
        dynamic-parallelism model and the KMU's admission hook point back
        at the engine. Everything the statistics read stays: the SMX and
        memory counters, the scheduler's and the KDU/KMU's."""
        for kernel in self._kernels:
            kernel.tbs.clear()
        self._kernels.clear()
        self.kmu.on_admit = None
        self.scheduler.detach()
        self.dynpar.detach()

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
