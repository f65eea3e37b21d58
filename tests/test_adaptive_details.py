"""Adaptive-Bind internals: backup recording, re-scan ablation, stage
ordering (Fig 6) — exercised through the component seams of the composed
scheduler (``placement`` queues, ``steal`` victim scan)."""

from repro.core import make_scheduler
from repro.core.queues import Entry
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq
from repro.gpu.trace import TBBody, compute
from repro.telemetry import RecordingSink, WorkStolen


def machine(num_smx=3):
    return GPUConfig(
        num_smx=num_smx,
        max_threads_per_smx=64,
        max_tbs_per_smx=2,
        max_registers_per_smx=4096,
        shared_mem_per_smx=4096,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    )


def attach_scheduler(scheduler, num_smx=3, **engine_kwargs):
    spec = KernelSpec(
        name="host",
        bodies=[TBBody(warps=[[compute(1)]])],
        resources=ResourceReq(threads=32, regs_per_thread=8),
    )
    engine = Engine(machine(num_smx), scheduler, make_model("dtbl"), [spec], **engine_kwargs)
    # the host kernel lands in the global queue on admission; drop it so
    # the stage tests start from empty queues
    scheduler.placement.global_queue.clear()
    return engine


def make_entry(level=1, n=2, threads=32):
    spec = KernelSpec(
        name="e",
        bodies=[TBBody(warps=[[compute(1)]]) for _ in range(n)],
        resources=ResourceReq(threads=threads, regs_per_thread=8),
    )
    return Entry(Kernel(spec, priority=level).tbs, level=level)


class TestStageOrdering:
    """Dispatch starts its rotation at SMX 0, so the first dispatch call
    resolves the three stages exactly once for SMX 0 — the popped entry
    (cursor advanced) identifies the winning stage."""

    def test_own_queue_beats_global(self):
        scheduler = make_scheduler("adaptive-bind")
        attach_scheduler(scheduler)
        own = make_entry()
        scheduler.placement.queues[0].push(own)
        host = make_entry(level=0)
        scheduler.placement.global_queue.append(host)
        assert scheduler.dispatch(0) is not None
        assert (own.cursor, host.cursor) == (1, 0)

    def test_global_beats_backup(self):
        scheduler = make_scheduler("adaptive-bind")
        attach_scheduler(scheduler)
        host = make_entry(level=0)
        scheduler.placement.global_queue.append(host)
        victim = make_entry()
        scheduler.placement.queues[1].push(victim)
        assert scheduler.dispatch(0) is not None
        assert (host.cursor, victim.cursor) == (1, 0)
        assert scheduler.steals == 0

    def test_backup_used_when_all_else_empty(self):
        scheduler = make_scheduler("adaptive-bind")
        sink = RecordingSink()
        attach_scheduler(scheduler, telemetry=sink)
        victim_entry = make_entry()
        scheduler.placement.queues[2].push(victim_entry)
        assert scheduler.dispatch(0) is not None
        assert victim_entry.cursor == 1
        assert scheduler.steals == 1
        (stolen,) = sink.of_type(WorkStolen)
        assert (stolen.thief_smx_id, stolen.victim_cluster) == (0, 2)


class TestStealCounting:
    def test_a_lookup_that_places_nothing_is_not_a_steal(self):
        # SMXs 0 and 1 both find the victim entry in stage 3, but its TB
        # (96 threads) fits no SMX of machine(): nothing was stolen
        scheduler = make_scheduler("adaptive-bind")
        sink = RecordingSink()
        attach_scheduler(scheduler, telemetry=sink)
        victim_entry = make_entry(threads=96)
        scheduler.placement.queues[2].push(victim_entry)
        assert scheduler.dispatch(0) is None
        assert victim_entry.cursor == 0
        assert scheduler.steals == 0
        assert not sink.of_type(WorkStolen)


class TestBackupRecording:
    def test_backup_is_recorded_and_reused(self):
        scheduler = make_scheduler("adaptive-bind")
        attach_scheduler(scheduler)
        first = make_entry(n=1)
        scheduler.placement.queues[1].push(first)
        assert scheduler.steal.candidate(0) == (first, 1)
        assert scheduler.steal._backup[0] == 1
        # a nearer victim (in scan order) appears, but the recorded backup
        # still has work after a new entry arrives on it
        second = make_entry(n=1)
        scheduler.placement.queues[1].push(second)
        scheduler.placement.queues[2].push(make_entry(n=1))
        assert scheduler.steal.candidate(0) == (first, 1)

    def test_backup_cleared_when_drained(self):
        scheduler = make_scheduler("adaptive-bind")
        attach_scheduler(scheduler)
        entry = make_entry(n=1)
        scheduler.placement.queues[1].push(entry)
        scheduler.steal.candidate(0)
        entry.pop()  # drain the victim
        other = make_entry(n=1)
        scheduler.placement.queues[2].push(other)
        assert scheduler.steal.candidate(0) == (other, 2)
        assert scheduler.steal._backup[0] == 2

    def test_rescan_mode_ignores_recording(self):
        scheduler = make_scheduler("pri=level,bind=smx,steal=rescan")
        attach_scheduler(scheduler)
        assert scheduler.steal.fixed is False
        scheduler.placement.queues[1].push(make_entry(n=2))
        scheduler.steal.candidate(0)
        # re-scan starts from scratch each time; recording is not consulted
        near = make_entry(n=1)
        scheduler.placement.queues[1].push(near)
        assert scheduler.steal.candidate(0) is not None

    def test_no_backup_available(self):
        scheduler = make_scheduler("adaptive-bind")
        attach_scheduler(scheduler)
        assert scheduler.steal.candidate(0) is None
