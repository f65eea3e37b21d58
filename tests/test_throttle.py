"""Contention-aware TB throttling (Section IV-F / [12] composition)."""

import pytest

from repro.core import make_scheduler
from repro.core.components import ThrottleAdmission
from repro.core.composed import ComposedScheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.trace import TBBody, compute, load
from tests.conftest import tiny_workload


def machine(**overrides):
    base = dict(
        num_smx=2,
        max_threads_per_smx=256,
        max_tbs_per_smx=8,
        max_registers_per_smx=8192,
        shared_mem_per_smx=4096,
        l1=CacheConfig(size_bytes=512, associativity=2),  # 4 lines: thrashes
        l2=CacheConfig(size_bytes=8192, associativity=4),
    )
    base.update(overrides)
    return GPUConfig(**base)


#: the baseline policy with the throttle admission component
RR_THROTTLE = "pri=fifo,bind=any,admit=throttle"


def thrashing_kernel(n_tbs=24):
    """Each TB repeatedly reloads its own distinct lines: with many TBs
    resident, a 4-line L1 thrashes; with few, it hits."""
    bodies = []
    for i in range(n_tbs):
        trace = []
        for rep in range(30):
            trace.append(load([i * 1024 + 4 * lane for lane in range(32)]))
            trace.append(compute(3))
        bodies.append(TBBody(warps=[trace]))
    return KernelSpec(name="thrash", bodies=bodies, resources=ResourceReq(threads=32, regs_per_thread=8))


class TestConstruction:
    def test_factory_suffix(self):
        s = make_scheduler("rr+throttle")
        assert isinstance(s, ComposedScheduler)
        assert s.spec.admit == "throttle"
        assert isinstance(s.admission, ThrottleAdmission)
        assert s.name == "rr+throttle"
        assert s.idle_dispatch_pure is False

    def test_unknown_modifier(self):
        with pytest.raises(ValueError):
            make_scheduler("rr+turbo")

    def test_unknown_base_with_modifier(self):
        with pytest.raises(ValueError):
            make_scheduler("nope+throttle")

    def test_prioritized_kmu_inherited(self):
        assert make_scheduler("adaptive-bind+throttle").prioritized_kmu is True
        assert make_scheduler("rr+throttle").prioritized_kmu is False

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ComposedScheduler(RR_THROTTLE, interval=0)
        with pytest.raises(ValueError):
            ComposedScheduler(RR_THROTTLE, low_watermark=0.9, high_watermark=0.1)


class TestWrapperForwarding:
    """A throttled composition must report its policy's accounting, not
    the base class defaults: the admission component adds no counters of
    its own that could shadow the placement's or the steal stage's."""

    def test_prioritized_kmu_tracks_inner(self):
        assert ComposedScheduler("pri=level,bind=smx,admit=throttle").prioritized_kmu is True
        assert ComposedScheduler(RR_THROTTLE).prioritized_kmu is False

    def test_queue_accounting_forwards(self):
        w = tiny_workload("bfs", "citation")
        scheduler = make_scheduler("smx-bind+throttle")
        engine = Engine(
            machine(num_smx=4, max_threads_per_smx=512),
            scheduler,
            make_model("dtbl"),
            [w.kernel()],
        )
        stats = engine.run()
        assert stats.scheduler_queue_high_water == scheduler.queue_high_water > 0
        assert stats.scheduler_overflow_events == scheduler.overflow_events
        # assignment must be accepted and ignored: the placement's
        # counters stay authoritative
        before = scheduler.overflow_events
        scheduler.overflow_events = 123456
        assert scheduler.overflow_events == before

    def test_steals_forward(self):
        w = tiny_workload("bfs", "citation")
        scheduler = make_scheduler("adaptive-bind+throttle")
        engine = Engine(
            machine(num_smx=4, max_threads_per_smx=512),
            scheduler,
            make_model("dtbl"),
            [w.kernel()],
        )
        stats = engine.run()
        assert stats.work_steals == scheduler.steals

    def test_steals_default_zero_for_non_stealing_inner(self):
        assert ComposedScheduler(RR_THROTTLE).steals == 0


class TestBehaviour:
    def test_reduces_cap_under_thrashing(self):
        scheduler = ComposedScheduler(
            RR_THROTTLE, interval=500, low_watermark=0.5, min_window_accesses=8
        )
        engine = Engine(machine(), scheduler, make_model("dtbl"), [thrashing_kernel()])
        engine.run()
        assert scheduler.adjustments > 0
        assert any(smx.dynamic_cap < 8 for smx in engine.smxs)

    def test_work_conserved(self):
        spec = thrashing_kernel()
        plain = Engine(machine(), make_scheduler("rr"), make_model("dtbl"), [spec]).run()
        throttled = Engine(machine(), make_scheduler("rr+throttle"), make_model("dtbl"), [spec]).run()
        assert plain.instructions == throttled.instructions
        assert plain.tbs_dispatched == throttled.tbs_dispatched

    def test_improves_l1_on_thrashing_workload(self):
        spec = thrashing_kernel()
        plain = Engine(machine(), make_scheduler("rr"), make_model("dtbl"), [spec]).run()
        scheduler = ComposedScheduler(
            RR_THROTTLE, interval=500, low_watermark=0.5, min_window_accesses=8
        )
        throttled = Engine(machine(), scheduler, make_model("dtbl"), [spec]).run()
        assert throttled.l1_hit_rate > plain.l1_hit_rate

    def test_cap_recovers_when_hit_rate_is_good(self):
        """A cache-friendly workload must not stay throttled."""
        spec = KernelSpec(
            name="friendly",
            bodies=[
                TBBody(warps=[[load([4 * lane for lane in range(32)]), compute(5)] * 20])
                for _ in range(12)
            ],
            resources=ResourceReq(threads=32, regs_per_thread=8),
        )
        scheduler = ComposedScheduler(RR_THROTTLE, interval=500, min_window_accesses=8)
        engine = Engine(machine(), scheduler, make_model("dtbl"), [spec])
        engine.run()
        assert all(smx.dynamic_cap >= 7 for smx in engine.smxs)

    def test_composes_with_every_policy_on_real_workload(self):
        w = tiny_workload("bfs", "citation")
        for name in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            engine = Engine(
                machine(num_smx=4, max_threads_per_smx=512),
                make_scheduler(f"{name}+throttle"),
                make_model("dtbl"),
                [w.kernel()],
            )
            stats = engine.run()
            assert stats.tbs_dispatched > 0
