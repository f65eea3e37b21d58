"""SMX model: occupancy, issue pipeline, warp scheduling, MLP."""

import pytest

from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq
from repro.gpu.smx import SMX
from repro.gpu.trace import LaunchSpec, TBBody, compute, launch, load, store
from repro.memory.hierarchy import MemoryHierarchy
from repro.telemetry.events import NULL_SINK


def make_config(**overrides):
    base = dict(
        num_smx=1,
        max_threads_per_smx=256,
        max_tbs_per_smx=4,
        max_registers_per_smx=8192,
        shared_mem_per_smx=8192,
        l1=CacheConfig(size_bytes=2048, associativity=2),
        l2=CacheConfig(size_bytes=8192, associativity=4),
        l1_hit_latency=10,
        l2_hit_latency=50,
        dram_latency=200,
        dram_lines_per_cycle=100.0,
    )
    base.update(overrides)
    return GPUConfig(**base)


class FakeEngine:
    """Just enough engine for an SMX: memory + retire/launch recording."""

    def __init__(self, config):
        self.memory = MemoryHierarchy(config)
        self.retired = []
        self.launched = []
        self.telemetry = NULL_SINK

    def schedule_retire(self, tb, time):
        self.retired.append((tb, time))

    def handle_launch(self, tb, spec, now):
        self.launched.append((tb, spec, now))


def make_tb(warps, threads=32, regs=16, smem=0):
    spec = KernelSpec(
        name="t",
        bodies=[TBBody(warps=warps)],
        resources=ResourceReq(threads=threads, regs_per_thread=regs, smem_bytes=smem),
    )
    return Kernel(spec).tbs[0]


def run_to_completion(smx, engine, max_cycles=100_000):
    now = 0
    while smx.resident_tbs:
        issued = smx.try_issue(now, engine)
        for tb, t in list(engine.retired):
            if t <= now and tb in smx.resident_tbs:
                smx.release(tb)
        if not issued:
            nxt = smx.next_event_time(now)
            now = now + 1 if nxt is None else max(now + 1, nxt)
        else:
            now += 1
        if now > max_cycles:
            raise AssertionError("SMX did not drain")
    return now


class TestOccupancy:
    def test_can_fit_fresh(self):
        smx = SMX(0, make_config())
        assert smx.can_fit(make_tb([[compute(1)]]))

    def test_thread_limit(self):
        smx = SMX(0, make_config())
        assert not smx.can_fit(make_tb([[compute(1)]], threads=512))

    def test_register_limit(self):
        smx = SMX(0, make_config())
        assert not smx.can_fit(make_tb([[compute(1)]], threads=256, regs=64))

    def test_smem_limit(self):
        smx = SMX(0, make_config())
        assert not smx.can_fit(make_tb([[compute(1)]], smem=9000))

    def test_tb_slot_limit(self):
        smx = SMX(0, make_config())
        for _ in range(4):
            smx.place(make_tb([[compute(1)]]), now=0)
        assert smx.free_tb_slots == 0
        assert not smx.can_fit(make_tb([[compute(1)]]))

    def test_place_rejects_overflow(self):
        smx = SMX(0, make_config())
        with pytest.raises(RuntimeError):
            smx.place(make_tb([[compute(1)]], threads=512), now=0)

    def test_release_restores_resources(self):
        config = make_config()
        smx = SMX(0, config)
        tb = make_tb([[compute(1)]], threads=64, regs=16, smem=128)
        smx.place(tb, now=0)
        smx.release(tb)
        assert smx.free_threads == config.max_threads_per_smx
        assert smx.free_registers == config.max_registers_per_smx
        assert smx.free_smem == config.shared_mem_per_smx
        assert smx.free_tb_slots == config.max_tbs_per_smx
        assert smx.idle


class TestIssue:
    def test_compute_occupies_port_for_duration(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[compute(5), compute(1)]]), now=0)
        assert smx.try_issue(0, engine)
        assert smx.port_free_at == 5
        assert not smx.try_issue(1, engine)  # port busy
        assert smx.issued_instructions == 5

    def test_load_counts_one_instruction(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[load([0])]]), now=0)
        smx.try_issue(0, engine)
        assert smx.issued_instructions == 1

    def test_consecutive_loads_pipeline(self):
        """MLP: back-to-back loads issue on consecutive cycles."""
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[load([0]), load([4096]), load([8192])]]), now=0)
        assert smx.try_issue(0, engine)
        assert smx.try_issue(1, engine)
        assert smx.try_issue(2, engine)

    def test_compute_after_load_waits_for_data(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[load([0]), compute(1)]]), now=0)
        smx.try_issue(0, engine)  # load, completes at 200 (DRAM)
        assert not smx.try_issue(1, engine)  # compute must wait for the load
        assert smx.try_issue(200, engine)

    def test_store_does_not_stall_warp(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[store([0]), compute(1)]]), now=0)
        smx.try_issue(0, engine)
        assert smx.try_issue(1, engine)  # compute issues immediately

    def test_launch_invokes_engine(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        spec = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])])
        smx.place(make_tb([[launch(spec)]]), now=0)
        smx.try_issue(0, engine)
        assert engine.launched[0][1] is spec

    def test_retire_scheduled_when_all_warps_done(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        tb = make_tb([[compute(3)], [compute(4)]], threads=64)
        smx.place(tb, now=0)
        run = 0
        while not engine.retired and run < 100:
            smx.try_issue(run, engine)
            run += 1
        assert engine.retired[0][0] is tb
        # 2nd warp issues at cycle 3 after the first's 3-cycle compute
        assert engine.retired[0][1] == 7

    def test_retire_waits_for_inflight_loads(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        tb = make_tb([[load([0])]])
        smx.place(tb, now=0)
        smx.try_issue(0, engine)
        assert engine.retired[0][1] == 200  # DRAM latency


class TestWarpScheduling:
    def test_gto_stays_greedy_on_current_warp(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        # two warps of pure compute: GTO should finish warp 0 entirely first
        tb = make_tb([[compute(1)] * 3, [compute(1)] * 3], threads=64)
        smx.place(tb, now=0)
        order = []
        original_pick = smx._pick_warp

        def spy(now):
            warp = original_pick(now)
            if warp is not None:
                order.append(warp.age)
            return warp

        smx._pick_warp = spy
        now = 0
        while len(order) < 6 and now < 50:
            smx.try_issue(now, engine)
            now += 1
        # the first warp is drained completely before the second starts
        assert order == [order[0]] * 3 + [order[3]] * 3
        assert order[0] != order[3]

    def test_lrr_rotates_between_warps(self):
        config = make_config(warp_scheduler="lrr")
        smx = SMX(0, config)
        engine = FakeEngine(config)
        tb = make_tb([[compute(1)] * 2, [compute(1)] * 2], threads=64)
        smx.place(tb, now=0)
        issued_pcs = []
        now = 0
        while now < 20 and smx.resident_tbs:
            smx.try_issue(now, engine)
            if engine.retired:
                break
            now += 1
        # with LRR both warps progress before either finishes: the TB
        # retires at cycle 4 with interleaved issue (0,1,0,1)
        assert engine.retired and engine.retired[0][1] == 4

    def test_stalled_greedy_warp_is_not_lost(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        tb = make_tb([[load([0]), compute(1), compute(1)]])
        smx.place(tb, now=0)
        smx.try_issue(0, engine)  # load
        smx.try_issue(1, engine)  # blocked on load -> parked
        done = run_to_completion(smx, engine)
        assert smx.issued_instructions == 3

    def test_next_event_time_idle(self):
        # a drained/empty SMX has no future event: None, not a float inf
        # sentinel, so the engine's wake_at values stay all-int
        smx = SMX(0, make_config())
        assert smx.next_event_time(0) is None

    def test_next_event_time_with_stalled_warp(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[load([0]), compute(1)]]), now=0)
        smx.try_issue(0, engine)
        smx.try_issue(1, engine)  # parks the warp until cycle 200
        assert smx.next_event_time(1) == 200


class TestStartDelay:
    def test_delayed_placement_blocks_early_issue(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[compute(1)]]), now=0, start_delay=50)
        assert not smx.try_issue(0, engine)
        assert smx.try_issue(50, engine)

    def test_delayed_placement_is_a_wake_event(self):
        # the engine's wake_at relies on next_event_time announcing
        # the delayed start; a missing event would strand the SMX forever
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[compute(2), compute(1)]]), now=0, start_delay=50)
        assert smx.next_event_time(0) == 50
        run_to_completion(smx, engine)
        assert smx.issued_instructions == 3
        # the 2-cycle compute starts at 50, the next at 52: retire at 53
        assert engine.retired[0][1] == 53

    def test_delayed_warps_interleave_with_resident_work(self):
        config = make_config()
        smx = SMX(0, config)
        engine = FakeEngine(config)
        smx.place(make_tb([[compute(1)] * 2]), now=0)
        smx.place(make_tb([[compute(1)]]), now=0, start_delay=10)
        run_to_completion(smx, engine)
        assert smx.issued_instructions == 3
        assert len(engine.retired) == 2
        # the delayed TB cannot retire before its fetch delay has elapsed
        assert engine.retired[1][1] >= 10
