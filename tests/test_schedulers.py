"""Scheduler policies, validated on the paper's Figure 4 example:
8 parent TBs on 4 single-TB SMXs; P2 launches 2 children, P4 launches 4.
"""

import pytest

from repro.core import SCHEDULER_ORDER, make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.trace import LaunchSpec, TBBody, compute, launch


def fig4_config(**overrides):
    base = dict(
        num_smx=4,
        max_threads_per_smx=64,
        max_tbs_per_smx=1,  # "each SMX is able to accommodate one TB"
        max_registers_per_smx=4096,
        shared_mem_per_smx=4096,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
        dtbl_launch_latency=1,
        cdp_launch_latency=1,
    )
    base.update(overrides)
    return GPUConfig(**base)


def child_spec(n):
    return LaunchSpec(
        bodies=[TBBody(warps=[[compute(300)]]) for _ in range(n)],
        threads_per_tb=32,
        regs_per_thread=16,
        name="child",
    )


def fig4_kernel():
    """P0..P7, equal pace; P2 -> 2 children (C0-C1), P4 -> 4 (C2-C5)."""
    bodies = []
    for p in range(8):
        trace = [compute(10)]
        if p == 2:
            trace.append(launch(child_spec(2)))
        if p == 4:
            trace.append(launch(child_spec(4)))
        trace.append(compute(500))
        bodies.append(TBBody(warps=[trace]))
    return KernelSpec(name="fig4", bodies=bodies, resources=ResourceReq(threads=32, regs_per_thread=16))


def run_fig4(scheduler_name, model="dtbl", **config_overrides):
    config = fig4_config(**config_overrides)
    engine = Engine(
        config, make_scheduler(scheduler_name), make_model(model), [fig4_kernel()]
    )
    dispatches = []
    original = engine.record_dispatch

    def spy(tb, now):
        original(tb, now)
        dispatches.append(tb)

    engine.record_dispatch = spy
    stats = engine.run()
    return stats, dispatches


PARENT = "fig4"


class TestRoundRobin:
    def test_all_tbs_execute(self):
        stats, dispatches = run_fig4("rr")
        assert len(dispatches) == 8 + 6

    def test_parents_spread_round_robin(self):
        _, dispatches = run_fig4("rr")
        first_four = [tb for tb in dispatches if not tb.is_dynamic][:4]
        assert [tb.smx_id for tb in first_four] == [0, 1, 2, 3]

    def test_children_dispatched_after_all_parents(self):
        _, dispatches = run_fig4("rr")
        first_child = next(i for i, tb in enumerate(dispatches) if tb.is_dynamic)
        last_parent = max(i for i, tb in enumerate(dispatches) if not tb.is_dynamic)
        assert first_child > last_parent

    def test_children_not_bound_to_parent_smx(self):
        _, dispatches = run_fig4("rr")
        children = [tb for tb in dispatches if tb.is_dynamic]
        assert any(tb.smx_id != tb.parent.smx_id for tb in children)


class TestTBPri:
    def test_children_preempt_remaining_parents(self):
        """Fig 4(c): C0-C1 dispatch before P6, P7."""
        _, dispatches = run_fig4("tb-pri")
        first_child = next(i for i, tb in enumerate(dispatches) if tb.is_dynamic)
        last_parent = max(i for i, tb in enumerate(dispatches) if not tb.is_dynamic)
        assert first_child < last_parent

    def test_child_priority_is_parent_plus_one(self):
        _, dispatches = run_fig4("tb-pri")
        for tb in dispatches:
            if tb.is_dynamic:
                assert tb.priority == tb.parent.priority + 1

    def test_all_work_completes(self):
        stats, dispatches = run_fig4("tb-pri")
        assert len(dispatches) == 14
        assert stats.tbs_dispatched == 14


class TestSMXBind:
    def test_children_bound_to_direct_parent_smx(self):
        """Fig 4(d): every child runs on its direct parent's SMX."""
        stats, dispatches = run_fig4("smx-bind")
        children = [tb for tb in dispatches if tb.is_dynamic]
        assert len(children) == 6
        assert all(tb.smx_id == tb.parent.smx_id for tb in children)
        assert stats.child_same_smx_fraction == 1.0

    def test_unbound_smx_idles_while_children_queue(self):
        """The load-imbalance issue of Section IV-B: with all parents done,
        SMXs without bound children execute nothing further."""
        _, dispatches = run_fig4("smx-bind")
        p2_smx = dispatches[2].smx_id
        p4_smx = dispatches[4].smx_id
        child_smxs = {tb.smx_id for tb in dispatches if tb.is_dynamic}
        assert child_smxs == {p2_smx, p4_smx}


class TestAdaptiveBind:
    def test_balances_across_smxs(self):
        """Fig 4(e): idle SMXs adopt backup queues, so children spread."""
        _, dispatches = run_fig4("adaptive-bind")
        child_smxs = {tb.smx_id for tb in dispatches if tb.is_dynamic}
        assert len(child_smxs) > 2

    def test_some_children_stay_bound(self):
        stats, _ = run_fig4("adaptive-bind")
        assert stats.child_same_smx > 0

    def test_faster_than_smx_bind(self):
        smx_bind, _ = run_fig4("smx-bind")
        adaptive, _ = run_fig4("adaptive-bind")
        assert adaptive.cycles < smx_bind.cycles

    def test_steals_recorded(self):
        config = fig4_config()
        engine = Engine(
            config, make_scheduler("adaptive-bind"), make_model("dtbl"), [fig4_kernel()]
        )
        engine.run()
        assert engine.scheduler.steals > 0


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_ORDER))
    def test_has_pending_false_after_drain(self, name):
        config = fig4_config()
        engine = Engine(config, make_scheduler(name), make_model("dtbl"), [fig4_kernel()])
        engine.run()
        assert not engine.scheduler.has_pending()

    @pytest.mark.parametrize("name", sorted(SCHEDULER_ORDER))
    @pytest.mark.parametrize("model", ["cdp", "dtbl"])
    def test_every_tb_dispatched_exactly_once(self, name, model):
        stats, dispatches = run_fig4(name, model)
        assert len(dispatches) == 14
        assert len({tb.tb_id for tb in dispatches}) == 14

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo")

    @pytest.mark.parametrize("name", sorted(SCHEDULER_ORDER))
    def test_identical_instruction_totals(self, name):
        stats, _ = run_fig4(name)
        reference, _ = run_fig4("rr")
        assert stats.instructions == reference.instructions
