"""Smaller API surfaces: bypass paths, id counters, grid edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq, _reset_id_counters
from repro.gpu.smx import SMX
from repro.gpu.stats import SimStats
from repro.gpu.trace import TBBody, compute
from repro.harness.runner import GridResult
from repro.memory.hierarchy import MemoryHierarchy
from tests.memory_reference import access_warp

WARP_LINE = [4 * lane for lane in range(32)]


class TestBypassL1:
    def test_bypass_skips_l1_state_and_stats(self):
        mem = MemoryHierarchy(GPUConfig(num_smx=1))
        access_warp(mem, 0, WARP_LINE, now=0, bypass_l1=True)
        assert mem.l1s[0].stats.accesses == 0
        assert not mem.l1s[0].probe(0)
        assert mem.l2.probe(0)

    def test_bypass_still_counts_l2(self):
        mem = MemoryHierarchy(GPUConfig(num_smx=1))
        first = access_warp(mem, 0, WARP_LINE, now=0, bypass_l1=True)
        r = access_warp(mem, 0, WARP_LINE, now=first.complete_at + 1, bypass_l1=True)
        assert r.l2_hits == 1


class TestIdCounters:
    def test_reset(self):
        _reset_id_counters()
        spec = KernelSpec(
            name="x", bodies=[TBBody(warps=[[compute(1)]])], resources=ResourceReq(threads=32)
        )
        k = Kernel(spec)
        assert k.kernel_id == 0
        assert k.tbs[0].tb_id == 0
        _reset_id_counters()
        assert Kernel(spec).kernel_id == 0


class TestGridResultEdges:
    def test_zero_baseline_ipc(self):
        grid = GridResult(schedulers=["rr", "x"], models=["dtbl"], benchmarks=["b"])
        grid.stats[("b", "rr", "dtbl")] = SimStats(cycles=10, instructions=0)
        grid.stats[("b", "x", "dtbl")] = SimStats(cycles=10, instructions=5)
        assert grid.normalized_ipc("b", "x", "dtbl") == 0.0

    def test_missing_cell_raises(self):
        grid = GridResult(schedulers=["rr"], models=["dtbl"])
        with pytest.raises(KeyError):
            grid.get("nope", "rr", "dtbl")

    def test_empty_means(self):
        grid = GridResult(schedulers=["rr"], models=["dtbl"])
        assert grid.mean_metric("rr", "dtbl", "ipc") == 0.0
        assert grid.mean_normalized_ipc("rr", "dtbl") == 0.0


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["place", "release"]),
            st.integers(min_value=32, max_value=96),
        ),
        max_size=40,
    )
)
def test_smx_resource_accounting_balances(ops):
    """Random place/release sequences never leak or oversubscribe."""
    config = GPUConfig(
        num_smx=1,
        max_threads_per_smx=256,
        max_tbs_per_smx=4,
        max_registers_per_smx=16384,
        shared_mem_per_smx=8192,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    )
    smx = SMX(0, config)
    resident = []
    for op, threads in ops:
        if op == "place":
            spec = KernelSpec(
                name="t",
                bodies=[TBBody(warps=[[compute(1)]])],
                resources=ResourceReq(threads=threads, regs_per_thread=16),
            )
            tb = Kernel(spec).tbs[0]
            if smx.can_fit(tb):
                smx.place(tb, now=0)
                resident.append(tb)
        elif resident:
            smx.release(resident.pop())
        # invariants hold at every step
        assert 0 <= smx.free_threads <= config.max_threads_per_smx
        assert 0 <= smx.free_tb_slots <= config.max_tbs_per_smx
        assert 0 <= smx.free_registers <= config.max_registers_per_smx
        assert len(smx.resident_tbs) == len(resident)
    for tb in resident:
        smx.release(tb)
    assert smx.free_threads == config.max_threads_per_smx
    assert smx.free_tb_slots == config.max_tbs_per_smx
    assert smx.free_registers == config.max_registers_per_smx
    assert smx.free_smem == config.shared_mem_per_smx
