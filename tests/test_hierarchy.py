"""Memory hierarchy: L1 -> L2 -> DRAM walk, write policy, timing."""

import pytest

from repro.gpu.config import CacheConfig, GPUConfig
from repro.memory.hierarchy import MemoryHierarchy
from tests.memory_reference import access_warp


def make_hierarchy(num_smx=2):
    config = GPUConfig(
        num_smx=num_smx,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=8 * 1024, associativity=4),
        l1_hit_latency=10,
        l2_hit_latency=50,
        dram_latency=200,
        dram_lines_per_cycle=100.0,  # effectively unlimited bandwidth
    )
    return MemoryHierarchy(config), config


WARP_LINE = [4 * lane for lane in range(32)]  # one 128B line


class TestReadPath:
    def test_cold_load_goes_to_dram(self):
        mem, _ = make_hierarchy()
        r = access_warp(mem, 0, WARP_LINE, now=0)
        assert r.dram_accesses == 1
        assert r.l1_hits == 0 and r.l2_hits == 0
        assert r.complete_at == 200

    def test_second_load_hits_l1(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0)
        r = access_warp(mem, 0, WARP_LINE, now=300)
        assert r.l1_hits == 1
        assert r.complete_at == 310

    def test_other_smx_hits_l2_not_l1(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0)
        r = access_warp(mem, 1, WARP_LINE, now=300)
        assert r.l1_hits == 0
        assert r.l2_hits == 1
        assert r.complete_at == 350

    def test_transactions_counted_per_line(self):
        mem, _ = make_hierarchy()
        scattered = [lane * 4096 for lane in range(8)]
        r = access_warp(mem, 0, scattered, now=0)
        assert r.transactions == 8

    def test_completion_is_slowest_transaction(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0)  # line 0 now in L1
        mixed = WARP_LINE + [128 * 99 + lane for lane in range(4)]
        r = access_warp(mem, 0, mixed, now=300)
        assert r.l1_hits == 1
        assert r.dram_accesses == 1
        assert r.complete_at == 500


class TestWritePolicy:
    def test_store_does_not_allocate_l1(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0, is_write=True)
        assert not mem.l1s[0].probe(0)

    def test_store_allocates_l2(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0, is_write=True)
        assert mem.l2.probe(0)

    def test_consumer_on_other_smx_hits_l2_after_store(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0, is_write=True)
        r = access_warp(mem, 1, WARP_LINE, now=100)
        assert r.l2_hits == 1


class TestStats:
    def test_l1_stats_merged_across_smxs(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0)
        access_warp(mem, 1, WARP_LINE, now=0)
        merged = mem.l1_stats_merged()
        assert merged.accesses == 2
        assert merged.misses == 2

    def test_hit_rate_properties(self):
        mem, _ = make_hierarchy()
        access_warp(mem, 0, WARP_LINE, now=0)
        access_warp(mem, 0, WARP_LINE, now=10)
        assert mem.l1_hit_rate == pytest.approx(0.5)
        assert 0.0 <= mem.l2_hit_rate <= 1.0


class TestMSHRMerging:
    def _mem(self, merging=True):
        config = GPUConfig(
            num_smx=2,
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=8 * 1024, associativity=4),
            l1_hit_latency=10,
            l2_hit_latency=50,
            dram_latency=200,
            dram_lines_per_cycle=100.0,
            mshr_merging=merging,
        )
        return MemoryHierarchy(config)

    def test_concurrent_miss_merges(self):
        mem = self._mem()
        first = access_warp(mem, 0, WARP_LINE, now=0)
        second = access_warp(mem, 1, WARP_LINE, now=50)  # fill still in flight
        assert first.dram_accesses == 1
        assert second.dram_accesses == 0
        assert second.mshr_merges == 1
        assert second.complete_at == first.complete_at
        assert mem.dram.stats.transactions == 1

    def test_no_merge_after_fill_returns(self):
        mem = self._mem()
        access_warp(mem, 0, WARP_LINE, now=0)  # completes at 200, fills L2
        r = access_warp(mem, 1, WARP_LINE, now=500)
        assert r.mshr_merges == 0
        assert r.l2_hits == 1

    def test_merging_disabled_grants_optimistic_hit(self):
        # without MSHR modelling the second access is a plain (too early)
        # L2 hit — the pre-fill-time behaviour, kept for ablation
        mem = self._mem(merging=False)
        access_warp(mem, 0, WARP_LINE, now=0)
        r = access_warp(mem, 1, WARP_LINE, now=50)
        assert r.l2_hits == 1
        assert r.complete_at == 100

    def test_merged_access_not_reported_as_hit_or_dram(self):
        mem = self._mem()
        access_warp(mem, 0, WARP_LINE, now=0)
        r = access_warp(mem, 1, WARP_LINE, now=50)
        assert r.l2_hits == 0 and r.dram_accesses == 0 and r.mshr_merges == 1
        # tag-level accounting: first probe missed, second found the tag
        assert mem.l2.stats.misses == 1



class TestFillTable:
    """The MSHR table is a plain line -> fill-time dict with no capacity."""

    def test_reread_waits_for_fill_behind_many_inflight_loads(self):
        # 5,000 loads in flight at t=0, more than any fixed-size table
        # would keep, with every tag resident in the L2: a second SMX
        # re-reading line 0 must wait for the line's data (landing at
        # 200), not be granted an L2 hit on its resident tag (1 + 50)
        mem = MemoryHierarchy(
            GPUConfig(
                num_smx=2,
                l1=CacheConfig(size_bytes=1024, associativity=2),
                l2=CacheConfig(size_bytes=1024 * 1024, associativity=8),
                l1_hit_latency=10,
                l2_hit_latency=50,
                dram_latency=200,
                dram_lines_per_cycle=100.0,
            )
        )
        access = mem.accessor(0)
        for line in range(5000):
            access([line], 0, 1, 0)
        assert mem.accessor(1)([0], 0, 1, 1) == 200
        assert len(mem._inflight) == 5000
