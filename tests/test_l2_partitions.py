"""Partitioned L2 / per-partition memory channels."""

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import tiny_workload
from tests.memory_reference import access_warp


def config(parts=2, **overrides):
    base = dict(
        num_smx=2,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=8 * 1024, associativity=4),
        l2_partitions=parts,
        l1_hit_latency=10,
        l2_hit_latency=50,
        dram_latency=200,
        dram_lines_per_cycle=2.0,
    )
    base.update(overrides)
    return GPUConfig(**base)


class TestConfig:
    def test_default_monolithic(self):
        assert GPUConfig().l2_partitions == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            config(parts=0)

    def test_rejects_uneven_split(self):
        with pytest.raises(ValueError):
            GPUConfig(
                l2=CacheConfig(size_bytes=8 * 1024, associativity=4),
                l2_partitions=3,
            )


class TestInterleaving:
    def test_lines_route_by_modulo(self):
        mem = MemoryHierarchy(config(parts=2))
        access_warp(mem, 0, [0 * 128], now=0)  # line 0 -> partition 0
        access_warp(mem, 0, [1 * 128], now=0)  # line 1 -> partition 1
        access_warp(mem, 0, [2 * 128], now=0)  # line 2 -> partition 0
        assert mem.l2_parts[0].stats.accesses == 2
        assert mem.l2_parts[1].stats.accesses == 1

    def test_partition_capacity_split(self):
        mem = MemoryHierarchy(config(parts=2))
        assert mem.l2_parts[0].config.size_bytes == 4 * 1024

    def test_merged_stats(self):
        mem = MemoryHierarchy(config(parts=4))
        for line in range(8):
            access_warp(mem, 0, [line * 128], now=0)
        merged = mem.l2_stats_merged()
        assert merged.accesses == 8
        assert mem.dram_transactions() == 8

    def test_channels_have_independent_bandwidth(self):
        """Two misses on different partitions do not queue behind each
        other; two on the same partition do."""
        mem = MemoryHierarchy(config(parts=2, dram_lines_per_cycle=0.02))
        a = access_warp(mem, 0, [0 * 128], now=0)
        b = access_warp(mem, 0, [1 * 128], now=0)  # other channel: no queueing
        c = access_warp(mem, 0, [2 * 128], now=0)  # same channel as a: queued
        assert b.complete_at == a.complete_at
        assert c.complete_at > a.complete_at


class TestEndToEnd:
    def test_monolithic_unchanged_alias(self):
        mem = MemoryHierarchy(config(parts=1))
        assert mem.l2 is mem.l2_parts[0]
        assert mem.dram is mem.drams[0]

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_workload_completes(self, parts):
        w = tiny_workload("bfs", "citation")
        engine = Engine(
            config(parts=parts, num_smx=4, max_threads_per_smx=256, max_tbs_per_smx=4,
                   max_registers_per_smx=8192, shared_mem_per_smx=4096),
            make_scheduler("adaptive-bind"),
            make_model("dtbl"),
            [w.kernel()],
        )
        stats = engine.run()
        assert stats.tbs_dispatched > 0
        assert 0.0 <= stats.l2_hit_rate <= 1.0

    def test_partitioning_preserves_work(self):
        w = tiny_workload("amr")
        results = []
        for parts in (1, 2):
            engine = Engine(
                config(parts=parts, num_smx=4, max_threads_per_smx=256, max_tbs_per_smx=4,
                       max_registers_per_smx=8192, shared_mem_per_smx=4096),
                make_scheduler("rr"),
                make_model("dtbl"),
                [w.kernel()],
            )
            results.append(engine.run().instructions)
        assert results[0] == results[1]
