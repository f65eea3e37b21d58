"""SMX clusters (paper Section IV-B): shared per-cluster L1, cluster-wide
binding, round-robin within the cluster."""

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.trace import LaunchSpec, TBBody, compute, launch
from repro.memory.hierarchy import MemoryHierarchy
from tests.memory_reference import access_warp


def clustered_config(num_smx=4, per_cluster=2, **overrides):
    base = dict(
        num_smx=num_smx,
        smxs_per_cluster=per_cluster,
        max_threads_per_smx=64,
        max_tbs_per_smx=1,
        max_registers_per_smx=4096,
        shared_mem_per_smx=4096,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
        dtbl_launch_latency=1,
    )
    base.update(overrides)
    return GPUConfig(**base)


class TestConfig:
    def test_cluster_of(self):
        config = clustered_config(num_smx=6, per_cluster=3)
        assert [config.cluster_of(i) for i in range(6)] == [0, 0, 0, 1, 1, 1]
        assert config.num_clusters == 2

    def test_invalid_cluster_split(self):
        with pytest.raises(ValueError):
            clustered_config(num_smx=5, per_cluster=2)

    def test_single_smx_clusters_default(self):
        assert GPUConfig().num_clusters == 13


class TestSharedL1:
    def test_same_cluster_shares_l1_object(self):
        mem = MemoryHierarchy(clustered_config())
        assert mem.l1s[0] is mem.l1s[1]
        assert mem.l1s[2] is mem.l1s[3]
        assert mem.l1s[1] is not mem.l1s[2]

    def test_cross_smx_hit_within_cluster(self):
        mem = MemoryHierarchy(clustered_config())
        line = [4 * lane for lane in range(32)]
        first = access_warp(mem, 0, line, now=0)
        after_fill = first.complete_at + 1
        r = access_warp(mem, 1, line, now=after_fill)  # same cluster: L1 hit
        assert r.l1_hits == 1
        r = access_warp(mem, 2, line, now=after_fill + 100)  # other cluster: L2
        assert r.l1_hits == 0 and r.l2_hits == 1

    def test_merged_stats_count_clusters_once(self):
        mem = MemoryHierarchy(clustered_config())
        access_warp(mem, 0, [0], now=0)
        assert mem.l1_stats_merged().accesses == 1


def fig4_like_kernel():
    child = LaunchSpec(
        bodies=[TBBody(warps=[[compute(200)]]) for _ in range(4)],
        threads_per_tb=32,
        regs_per_thread=16,
    )
    bodies = []
    for p in range(8):
        trace = [compute(10)]
        if p == 2:
            trace.append(launch(child))
        trace.append(compute(400))
        bodies.append(TBBody(warps=[trace]))
    return KernelSpec(name="clustered", bodies=bodies, resources=ResourceReq(threads=32, regs_per_thread=16))


def run(scheduler, config):
    engine = Engine(config, make_scheduler(scheduler), make_model("dtbl"), [fig4_like_kernel()])
    dispatches = []
    original = engine.record_dispatch

    def spy(tb, now):
        original(tb, now)
        dispatches.append(tb)

    engine.record_dispatch = spy
    stats = engine.run()
    return stats, dispatches


class TestClusterBinding:
    def test_children_bound_to_parent_cluster(self):
        config = clustered_config()
        stats, dispatches = run("smx-bind", config)
        children = [tb for tb in dispatches if tb.is_dynamic]
        assert children
        for tb in children:
            assert config.cluster_of(tb.smx_id) == config.cluster_of(tb.parent.smx_id)
        assert stats.child_same_cluster_fraction == 1.0

    def test_children_spread_within_cluster(self):
        """Round-robin inside the cluster: with 4 children and 2 SMXs per
        cluster, both cluster members execute children."""
        config = clustered_config()
        _, dispatches = run("smx-bind", config)
        child_smxs = {tb.smx_id for tb in dispatches if tb.is_dynamic}
        assert len(child_smxs) == 2

    def test_adaptive_still_balances_across_clusters(self):
        config = clustered_config()
        stats, dispatches = run("adaptive-bind", config)
        assert stats.tbs_dispatched == 12
        # stage 3 may move children across the cluster boundary
        assert stats.child_same_cluster_fraction <= 1.0

    def test_all_schedulers_complete_on_clustered_machine(self):
        config = clustered_config(num_smx=6, per_cluster=3)
        for scheduler in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            stats, dispatches = run(scheduler, config)
            assert len(dispatches) == 12


class TestSameClusterStat:
    def test_same_smx_implies_same_cluster(self):
        config = clustered_config()
        stats, _ = run("smx-bind", config)
        assert stats.child_same_cluster >= stats.child_same_smx
