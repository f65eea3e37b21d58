"""Ablation studies for the design choices DESIGN.md calls out.

1. Maximum priority levels L (the nesting clamp, Section IV-A).
2. L1 capacity (Section IV-F discusses the small-L1 limitation).
3. Fixed-backup stealing vs re-scan stealing (Section IV-C's "major
   reasons for this fixed backup scheme").
4. Warp scheduler (GTO vs LRR) under the LaPerm TB scheduler — the paper
   claims TB scheduling is orthogonal to warp scheduling.
"""

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig
from repro.gpu.engine import Engine
from repro.harness.execution import simulate
from repro.harness.registry import experiment_config, load_benchmark
from repro.harness.report import render_table

from benchmarks.conftest import SCALE, once


@pytest.fixture(scope="module")
def workload():
    w = load_benchmark("bfs-citation", scale=SCALE)
    w.kernel()
    return w


def test_ablation_priority_levels(benchmark, workload):
    """Clamping at L=1 collapses all dynamic TBs into one level; deeper
    levels let nested grandchildren cut ahead of their uncles."""
    spec = workload.kernel()

    def run():
        rows = []
        for levels in (1, 2, 4, 8):
            config = experiment_config(max_priority_levels=levels)
            stats = simulate(spec, "adaptive-bind", "dtbl", config)
            rows.append((levels, f"{stats.ipc:.3f}", f"{stats.l2_hit_rate:.3f}", f"{stats.child_mean_wait:.0f}"))
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(["L (priority levels)", "IPC", "L2 hit", "child wait"], rows,
                              title="Ablation: maximum priority levels"))
    assert len({r[1] for r in rows}) >= 1  # table produced


def test_ablation_l1_capacity(benchmark, workload):
    """Larger L1s strengthen the binding schedulers' advantage."""
    spec = workload.kernel()

    def run():
        rows = []
        for kb in (8, 16, 32, 64):
            config = experiment_config(l1=CacheConfig(size_bytes=kb * 1024, associativity=4))
            rr = simulate(spec, "rr", "dtbl", config)
            bind = simulate(spec, "smx-bind", "dtbl", config)
            rows.append((f"{kb} KB", f"{rr.l1_hit_rate:.3f}", f"{bind.l1_hit_rate:.3f}",
                         f"{bind.l1_hit_rate - rr.l1_hit_rate:+.3f}"))
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(["L1 size", "RR L1 hit", "SMX-Bind L1 hit", "binding gain"], rows,
                              title="Ablation: L1 capacity vs binding benefit"))
    gains = [float(r[3]) for r in rows]
    assert max(gains) > 0, "binding should improve L1 hit rate at some capacity"


def test_ablation_fixed_backup(benchmark, workload):
    """Section IV-C argues for draining one recorded backup queue
    (sibling locality + no reconfiguration churn) over re-scanning."""
    spec = workload.kernel()

    def run():
        rows = []
        for label, name in (("fixed", "adaptive-bind"), ("re-scan", "pri=level,bind=smx,steal=rescan")):
            scheduler = make_scheduler(name)
            engine = Engine(experiment_config(), scheduler, make_model("dtbl"), [spec])
            stats = engine.run()
            rows.append((label, f"{stats.ipc:.3f}",
                         f"{stats.l1_hit_rate:.3f}", f"{stats.child_same_smx_fraction:.2f}", scheduler.steals))
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(["backup scheme", "IPC", "L1 hit", "same-SMX", "steals"], rows,
                              title="Ablation: fixed vs re-scanned backup queues"))
    assert len(rows) == 2


def test_ablation_warp_scheduler(benchmark, workload):
    """LaPerm composes with either warp scheduler (orthogonality claim)."""
    spec = workload.kernel()

    def run():
        rows = []
        for ws in ("gto", "lrr"):
            config = experiment_config(warp_scheduler=ws)
            rr = simulate(spec, "rr", "dtbl", config)
            laperm = simulate(spec, "adaptive-bind", "dtbl", config)
            rows.append((ws.upper(), f"{rr.ipc:.3f}", f"{laperm.ipc:.3f}", f"{laperm.ipc / rr.ipc:.3f}"))
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(["warp scheduler", "RR IPC", "LaPerm IPC", "speedup"], rows,
                              title="Ablation: warp scheduler orthogonality"))
    speedups = [float(r[3]) for r in rows]
    assert all(s > 0.95 for s in speedups), "LaPerm should not regress under either warp scheduler"


def test_ablation_smx_clusters(benchmark, workload):
    """Section IV-B cluster variant: with the L1 shared per 2-SMX cluster
    and binding at cluster granularity, SMX-Bind keeps L1 locality while
    halving its imbalance exposure (two SMXs drain each queue set)."""
    spec = workload.kernel()

    def run():
        rows = []
        for per_cluster in (1, 2):
            config = experiment_config(smxs_per_cluster=per_cluster, num_smx=12)
            rr = simulate(spec, "rr", "dtbl", config)
            bind = simulate(spec, "smx-bind", "dtbl", config)
            rows.append(
                (
                    per_cluster,
                    f"{bind.ipc / rr.ipc:.3f}",
                    f"{bind.l1_hit_rate:.3f}",
                    f"{bind.child_same_cluster_fraction:.2f}",
                    f"{bind.smx_load_imbalance:.3f}",
                )
            )
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(
        ["SMXs/cluster", "SMX-Bind IPC vs RR", "L1 hit", "same-cluster", "imbalance"],
        rows,
        title="Ablation: SMX cluster organisation (binding at cluster granularity)",
    ))
    assert all(float(r[3]) == 1.0 for r in rows), "binding must stay within the cluster"


def test_ablation_contention_throttling(benchmark, workload):
    """Section IV-F: composing LaPerm with contention-aware TB throttling
    ([12]) on a machine with a thrash-prone L1."""
    spec = workload.kernel()

    def run():
        rows = []
        config = experiment_config(l1=CacheConfig(size_bytes=4 * 1024, associativity=4))
        for name in ("adaptive-bind", "adaptive-bind+throttle"):
            stats = simulate(spec, name, "dtbl", config)
            rows.append((name, f"{stats.ipc:.3f}", f"{stats.l1_hit_rate:.3f}", f"{stats.l2_hit_rate:.3f}"))
        return rows

    rows = once(benchmark, run)
    print("\n" + render_table(
        ["scheduler", "IPC", "L1 hit", "L2 hit"],
        rows,
        title="Ablation: contention-aware TB throttling on a 4 KB L1",
    ))
    assert len(rows) == 2


def test_seed_stability(benchmark):
    """The headline DTBL result must hold across workload seeds, not just
    the default one (a reproduction sanity check, not a paper figure)."""
    from repro.harness.runner import run_seed_sweep

    def run():
        return run_seed_sweep(
            "bfs-citation", "adaptive-bind", model="dtbl", seeds=(1, 3, 9), scale=SCALE
        )

    result = once(benchmark, run)
    print(
        "\nSeed stability (bfs-citation, Adaptive-Bind/DTBL): "
        f"mean={result.mean:.3f} std={result.std:.3f} "
        f"range=[{result.min:.3f}, {result.max:.3f}] over seeds (1, 3, 9)"
    )
    from benchmarks.conftest import SHAPE_CHECKS

    if SHAPE_CHECKS:
        assert result.min > 1.0, "LaPerm must beat RR for every seed"
