"""The paper's headline claims at experiment scale (slow; run with
``pytest -m slow`` or without deselection)."""

import pytest

from repro.harness.execution import simulate
from repro.harness.registry import experiment_config, load_benchmark

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def run():
    """``run(scheduler)``: bfs-citation (small, DTBL) simulated once per
    scheduler for the whole module, so every test shares one rr run."""
    spec = load_benchmark("bfs-citation", scale="small").kernel()
    config = experiment_config()
    stats = {}

    def run(scheduler):
        if scheduler not in stats:
            stats[scheduler] = simulate(spec, scheduler, "dtbl", config)
        return stats[scheduler]

    return run


def test_laperm_beats_rr_on_bfs_citation(run):
    rr = run("rr")
    laperm = run("adaptive-bind")
    assert laperm.ipc > rr.ipc * 1.05
    assert laperm.child_mean_wait < rr.child_mean_wait


def test_tb_pri_improves_l2(run):
    rr = run("rr")
    tb_pri = run("tb-pri")
    assert tb_pri.l2_hit_rate > rr.l2_hit_rate


def test_smx_bind_improves_l1(run):
    rr = run("rr")
    bind = run("smx-bind")
    assert bind.l1_hit_rate > rr.l1_hit_rate
    assert bind.child_same_smx_fraction == 1.0
