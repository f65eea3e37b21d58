"""Metamorphic invariants of the engine: relations that need no stored answer.

The golden pins compare the engine with its own past output. These
checks instead derive the expected value from the trace or from a
second run, so they hold for any correct engine.
"""

import functools
from collections import Counter

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig
from repro.gpu.engine import Engine
from repro.gpu.trace import OP_LOAD, walk_bodies
from repro.harness.registry import benchmark_names, experiment_config, load_benchmark
from tests.conftest import body_lines, warp_columns


def loaded_lines(spec) -> set[int]:
    """Every distinct line the trace loads, nested launches included."""
    lines = set()
    for body in walk_bodies(spec.bodies):
        pool = body_lines(body)
        for ops, args, offs in warp_columns(body):
            for op, n, off in zip(ops, args, offs):
                if op == OP_LOAD:
                    lines.update(pool[off : off + n])
    return lines


def touched_per_set(spec, num_sets: int) -> int:
    """The most distinct lines (loads and stores) any L1 set receives."""
    touched = set()
    for body in walk_bodies(spec.bodies):
        touched.update(body_lines(body))
    return max(Counter(line % num_sets for line in touched).values())


@functools.cache
def tiny_spec(name):
    return load_benchmark(name, scale="tiny").kernel()


def simulate_tiny(name, scheduler, model, config):
    return Engine(config, make_scheduler(scheduler), make_model(model), [tiny_spec(name)]).run()


@pytest.mark.parametrize("name", ["amr", "bfs-citation", "join-gaussian"])
def test_l1_misses_are_compulsory_when_no_set_overflows(name):
    """With one SMX and an L1 no set of which can overflow, the only L1
    read misses are the first touch of each line the trace loads."""
    spec = tiny_spec(name)
    l1 = experiment_config().l1
    num_sets = l1.num_sets
    assoc = touched_per_set(spec, num_sets)
    config = experiment_config(
        num_smx=1,
        l1=CacheConfig(
            size_bytes=num_sets * assoc * l1.line_bytes,
            line_bytes=l1.line_bytes,
            associativity=assoc,
        ),
    )
    engine = Engine(config, make_scheduler("rr"), make_model("dtbl"), [spec])
    engine.run()
    stats = engine.memory.l1_stats_merged()
    assert stats.evictions == 0
    read_misses = stats.accesses - stats.write_accesses - (stats.hits - stats.write_hits)
    assert read_misses == len(loaded_lines(spec)) > 0


@pytest.mark.parametrize("scheduler", ["rr", "adaptive-bind"])
@pytest.mark.parametrize("name", benchmark_names())
def test_launch_model_changes_timing_not_work(name, scheduler):
    """CDP and DTBL run the same thread blocks, so they execute the same
    instructions; only when the children start differs."""
    config = experiment_config()
    instructions = {
        model: simulate_tiny(name, scheduler, model, config).instructions for model in ("cdp", "dtbl")
    }
    assert instructions["cdp"] == instructions["dtbl"] > 0


@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_one_smx_leaves_placement_nothing_to_choose(name, model):
    """With one SMX every TB runs on SMX 0, so binding, stealing and the
    L2-cluster variants cannot differ from TB-Pri's priority order. The
    bound placements keep the host kernel's queue out of the high-water
    mark, so that one field may differ."""
    config = experiment_config(num_smx=1)
    runs = {
        scheduler: simulate_tiny(name, scheduler, model, config)
        for scheduler in ("tb-pri", "smx-bind", "adaptive-bind", "l2-bind", "adaptive-l2")
    }
    # an overflowed bound queue pays queue_overflow_penalty; tb-pri's never does
    assert all(stats.scheduler_overflow_events == 0 for stats in runs.values())
    expected = runs.pop("tb-pri").to_dict()
    del expected["scheduler_queue_high_water"]
    for scheduler, stats in runs.items():
        got = stats.to_dict()
        del got["scheduler_queue_high_water"]
        assert got == expected, scheduler


@pytest.mark.parametrize(
    "overrides", [{}, {"num_smx": 12, "smxs_per_cluster": 2}], ids=["default", "clusters"]
)
@pytest.mark.parametrize("scheduler", ["smx-bind", "smx-bind+throttle"])
@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_bound_child_runs_in_parent_cluster(name, model, scheduler, overrides):
    """Without stealing, a bound child may only run in the L1 cluster of
    the SMX its parent ran on."""
    stats = simulate_tiny(name, scheduler, model, experiment_config(**overrides))
    assert stats.child_same_cluster == stats.child_tbs_dispatched
