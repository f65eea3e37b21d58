"""Metamorphic invariants of the engine: relations that need no stored answer.

The golden pins compare the engine with its own past output. These
checks instead derive the expected value from the trace or from a
second run, so they hold for any correct engine.
"""

from collections import Counter

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig
from repro.gpu.engine import Engine
from repro.gpu.trace import OP_LOAD, walk_bodies
from repro.harness.registry import benchmark_names, experiment_config, load_benchmark


def loaded_lines(spec) -> set[int]:
    """Every distinct line the trace loads, nested launches included."""
    lines = set()
    for body in walk_bodies(spec.bodies):
        columns = body.columns
        pool = columns.lines
        for ops, args, offs in zip(columns.warp_ops, columns.warp_args, columns.warp_offs):
            for op, n, off in zip(ops, args, offs):
                if op == OP_LOAD:
                    lines.update(pool[off : off + n])
    return lines


def touched_per_set(spec, num_sets: int) -> int:
    """The most distinct lines (loads and stores) any L1 set receives."""
    touched = set()
    for body in walk_bodies(spec.bodies):
        touched.update(body.columns.lines)
    return max(Counter(line % num_sets for line in touched).values())


@pytest.mark.parametrize("name", ["amr", "bfs-citation", "join-gaussian"])
def test_l1_misses_are_compulsory_when_no_set_overflows(name):
    """With one SMX and an L1 no set of which can overflow, the only L1
    read misses are the first touch of each line the trace loads."""
    spec = load_benchmark(name, scale="tiny").kernel()
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
    spec = load_benchmark(name, scale="tiny").kernel()
    config = experiment_config()
    instructions = {
        model: Engine(config, make_scheduler(scheduler), make_model(model), [spec]).run().instructions
        for model in ("cdp", "dtbl")
    }
    assert instructions["cdp"] == instructions["dtbl"] > 0
