"""The engine lifetime contract: a finished engine frees itself.

Once ``Engine.run`` returns or raises, dropping the last reference to the
engine frees it and every kernel, thread block, queue entry, SMX, cache
and closure it made by reference counting alone. Each case runs with the
cycle collector off, drops the engine and asserts that a collection then
finds nothing. It also checks the dropped run against a fresh one whose
engine is kept, and that everything the statistics read is still
readable on that engine after its run.
"""

import functools
import gc

import pytest

from repro.core import make_scheduler
from repro.core.components import resolve_scheduler
from repro.core.composed import ComposedScheduler
from repro.dynpar import make_model
from repro.gpu.engine import DeadlockError, Engine
from repro.gpu.kernel import KernelSpec, ResourceReq, _reset_id_counters
from repro.gpu.trace import LaunchSpec, TBBody, compute, launch
from repro.harness.registry import benchmark_names, experiment_config, load_benchmark
from repro.telemetry.events import RecordingSink
from repro.telemetry.metrics import MetricsSink


@functools.cache
def tiny_spec(name):
    return load_benchmark(name, scale="tiny").kernel()


def engine_for(spec, scheduler, model, **kwargs):
    return Engine(
        experiment_config(), make_scheduler(scheduler), make_model(model), [spec], **kwargs
    )


def run_catching(engine):
    """Run ``engine``; return what it raised as ``(type, message)``, or None.

    Only the message is kept: the exception's traceback holds the run's
    frames, and through them the engine.
    """
    try:
        engine.run()
    except RuntimeError as exc:
        return type(exc), str(exc)
    return None


def cyclic_garbage_after(make_engine):
    """Run an engine with the collector off and drop it.

    Returns its statistics, what the run raised and the number of
    unreachable objects a collection then finds.
    """
    gc.collect()
    gc.disable()
    try:
        engine = make_engine()
        stats = engine.stats
        error = run_catching(engine)
        del engine
        return stats, error, gc.collect()
    finally:
        gc.enable()


def check_lifetime(make_engine, expect_error=None):
    stats, error, garbage = cyclic_garbage_after(make_engine)
    assert garbage == 0
    if expect_error is None:
        assert error is None
    else:
        assert error is not None and issubclass(error[0], expect_error)
    fresh = make_engine()
    assert run_catching(fresh) == error
    assert stats.to_dict() == fresh.stats.to_dict()
    if error is None:
        # what stays readable after a run: re-collecting the statistics
        # reads the SMX, memory, scheduler, KDU and KMU counters again
        assert fresh._collect_stats().to_dict() == stats.to_dict()
        scheduler = fresh.scheduler
        assert scheduler.steals == stats.work_steals
        assert scheduler.overflow_events == stats.scheduler_overflow_events
        assert scheduler.queue_high_water == stats.scheduler_queue_high_water
    return fresh


@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_every_tiny_benchmark_frees_its_engine(name, model):
    spec = tiny_spec(name)  # built before the collector is off
    check_lifetime(lambda: engine_for(spec, "rr", model))


@pytest.mark.parametrize(
    "scheduler", ["tb-pri", "smx-bind", "adaptive-bind", "adaptive-bind+throttle"]
)
@pytest.mark.parametrize("name", ["bfs-citation", "amr"])
def test_every_laperm_scheduler_frees_its_engine(name, scheduler):
    spec = tiny_spec(name)
    check_lifetime(lambda: engine_for(spec, scheduler, "dtbl"))


def test_adjusting_throttle_frees_its_engine():
    """A throttle that moves the caps reads the SMXs and their L1s."""
    _, policy = resolve_scheduler("adaptive-bind+throttle")
    spec = tiny_spec("bfs-citation")
    fresh = check_lifetime(
        lambda: Engine(
            experiment_config(),
            ComposedScheduler(policy, interval=64, min_window_accesses=4),
            make_model("dtbl"),
            [spec],
        )
    )
    assert fresh.scheduler.adjustments > 0


def giant_host_kernel():
    return KernelSpec(
        name="giant",
        bodies=[TBBody(warps=[[compute(1)]])],
        resources=ResourceReq(threads=4096),
    )


def unplaceable_child_kernel():
    child = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])], threads_per_tb=4096)
    return KernelSpec(
        name="bad-child",
        bodies=[TBBody(warps=[[compute(4), launch(child)]]) for _ in range(4)],
        resources=ResourceReq(threads=32),
    )


@pytest.mark.parametrize(
    "kernel, scheduler, model",
    [
        (giant_host_kernel, "rr", "dtbl"),
        (unplaceable_child_kernel, "adaptive-bind", "dtbl"),
        (unplaceable_child_kernel, "adaptive-bind+throttle", "cdp"),
    ],
    ids=["giant-host-tb", "child-dtbl", "child-cdp-throttle"],
)
def test_deadlocked_run_frees_its_engine(kernel, scheduler, model):
    check_lifetime(lambda: engine_for(kernel(), scheduler, model), DeadlockError)


@pytest.mark.parametrize(
    "name, scheduler, model",
    [("bfs-citation", "adaptive-bind", "dtbl"), ("sssp-cage15", "rr", "cdp")],
)
def test_max_cycles_overrun_frees_its_engine(name, scheduler, model):
    """Stopped mid-run: TBs resident, queued, retiring and launching."""
    spec = tiny_spec(name)
    check_lifetime(lambda: engine_for(spec, scheduler, model, max_cycles=2000), RuntimeError)


@pytest.mark.parametrize(
    "sink, scheduler, model",
    [
        (RecordingSink, "adaptive-bind", "dtbl"),
        (MetricsSink, "adaptive-bind+throttle", "cdp"),
        (RecordingSink, "rr", "cdp"),
    ],
)
def test_run_with_telemetry_frees_its_engine(sink, scheduler, model):
    spec = tiny_spec("bfs-citation")
    sinks = []

    def make():
        _reset_id_counters()  # both runs emit the same TB and kernel ids
        sinks.append(sink())
        return engine_for(spec, scheduler, model, telemetry=sinks[-1])

    check_lifetime(make)
    dropped, fresh = sinks
    if isinstance(fresh, RecordingSink):
        assert fresh.events and dropped.events == fresh.events
    else:
        assert dropped.registry.snapshot() == fresh.registry.snapshot()
