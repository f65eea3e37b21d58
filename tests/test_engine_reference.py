"""The engine's skip machinery against the every-cycle reference sweep.

``Engine.run`` visits only the SMXs whose ``wake_at`` has arrived, skips
an idle dispatch stage and jumps the clock over dead cycles;
``run_every_cycle`` (``tests/engine_reference.py``) does every stage on
every cycle. Both must produce the same statistics, field for field.
"""

import functools

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.engine import Engine
from repro.harness.registry import benchmark_names, experiment_config, load_benchmark
from tests.engine_reference import run_every_cycle

#: tier-1 schedulers: the baseline, LaPerm, and LaPerm with its timed
#: admission stage (the one scheduler that opts out of dispatch skipping)
FAST_SCHEDULERS = ["rr", "adaptive-bind", "adaptive-bind+throttle"]

#: the other named compositions
SLOW_SCHEDULERS = ["tb-pri", "smx-bind", "l2-bind", "adaptive-l2"]


@functools.cache
def kernel_spec(name, scale="tiny"):
    return load_benchmark(name, scale=scale).kernel()


def assert_reference_matches(name, scheduler, model, config, scale="tiny"):
    def engine():
        return Engine(
            config, make_scheduler(scheduler), make_model(model), [kernel_spec(name, scale)]
        )

    assert run_every_cycle(engine()).to_dict() == engine().run().to_dict()


@pytest.mark.parametrize("scheduler", FAST_SCHEDULERS)
@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_engine_matches_every_cycle_sweep(name, model, scheduler):
    assert_reference_matches(name, scheduler, model, experiment_config())


def test_engine_matches_every_cycle_sweep_on_small_amr_throttled():
    """The throttle keeps dispatch running on every executed cycle, but
    clock jumps still skip cycles the sweep dispatches on. On this cell
    many stage-3 lookups find a TB that fits nowhere, so ``work_steals``
    matches only if a steal counts when its TB is placed, not when it is
    looked up."""
    assert_reference_matches(
        "amr", "adaptive-bind+throttle", "dtbl", experiment_config(), scale="small"
    )


@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_engine_matches_every_cycle_sweep_under_lrr(name, model):
    """LRR rotates warp ages on every issue, so its ready heap differs
    from GTO's at almost every cycle."""
    config = experiment_config(warp_scheduler="lrr")
    assert_reference_matches(name, "adaptive-bind", model, config)


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", SLOW_SCHEDULERS)
@pytest.mark.parametrize("model", ["dtbl", "cdp"])
@pytest.mark.parametrize("name", benchmark_names())
def test_engine_matches_every_cycle_sweep_other_schedulers(name, model, scheduler):
    assert_reference_matches(name, scheduler, model, experiment_config())
