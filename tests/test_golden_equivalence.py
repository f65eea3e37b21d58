"""Cycle-exact equivalence with the pre-optimization engines.

``tests/golden_equivalence.json`` pins the simulated statistics of one
tiny workload, bit-for-bit, across every performance refactor:

* the four paper schedulers were generated by the classic every-SMX-sweep
  engine (before the wake-calendar / dispatch-skip / memory fast-path
  optimizations of PR 4),
* ``l2-bind`` and ``adaptive-bind+throttle`` were generated by the
  event-driven engine before the trace-compilation layer (flat
  ``array('q')`` instruction columns; see ``repro/gpu/trace.py``)
  replaced per-``Instr`` interpretation,
* the machine-variant pins in ``tests/golden_variants.json`` (keys
  carry a fourth ``|field=value`` component: a partitioned L2 and the
  LRR/two-level warp schedulers) were generated while a second engine
  backend still existed, before the partitioned L2 walk was folded into
  the per-SMX accessor closure. They live in their own file because
  ``golden_equivalence.json`` keys stay ``benchmark|scheduler|model`` on
  the default machine, the form ``benchmarks/suite/run.py`` replays,
* the ``sssp-cage15|…|cdp|scale=small`` variant pins were generated
  before KMU admission became a heap and before the monolithic-L2
  accessor serviced DRAM and its MSHR table inline. ``small`` is the
  scale at which those paths do real work: the KMU holds a backlog of
  hundreds of device kernels and the MSHR table drops tens of thousands
  of fills, which no ``tiny`` workload reaches.

The current engine must reproduce every statistic bit-for-bit: these
optimizations are pure performance work and must not change any
simulated result.

Regenerate the fixture ONLY for an intentional semantic change (and bump
``ENGINE_VERSION`` when you do)::

    PYTHONPATH=src python scripts/regenerate_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.harness.execution import RunSpec, run_spec

FIXTURE = Path(__file__).parent / "golden_equivalence.json"
VARIANT_FIXTURE = Path(__file__).parent / "golden_variants.json"

#: every golden-pinned policy: the paper's four presets, a composed
#: +throttle policy, and the L2-cluster binding the spec grammar unlocks
#: (in fixture order)
PINNED_SCHEDULERS = (
    "adaptive-bind",
    "rr",
    "smx-bind",
    "tb-pri",
    "l2-bind",
    "adaptive-bind+throttle",
)


#: machine variants pinned on top of the default machine, as
#: (scheduler, config field, value): configurations whose fast paths
#: differ from the default one
CONFIG_PINS = [
    ("adaptive-bind", "warp_scheduler", "lrr"),
]

#: ``small``-scale CDP pins, as (benchmark, scheduler, model): the KMU
#: backlog and MSHR-drop paths the tiny pins never reach
SMALL_PINS = [
    ("sssp-cage15", "rr", "cdp"),
    ("sssp-cage15", "adaptive-bind", "cdp"),
]


def pinned_keys() -> dict[Path, list[str]]:
    """Fixture file -> its keys, in the order the regeneration script
    writes them."""
    return {
        FIXTURE: [f"bfs-citation|{sched}|dtbl" for sched in PINNED_SCHEDULERS],
        VARIANT_FIXTURE: [
            f"bfs-citation|{sched}|dtbl|{field}={value}" for sched, field, value in CONFIG_PINS
        ]
        + [f"{bench}|{sched}|{model}|scale=small" for bench, sched, model in SMALL_PINS],
    }


def spec_for_key(key: str) -> RunSpec:
    """``benchmark|scheduler|model[|field=value]`` -> the pinned RunSpec.

    ``scale=…`` sets the workload scale (default ``tiny``); any other
    ``field=value`` overrides a :class:`GPUConfig` field."""
    benchmark, scheduler, model, *overrides = key.split("|")
    fields = {k: int(v) if v.isdigit() else v for k, v in (i.split("=", 1) for i in overrides)}
    spec = RunSpec(
        benchmark=benchmark,
        scheduler=scheduler,
        model=model,
        scale=fields.pop("scale", "tiny"),
        seed=7,
    )
    if fields:
        spec = spec.with_rung(config_overrides=fields)
    return spec


def load_fixture():
    return {
        key: stats
        for path in (FIXTURE, VARIANT_FIXTURE)
        for key, stats in json.loads(path.read_text()).items()
    }


def assert_matches_golden(key):
    expected = load_fixture()[key]
    measured = run_spec(spec_for_key(key)).to_dict()
    # compare only the fixture's keys: fields added after the fixture was
    # generated (e.g. mshr_dropped) are new information, not divergence
    assert {k: measured[k] for k in expected} == expected


@pytest.mark.parametrize("key", sorted(json.loads(FIXTURE.read_text())))
def test_stats_match_pre_refactor_engine(key):
    assert_matches_golden(key)


def variant_id(key: str) -> str:
    """``bfs-citation|adaptive-bind|dtbl|warp_scheduler=lrr`` ->
    ``adaptive-bind|warp_scheduler=lrr``:
    the bfs-citation/dtbl pins share the benchmark and model, so their
    test ids keep only the parts that tell them apart (and stay stable as
    other pins are added); any other pin keeps its whole key."""
    benchmark, scheduler, model, override = key.split("|")
    if (benchmark, model) != ("bfs-citation", "dtbl"):
        return key
    return f"{scheduler}|{override}"


@pytest.mark.parametrize(
    "key", sorted(json.loads(VARIANT_FIXTURE.read_text())), ids=variant_id
)
def test_variant_matches_golden(key):
    assert_matches_golden(key)


def test_fixture_covers_all_schedulers():
    keys = load_fixture().keys()
    schedulers = {k.split("|")[1] for k in keys}
    assert schedulers == set(PINNED_SCHEDULERS)


def test_fixture_covers_every_pin():
    for path, keys in pinned_keys().items():
        assert list(json.loads(path.read_text())) == keys


#: the same four policies spelled in the component grammar; the composed
#: scheduler must be a zero-drift refactor of the inheritance-era stack
SPEC_SPELLINGS = {
    "rr": "pri=fifo,bind=any",
    "tb-pri": "pri=level,bind=any",
    "smx-bind": "pri=level,bind=smx",
    "adaptive-bind": "pri=level,bind=smx,steal=backup",
}


@pytest.mark.parametrize("name", sorted(SPEC_SPELLINGS))
def test_spec_string_spelling_matches_golden(name):
    expected = load_fixture()[f"bfs-citation|{name}|dtbl"]
    spec = RunSpec(
        benchmark="bfs-citation",
        scheduler=SPEC_SPELLINGS[name],
        model="dtbl",
        scale="tiny",
        seed=7,
    )
    assert spec.scheduler == name  # canonicalized to the paper label
    measured = run_spec(spec).to_dict()
    assert {k: measured[k] for k in expected} == expected
