"""What each entry point imports: warm paths load no simulator.

numpy costs about as much to import as the rest of the package together,
and a warm-cache run needs none of it, so only the code that builds or
decodes a trace imports it. A warm grid loads no engine stack either:
the package ``__init__``s resolve their names lazily, and the engine,
the trace layer and the trace codec are imported where a cache miss
needs them (docs/harness.md, "What a run imports"). Each case runs in a
fresh interpreter, since this test process has long since loaded them
all.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: modules a warm path must leave unloaded
HEAVY = ("numpy", "repro.analysis")

#: the modules the replay probe imports
REPLAY_MODULES = (
    "repro.core",
    "repro.dynpar",
    "repro.gpu.engine",
    "repro.harness.execution",
    "repro.harness.registry",
    "repro.harness.runner",
)

GRID = """
from repro.harness.execution import make_executor
from repro.harness.registry import load_benchmark
from repro.harness.runner import run_grid

executor = make_executor(cache={cache!r})
run_grid(
    [load_benchmark(name, "tiny") for name in ("amr", "clr-graph500")],
    ["rr", "adaptive-bind"],
    ["dtbl"],
    executor=executor,
)
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON object it
    prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(code: str) -> dict:
    """Which of :data:`HEAVY` ``code`` leaves in ``sys.modules``."""
    probe = f"\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {HEAVY!r}}}))\n"
    return run_fresh(textwrap.dedent(code) + probe)


NONE_LOADED = dict.fromkeys(HEAVY, False)

#: modules a run answered from the result cache never executes, so must
#: never import: the engine stack, the trace layer and its codec
SIMULATOR = (
    "numpy",
    "repro.analysis",
    "repro.core.composed",
    "repro.gpu.compiled",
    "repro.gpu.engine",
    "repro.gpu.kdu",
    "repro.gpu.kernel",
    "repro.gpu.kmu",
    "repro.gpu.serialize",
    "repro.gpu.smx",
    "repro.gpu.trace",
)
#: packages none of whose modules a warm run imports (``repro.dynpar``
#: itself is a table of model names, which the CLI offers as choices)
SIMULATOR_PACKAGES = ("repro.memory", "repro.telemetry", "repro.dynpar.")

#: prints the simulator modules the code before it left loaded
SIMULATOR_PROBE = f"""
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules
    if m in {SIMULATOR!r} or m.startswith({SIMULATOR_PACKAGES!r})
)))
"""

WARM_CLI_GRID = """
from repro.cli import main

main([
    "grid", "--scale", "tiny", "--benchmarks", "amr", "clr-graph500",
    "--schedulers", "rr", "adaptive-bind", "--models", "dtbl", "--cache-dir", {cache!r},
])
"""


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.cli",
        "\n".join(f"import {module}" for module in REPLAY_MODULES),
        """
        from repro.harness.registry import benchmark_names, load_benchmark
        names = benchmark_names()
        assert len(names) == 16
        for name in names:
            load_benchmark(name, "small")
        """,
        """
        from repro.harness.registry import catalog_dict
        catalog_dict()
        """,
    ],
    ids=["repro", "cli", "replay-modules", "load-benchmarks", "catalog"],
)
def test_entry_point_imports_no_numpy(code):
    assert loaded_after(code) == NONE_LOADED


def test_warm_grid_imports_no_numpy(tmp_path):
    cache = str(tmp_path / "cache")
    run_fresh(GRID.format(cache=cache) + "print('{}')\n")  # fills the cache
    warm = GRID.format(cache=cache) + "assert executor.misses == 0 and executor.hits == 4\n"
    assert loaded_after(warm) == NONE_LOADED


def test_warm_grid_imports_no_simulator(tmp_path):
    cache = str(tmp_path / "cache")
    run_fresh(GRID.format(cache=cache) + "print('{}')\n")  # fills the cache
    warm = GRID.format(cache=cache) + "assert executor.misses == 0 and executor.hits == 4\n"
    assert run_fresh(warm + SIMULATOR_PROBE) == []


def test_warm_cli_grid_imports_no_simulator(tmp_path):
    cache = str(tmp_path / "cache")
    run_fresh(WARM_CLI_GRID.format(cache=cache) + "print('{}')\n")  # fills the cache
    assert run_fresh(WARM_CLI_GRID.format(cache=cache) + SIMULATOR_PROBE) == []


def test_warm_grid_round_imports_nothing(tmp_path):
    # GRID's first lines import what it runs; the rest is a round as the
    # benchmark times it (executor, workloads and the grid), and on a warm
    # cache that round must find everything it runs already imported
    cache = str(tmp_path / "cache")
    run_fresh(GRID.format(cache=cache) + "print('{}')\n")  # fills the cache
    imports, grid_round = GRID.format(cache=cache).split("\n\n", 1)
    code = (
        imports
        + "\nimport json, sys\nbefore = set(sys.modules)\n"
        + grid_round
        + "assert executor.misses == 0 and executor.hits == 4\n"
        + "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert run_fresh(code) == []


def test_cold_run_spec_loads_numpy():
    loaded = loaded_after(
        """
        from repro.harness.execution import RunSpec, run_spec
        stats = run_spec(RunSpec.create("amr", "rr", "dtbl", scale="tiny"))
        assert stats.cycles > 0
        """
    )
    assert loaded["numpy"]


def test_fleet_workers_start_with_numpy():
    # the parent has not imported numpy; the first job on a fresh fleet
    # still finds it loaded, because start() imports it before forking
    out = run_fresh(
        """
        import json, sys
        from repro.harness import execution
        from repro.harness.pool import run_batch

        assert "numpy" not in sys.modules and "repro.gpu.engine" not in sys.modules
        execution._worker_run = lambda payload: {
            name: name in sys.modules for name in ("numpy", "repro.gpu.engine")
        }
        print(json.dumps(run_batch([("probe", {})], size=1)[0]))
        """
    )
    assert out == {"numpy": True, "repro.gpu.engine": True}


def test_cold_job_imports_nothing_the_fleet_did_not(tmp_path):
    # a fleet imports pool._JOB_MODULES before it forks; a cold job (no
    # result, no trace on disk) must find everything it runs loaded
    out = run_fresh(
        f"""
        import importlib, json, sys
        import repro.harness.registry
        from repro.harness import execution, pool

        for name in pool._JOB_MODULES:
            importlib.import_module(name)
        executor = execution.make_executor(cache={str(tmp_path)!r})
        before = set(sys.modules)
        for scheduler in ("rr", "adaptive-bind+throttle"):
            for model in ("dtbl", "cdp"):
                spec = execution.RunSpec.create("amr", scheduler, model, scale="tiny")
                assert execution._worker_run(executor.payload(spec))["stats"]["cycles"] > 0
        print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
        """
    )
    assert out == []


#: every module whose public names resolve on first use
LAZY_MODULES = (
    "repro",
    "repro.core",
    "repro.dynpar",
    "repro.gpu",
    "repro.harness",
    "repro.memory",
    "repro.telemetry",
    "repro.workloads",
)


def test_public_names_resolve():
    for name in LAZY_MODULES:
        module = importlib.import_module(name)
        for public in module.__all__:
            assert getattr(module, public) is not None, f"{name}.{public}"
        assert set(module.__all__) <= set(dir(module)), name
        with pytest.raises(AttributeError):
            module.no_such_name


def test_lazy_names_are_the_defining_objects():
    from repro import simulate
    from repro.gpu.trace import WarpTrace
    from repro.harness import simulate as harness_simulate
    from repro.workloads import WarpTrace as workloads_warp_trace
    from repro.workloads.base import WarpTrace as base_warp_trace

    assert simulate is harness_simulate
    assert WarpTrace is workloads_warp_trace is base_warp_trace
