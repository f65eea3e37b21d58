"""What each entry point imports: warm paths never load numpy.

numpy costs about as much to import as the rest of the package together,
and a warm-cache run needs none of it, so only the code that builds or
decodes a trace imports it (docs/harness.md, "What a run imports"). Each
case runs in a fresh interpreter, since this test process has long since
loaded numpy.
"""

from __future__ import annotations

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

        assert "numpy" not in sys.modules
        execution._worker_run = lambda payload: {"numpy": "numpy" in sys.modules}
        print(json.dumps(run_batch([("probe", {})], size=1)[0]))
        """
    )
    assert out == {"numpy": True}


def test_public_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    from repro import simulate
    from repro.harness import simulate as harness_simulate

    assert simulate is harness_simulate
    with pytest.raises(AttributeError):
        repro.no_such_name
