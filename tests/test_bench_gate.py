"""The CI perf-smoke regression gate (scripts/check_bench_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(**cycles_per_sec):
    return {
        "schedulers": {name: {"cycles_per_sec": value} for name, value in cycles_per_sec.items()}
    }


def test_within_tolerance_passes(gate):
    fresh = _report(**{"adaptive-bind": 80_000.0})
    base = _report(**{"adaptive-bind": 100_000.0})
    assert gate.check(fresh, base, ["adaptive-bind"], 0.25) == []


def test_past_tolerance_fails(gate):
    fresh = _report(**{"adaptive-bind": 74_000.0})
    base = _report(**{"adaptive-bind": 100_000.0})
    failures = gate.check(fresh, base, ["adaptive-bind"], 0.25)
    assert len(failures) == 1 and "adaptive-bind" in failures[0]


def test_missing_entries_fail_loudly(gate):
    assert gate.check(_report(), _report(rr=1.0), ["rr"], 0.25)
    assert gate.check(_report(rr=1.0), _report(), ["rr"], 0.25)


def test_main_end_to_end(gate, tmp_path, capsys):
    fresh_path = tmp_path / "fresh.json"
    base_path = tmp_path / "base.json"
    base_path.write_text(
        json.dumps(
            _report(**{"adaptive-bind": 100_000.0, "rr": 50_000.0})
        )
    )

    fresh_path.write_text(
        json.dumps(
            _report(**{"adaptive-bind": 90_000.0, "rr": 10_000.0})
        )
    )
    assert gate.main([str(fresh_path), "--baseline", str(base_path)]) == 0
    assert "perf smoke ok" in capsys.readouterr().out

    # gating on rr as well now trips the 80% drop
    assert (
        gate.main(
            [str(fresh_path), "--baseline", str(base_path), "--schedulers", "adaptive-bind", "rr"]
        )
        == 1
    )
    assert "REGRESSION rr:" in capsys.readouterr().err


def test_committed_baseline_is_gateable(gate):
    """The checked-in BENCH_simulator.json must satisfy the gate's shape
    for the row the default gate watches."""
    baseline = json.loads((Path(__file__).parent.parent / "BENCH_simulator.json").read_text())
    assert gate.check(baseline, baseline, ["adaptive-bind"], 0.25) == []


def test_update_baseline_overwrites_and_never_fails(gate, tmp_path, capsys):
    """--update-baseline is the bench-refresh flow: report, overwrite, exit 0."""
    fresh_path = tmp_path / "fresh.json"
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(_report(**{"adaptive-bind": 100_000.0})))
    # a drop far past tolerance: the gate would fail, the refresher must not
    fresh = _report(**{"adaptive-bind": 10_000.0})
    fresh_path.write_text(json.dumps(fresh))
    assert (
        gate.main([str(fresh_path), "--baseline", str(base_path), "--update-baseline"]) == 0
    )
    assert "updated" in capsys.readouterr().out
    assert json.loads(base_path.read_text()) == fresh
