"""Self-test of the benchmark suite.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py

Runs ``python -m benchmarks.suite.run --quick`` (tiny inputs, one round
per workload, traced round included) and checks its output against
BENCHMARK.json; also pins the verdict rule of ``compare.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite.compare import verdict

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "results.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite.run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_every_metric_is_reported_with_its_unit(quick, contract):
    line, _ = quick
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            reported = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert reported["unit"] == metric["unit"] != ""
            assert isinstance(reported["value"], (int, float))


def test_names_are_well_formed(quick, contract):
    line, _ = quick
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += list(line["metrics"])
    assert all(NAME.fullmatch(name) for name in names)


def test_span_file_parses_and_self_times_are_not_negative(quick):
    _, report = quick
    spans = json.loads(Path(report["spans"]).read_text())["spans"]
    assert {s["workload"] for s in spans} == {"grid-cold", "grid-warm", "replay", "service-mixed"}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        assert span["self_ns"] >= 0
        assert all(rec["self_ns"] >= 0 for rec in span["hot"].values())


def test_verdict_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    # 8/10 wins is not enough, however large the gain
    mixed = faster[:8] + [p * 1.01 for p in parent[8:]]
    assert verdict(parent, mixed, "lower", 0.1)["verdict"] == "no worse than the bound"
    assert verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)["verdict"] == "worse than the bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, list(noisy), "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(parent, [p * 1.2 for p in parent], "higher", 0.1)["verdict"] == "improved"
