"""The repository benchmark: end-to-end and per-layer metrics, with checks.

Run from the repository root::

    python -m benchmarks.suite.run --seed 7 --out results.json
    python3 benchmarks/suite/run.py --workload replay --seed 11 --seconds 18 --trace 0

Without ``--workload`` all four workloads run (grid-cold, grid-warm,
replay, service-mixed). ``--trace 0`` runs untraced rounds for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs
untraced rounds for a third of that, then one traced round, and reports
the per-layer metrics; leaving ``--trace`` out does both. Before any
timing the six golden-pinned tiny runs are replayed; after the rounds the
outputs are checked (see README.md). Human-readable lines go to stdout,
and the last stdout line is one JSON object::

    {"correct": true, "attempted": 32, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed. Metric names, units and
directions are read from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import drivers  # noqa: E402
from drivers import Context, RoundError, Settings  # noqa: E402
from spans import layer_totals  # noqa: E402

ROOT = drivers.ROOT
OUT_DIR = drivers.SUITE / "out"
WORKLOADS = ("grid-cold", "grid-warm", "replay", "service-mixed")
DEFAULT_SEED = 7
#: seed held out for confirming a claimed gain on unseen inputs
HELD_OUT_SEED = 11


# -- checks --------------------------------------------------------------------


def golden_problems() -> list[str]:
    """Replay the pinned tiny runs; every pinned field must match."""
    from repro.harness.execution import RunSpec, run_spec

    fixture = json.loads((ROOT / "tests" / "golden_equivalence.json").read_text())
    problems = []
    for key, expected in sorted(fixture.items()):
        benchmark, scheduler, model = key.split("|")
        spec = RunSpec(benchmark=benchmark, scheduler=scheduler, model=model, scale="tiny", seed=7)
        measured = run_spec(spec).to_dict()
        wrong = sorted(k for k in expected if measured.get(k) != expected[k])
        if wrong:
            problems.append(f"golden: {key} differs in {wrong[:4]}")
    return problems


# -- metrics -------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(out: drivers.Outcome) -> dict[str, dict]:
    """Each end-to-end metric described (see :func:`describe`), with its
    samples. Timings are adjusted to the reference host speed
    (``worker.calibrate``), except on service-mixed; the samples as timed
    ride along as ``raw``.

    When the rounds time their cells one by one (replay), ``wall_s`` is the
    sum over cells of each cell's median, and its quartiles are the sums
    of the cells' quartiles. A burst of load from another process on the
    host slows a cell or two of a round; a per-cell median drops it where
    the median of a few round totals would not. ``sim_instr_per_s`` is the
    round's simulated instructions over that wall time.
    """
    samples = {
        "setup_s": out.setups,
        "wall_s": out.walls,
        "sim_instr_per_s": out.instr_rates,
        "peak_rss_mb": out.rss,
    }
    e2e = {name: {**describe(values), "samples": values} for name, values in samples.items()}
    if out.cell_walls:
        cells = [describe(values) for values in out.cell_walls.values()]
        wall = {k: sum(cell[k] for cell in cells) for k in ("value", "q1", "q3")}
        instructions = sum(s["instructions"] for s in out.reference.values())
        n = len(out.walls)
        e2e["wall_s"] = {**wall, "n": n, "samples": out.walls, "cells": out.cell_walls}
        e2e["sim_instr_per_s"] = {
            "value": instructions / wall["value"], "n": n,
            "q1": instructions / wall["q3"], "q3": instructions / wall["q1"],
            "samples": out.instr_rates,
        }
    e2e["setup_s"]["raw"] = out.raw_setups
    e2e["wall_s"]["raw"] = out.raw_walls
    return e2e


def workload_extras(out: drivers.Outcome) -> dict[str, tuple[float, str, int]]:
    """The workload's own printed metrics: name -> (value, unit, n)."""
    extras = {"ipc_speedup_laperm": (out.speedup, "x", len(out.walls))}
    for name in ("warm_ms", "cold_ms"):
        if name in out.extra:
            samples, unit = out.extra[name]
            kind = name[:-3]
            extras[f"{kind}_p50_ms"] = (statistics.median(samples), unit, len(samples))
            extras[f"{kind}_p95_ms"] = (percentile(samples, 95), unit, len(samples))
    for name in ("submit_ms", "queue_wait_ms", "exec_ms"):
        if name in out.extra:
            samples, unit = out.extra[name]
            extras[f"service.{name}_p50"] = (statistics.median(samples), unit, len(samples))
    if "jobs_per_s" in out.extra:
        samples, unit = out.extra["jobs_per_s"]
        extras["jobs_per_s"] = (statistics.median(samples), unit, len(samples))
    extras["error_rate"] = (out.failed / out.attempted, "ratio", out.attempted)
    return extras


def per_layer(out: drivers.Outcome, untraced_wall: float) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics of the traced round, plus the absolute seconds
    and counts behind them. Times are shares (%) of the traced round's
    wall time as timed; counts and ratios are as counted. ``untraced_wall``
    is the untraced rounds' ``wall_s``, which the traced round's adjusted
    wall time is set against for the tracing overhead."""
    traced = out.traced
    agg = layer_totals(traced["spans"])
    totals, attrs = agg["totals"], agg["attrs"]
    wall = traced["wall"]
    empty = {"n": 0, "s": 0.0, "self_s": 0.0, "extra": 0}

    def row(name):
        return totals.get(name, empty)

    def pct(seconds):
        return 100.0 * seconds / wall

    def ratio(a, b):
        return a / b if b else 0.0

    engine_attrs = attrs.get("engine.run", {})

    def sim(key):
        return engine_attrs.get(key, 0)

    build, store, load = row("workloads.build"), row("workload_cache.store"), row("workload_cache.load")
    rload, rstore = row("result_cache.load"), row("result_cache.store")
    execution, cache_key = row("execution.run"), row("execution.cache_key")
    compile_, engine = row("compiled.compile"), row("engine.run")
    issue, memory = row("smx.issue"), row("memory.access")
    dispatch, deliver = row("core.dispatch"), row("dynpar.deliver")

    records = traced.get("records", [])
    cold = [r for r in records if r["kind"] == "cold" and r.get("job", {}).get("started_at")]
    cold_latency = sum(r["latency"] for r in cold)
    queue_wait = sum(r["job"]["started_at"] - r["job"]["submitted_at"] for r in cold)
    exec_time = sum(r["job"]["finished_at"] - r["job"]["started_at"] for r in cold)

    values = {
        "workloads.build_pct": pct(build["s"]),
        "workloads.build_n": build["n"],
        "workload_cache.store_pct": pct(store["s"]),
        "workload_cache.store_n": store["n"],
        "workload_cache.store_mb": attrs.get("workload_cache.store", {}).get("bytes", 0) / 1e6,
        "workload_cache.load_pct": pct(load["s"]),
        "workload_cache.load_n": load["n"],
        "result_cache.load_pct": pct(rload["s"]),
        "result_cache.store_pct": pct(rstore["s"]),
        "result_cache.hit_ratio": ratio(attrs.get("result_cache.load", {}).get("hit", 0), rload["n"]),
        "execution.self_pct": pct(execution["self_s"]),
        "execution.cache_key_pct": pct(cache_key["s"]),
        "execution.cache_key_n": cache_key["n"],
        "compiled.compile_pct": pct(compile_["s"]),
        "compiled.compile_n": compile_["n"],
        "compiled.compiles_per_tb": ratio(compile_["n"], sim("tbs")),
        "engine.run_pct": pct(engine["s"]),
        "engine.self_pct": pct(engine["self_s"]),
        "engine.sim_cycles": sim("cycles"),
        "engine.sim_cycles_per_s": ratio(sim("cycles"), engine["s"]),
        "smx.issue_pct": pct(issue["self_s"]),
        "smx.issue_calls": issue["n"],
        "smx.issue_yield": ratio(issue["extra"], issue["n"]),
        "memory.access_pct": pct(memory["self_s"]),
        "memory.access_calls": memory["n"],
        "memory.lines_per_access": ratio(memory["extra"], memory["n"]),
        "memory.l1_hit_rate": ratio(sim("l1_hits"), sim("l1_accesses")),
        "memory.l2_hit_rate": ratio(sim("l2_hits"), sim("l2_accesses")),
        "memory.dram_accesses": sim("dram_accesses"),
        "memory.mshr_dropped": sim("mshr_dropped"),
        "core.dispatch_pct": pct(dispatch["self_s"]),
        "core.dispatch_calls": dispatch["n"],
        "core.place_ratio": ratio(dispatch["extra"], dispatch["n"]),
        "core.steals": sim("steals"),
        "dynpar.deliver_pct": pct(deliver["self_s"]),
        "dynpar.launches": sim("launches"),
        "service.queue_wait_pct": 100.0 * ratio(queue_wait, cold_latency),
        "service.exec_pct": 100.0 * ratio(exec_time, cold_latency),
        "service.jobs_executed": int(traced.get("executed", 0)),
        "service.cache_hits": int(traced.get("cache_hits", 0)),
        "model.ipc_speedup_laperm": out.speedup,
        "trace.overhead_pct": 100.0 * (traced["adjusted"] / untraced_wall - 1),
    }
    seconds = {
        "round_s": wall,
        "workloads.build_s": build["s"],
        "workload_cache.store_s": store["s"],
        "workload_cache.load_s": load["s"],
        "result_cache.load_s": rload["s"],
        "result_cache.store_s": rstore["s"],
        "execution.self_s": execution["self_s"],
        "execution.cache_key_s": cache_key["s"],
        "compiled.compile_s": compile_["s"],
        "engine.run_s": engine["s"],
        "engine.self_s": engine["self_s"],
        "smx.issue_s": issue["self_s"],
        "memory.access_s": memory["self_s"],
        "core.dispatch_s": dispatch["self_s"],
        "dynpar.deliver_s": deliver["self_s"],
    }
    if engine["s"]:
        seconds["engine.ns_per_sim_cycle"] = 1e9 * engine["s"] / sim("cycles")
    return values, seconds


# -- output --------------------------------------------------------------------


def provenance() -> dict:
    """Git revision (``-dirty`` when uncommitted), CPU model and platform
    as bench_simulator.py records them, plus host and Python version."""
    from benchmarks.bench_simulator import _provenance

    return {**_provenance(), "host": platform.node(), "python": platform.python_version()}


def print_workload(out, e2e, extras, units, layers, seconds, settings) -> None:
    print(f"== {out.name}  seed={settings.seed} scale={settings.scale} "
          f"rounds={len(out.walls)}")
    for name, d in e2e.items():
        print(f"  {name:28s} {d['value']:14.6g} {units[name]:8s} n={d['n']:<4d} "
              f"q1={d['q1']:.6g} q3={d['q3']:.6g}")
    print(f"  (as timed: setup_s median "
          f"{statistics.median(e2e['setup_s']['raw']):.6g} s, wall_s median "
          f"{statistics.median(e2e['wall_s']['raw']):.6g} s)")
    for name, (value, unit, n) in extras.items():
        print(f"  {name:28s} {value:14.6g} {unit:8s} n={n}")
    if layers is not None:
        print(f"  -- traced round: {seconds['round_s']:.3f} s, "
              f"overhead {layers['trace.overhead_pct']:.1f}% over the untraced median")
        for name, value in seconds.items():
            if name != "round_s" and value:
                print(f"  {name:28s} {value:14.6g} {'s' if name.endswith('_s') else 'ns'}")
        for name, value in layers.items():
            print(f"  {name:28s} {value:14.6g} {units.get(name, '')}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; default both")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one round per workload (self-test)")
    parser.add_argument("--out", type=Path, help="write every metric and sample as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    if args.quick:
        budget = 0.0
    else:
        budget = seconds / 3 if args.trace == 1 else seconds
    settings = Settings(
        seed=args.seed,
        budget=budget,
        scale="tiny" if args.quick else "small",
        service_requests=20 if args.quick else 50,
        traced=args.trace != 0,
    )
    names = [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]

    ctx = Context(OUT_DIR)
    outcomes: dict[str, drivers.Outcome] = {}
    try:
        problems = golden_problems()
        for name in names:
            if name == "grid-cold":
                outcomes[name] = drivers.grid_cold(ctx, settings)
            elif name == "grid-warm":
                outcomes[name] = drivers.grid_warm(ctx, settings, outcomes.get("grid-cold"))
            elif name == "replay":
                outcomes[name] = drivers.replay(ctx, settings)
            else:
                outcomes[name] = drivers.service_mixed(ctx, settings)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.close()

    report = {"provenance": provenance(), "seed": settings.seed, "scale": settings.scale,
              "seconds": seconds, "workloads": {}}
    metrics: dict[str, dict] = {}
    spans: list[dict] = []
    for name, out in outcomes.items():
        problems.extend(out.problems)
        e2e = end_to_end(out)
        extras = workload_extras(out)
        layers, layer_seconds = (
            per_layer(out, e2e["wall_s"]["value"]) if out.traced else (None, None)
        )
        print_workload(out, e2e, extras, units, layers, layer_seconds, settings)
        prefix = f"{name}." if len(outcomes) > 1 else ""
        if args.trace != 1:
            for metric in contract["end_to_end"]:
                metrics[prefix + metric["name"]] = {
                    "value": e2e[metric["name"]]["value"], "unit": metric["unit"]}
        if args.trace != 0:
            for metric in contract["per_layer"]:
                metrics[prefix + metric["name"]] = {
                    "value": layers[metric["name"]], "unit": metric["unit"]}
            spans.extend(out.traced["spans"])
        report["workloads"][name] = {
            "rounds": len(out.walls),
            "end_to_end": e2e,
            "extras": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in extras.items()},
            "per_layer": layers,
            "layer_seconds": layer_seconds,
            "attempted": out.attempted,
            "failed": out.failed,
        }

    if spans:
        spans_path = args.out.with_suffix(".spans.json") if args.out else OUT_DIR / "spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"clock": "perf_counter_ns", "spans": spans}))
        report["spans"] = str(spans_path)
        print(f"spans: {spans_path} ({len(spans)} spans)")
    report["problems"] = problems
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
