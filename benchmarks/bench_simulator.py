"""Simulator micro-benchmarks: raw engine throughput.

These are genuine timing benchmarks (multiple rounds) — useful to catch
performance regressions in the cycle loop, the memory hierarchy, and the
dispatch stage.
"""

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.engine import Engine
from repro.harness.registry import experiment_config, load_benchmark
from repro.memory.cache import Cache
from repro.memory.coalescer import coalesce
from repro.gpu.config import CacheConfig


@pytest.fixture(scope="module")
def tiny_spec():
    w = load_benchmark("bfs-citation", scale="tiny")
    return w.kernel()


def test_engine_throughput_rr(benchmark, tiny_spec):
    def run():
        engine = Engine(experiment_config(), make_scheduler("rr"), make_model("dtbl"), [tiny_spec])
        return engine.run().cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_engine_throughput_laperm(benchmark, tiny_spec):
    def run():
        engine = Engine(
            experiment_config(), make_scheduler("adaptive-bind"), make_model("dtbl"), [tiny_spec]
        )
        return engine.run().cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_engine_throughput_laperm_throttled(benchmark, tiny_spec):
    """Composed policy: LaPerm plus the throttle admission component."""

    def run():
        engine = Engine(
            experiment_config(),
            make_scheduler("adaptive-bind+throttle"),
            make_model("dtbl"),
            [tiny_spec],
        )
        return engine.run().cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_cache_access_throughput(benchmark):
    cache = Cache(CacheConfig(size_bytes=32 * 1024, associativity=4))
    lines = [(i * 37) % 4096 for i in range(10_000)]

    def run():
        hits = 0
        for line in lines:
            hits += cache.access(line)
        return hits

    benchmark(run)


def test_coalescer_throughput(benchmark):
    warps = [[(i * 131 + lane * 4) % (1 << 20) for lane in range(32)] for i in range(200)]

    def run():
        return sum(len(coalesce(w)) for w in warps)

    benchmark(run)


# ---------------------------------------------------------------------------
# script mode: `python benchmarks/bench_simulator.py -o BENCH_simulator.json`
# measures engine throughput (cycles/sec) per scheduler without pytest, for
# the `make bench-json` perf-regression harness and the CI artifact.


def _provenance() -> dict:
    """Where and on what this report was measured (JSON-safe).

    Throughput numbers are only comparable on like hardware, so the
    report records the git revision and CPU model alongside the data;
    the CI regression gate reads these to annotate failures.
    """
    import platform
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
        if rev and subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip():
            rev += "-dirty"
    except (OSError, subprocess.SubprocessError):
        rev = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": rev or "unknown",
        "cpu_model": cpu or platform.processor() or platform.machine() or "unknown",
        "platform": platform.platform(),
    }


def _measure_scheduler(scheduler: str, spec, rounds: int) -> dict:
    """Best-of-N wall time of one full Engine.run(); returns throughput."""
    import time

    config = experiment_config()
    best = float("inf")
    cycles = 0
    # one untimed warm-up run pays the trace-coalescing memoization and
    # any lazy imports so the timed rounds measure the steady state
    for i in range(rounds + 1):
        engine = Engine(config, make_scheduler(scheduler), make_model("dtbl"), [spec])
        t0 = time.perf_counter()
        result = engine.run()
        dt = time.perf_counter() - t0
        if i == 0:
            continue
        cycles = result.cycles
        if dt < best:
            best = dt
    return {
        "cycles": cycles,
        "best_ms": round(best * 1000, 3),
        "cycles_per_sec": round(cycles / best, 1),
    }


def main(argv=None) -> int:
    import argparse
    import json
    import platform
    import sys

    parser = argparse.ArgumentParser(
        description="Measure engine throughput per scheduler and write JSON."
    )
    parser.add_argument("-o", "--output", default="BENCH_simulator.json")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds; best is kept")
    parser.add_argument(
        "--schedulers",
        nargs="+",
        # the paper's four plus one composed policy (admission control on
        # top of LaPerm) so the throttle/admission path can't regress silently
        default=["rr", "tb-pri", "smx-bind", "adaptive-bind", "adaptive-bind+throttle"],
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="previously generated JSON to embed under 'baseline' (adds speedup)",
    )
    args = parser.parse_args(argv)

    import time

    # phase 1: workload generation (datagen + trace building), measured
    # separately so engine-loop work and datagen work can't be conflated
    t0 = time.perf_counter()
    w = load_benchmark("bfs-citation", scale="tiny")
    spec = w.kernel()
    datagen_ms = (time.perf_counter() - t0) * 1000
    report = {
        "generated_by": "benchmarks/bench_simulator.py",
        "workload": "bfs-citation scale=tiny seed=7 model=dtbl",
        "rounds": args.rounds,
        "python": platform.python_version(),
        "host": _provenance(),
        "schedulers": {},
    }
    # phase 2: engine throughput per scheduler (datagen excluded: each
    # timed window covers exactly one Engine.run())
    t0 = time.perf_counter()
    for sched in args.schedulers:
        report["schedulers"][sched] = _measure_scheduler(sched, spec, args.rounds)
        print(
            f"{sched:>14}: {report['schedulers'][sched]['cycles_per_sec']:>12,.1f} cycles/sec"
            f"  ({report['schedulers'][sched]['best_ms']} ms best of {args.rounds})",
            file=sys.stderr,
        )
    report["phases"] = {
        "datagen_ms": round(datagen_ms, 3),
        "engine_ms": round((time.perf_counter() - t0) * 1000, 3),
    }

    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)
        report["baseline"] = base["schedulers"]
        report["speedup"] = {
            sched: round(
                report["schedulers"][sched]["cycles_per_sec"]
                / base["schedulers"][sched]["cycles_per_sec"],
                2,
            )
            for sched in report["schedulers"]
            if sched in base["schedulers"]
        }
        for sched, x in report["speedup"].items():
            print(f"{sched:>14}: {x:.2f}x vs baseline", file=sys.stderr)

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
