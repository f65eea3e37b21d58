"""Simulator micro-benchmarks: raw engine throughput.

These are genuine timing benchmarks (multiple rounds) — useful to catch
performance regressions in the cycle loop, the memory hierarchy, and the
dispatch stage.
"""

from pathlib import Path

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.engine import Engine
from repro.harness.registry import experiment_config, load_benchmark
from repro.memory.cache import Cache
from repro.memory.coalescer import coalesce
from repro.memory.hierarchy import MemoryHierarchy
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

#: the workload of a plain scheduler row, as (benchmark, scale, model)
DEFAULT_WORKLOAD = ("bfs-citation", "tiny", "dtbl")

#: a row on another workload, named ``scheduler@benchmark/scale/model``:
#: sssp-cage15 ``small`` under CDP holds a KMU backlog of hundreds of
#: device kernels and saturates the DRAM queue, paths bfs-citation
#: ``tiny`` never reaches
CDP_ROW = "adaptive-bind@sssp-cage15/small/cdp"

#: a row prefixed ``cold:`` times the cold path as a first ``repro grid``
#: cell pays it: datagen and trace build, the trace store into an empty
#: workload cache, and the first engine run of that trace
COLD_ROW = "cold:adaptive-bind@clr-graph500/small/dtbl"
#: the cold row whose trace is nearly all range accesses, which the
#: builder lowers arithmetically rather than through the coalescer
COLD_RUNS_ROW = "cold:adaptive-bind@amr/small/dtbl"
COLD_PREFIX = "cold:"

#: a row prefixed ``walk:`` times the L1/L2/DRAM walk alone: it records
#: one engine run's memory accesses, then replays them against a fresh
#: ``MemoryHierarchy``
WALK_ROW = "walk:rr@sssp-cage15/small/cdp"
WALK_PREFIX = "walk:"

#: a row prefixed ``load:`` times the trace-load layer alone: decoding one
#: stored trace record (``spec_from_bytes``) into the arena its bodies view,
#: as a warm run that finds the trace in the workload cache does
LOAD_ROW = "load:bfs-citation/small"
LOAD_PREFIX = "load:"

#: a row prefixed ``store:`` times the trace-store layer alone: encoding one
#: built trace (``spec_to_bytes``) into the record a cold run writes to the
#: workload cache
STORE_ROW = "store:bfs-citation/small"
STORE_PREFIX = "store:"
#: the record digest the format pins per trace (tests/test_serialize.py)
RECORD_DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "record_digests.json"

#: rows prefixed ``start:`` time a fresh interpreter from start to exit,
#: the wait before any simulation starts: importing the CLI, and a warm
#: tiny ``repro grid`` on a result cache the row fills untimed first.
#: Each row also records whether the process imported numpy, which no
#: warm path needs (docs/harness.md, "What a run imports")
START_PREFIX = "start:"
START_ROWS = {
    "start:import": ["-c", "import repro.cli"],
    "start:warm-grid": [
        "-m", "repro.cli", "grid", "--scale", "tiny", "--benchmarks", "amr",
        "clr-graph500", "--models", "dtbl", "--jobs", "1",
    ],
}


def parse_row(row: str) -> tuple[str, tuple[str, str, str]]:
    """``[cold:|walk:]sched[@benchmark/scale/model]`` -> (scheduler, workload)."""
    scheduler, _, where = row.removeprefix(COLD_PREFIX).removeprefix(WALK_PREFIX).partition("@")
    if not where:
        return scheduler, DEFAULT_WORKLOAD
    benchmark, scale, model = where.split("/")
    return scheduler, (benchmark, scale, model)


def _measure_start(row: str, rounds: int) -> dict:
    """Best-of-N wall time of a fresh interpreter running ``row``'s
    command, on a result cache its untimed first run fills."""
    import os
    import subprocess
    import sys
    import tempfile
    import time
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    argv = [sys.executable, *START_ROWS[row]]
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR=tmp)

        def run(*flags: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [argv[0], *flags, *argv[1:]], env=env, cwd=tmp,
                capture_output=True, text=True, check=True,
            )

        run()  # fills the cache
        # -X importtime lists every module a (still untimed) warm run imports
        probe = run("-X", "importtime")
        numpy_loaded = any(
            line.rsplit("|", 1)[-1].strip() == "numpy" for line in probe.stderr.splitlines()
        )
        for _ in range(rounds):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
    return {"best_ms": round(best * 1000, 3), "numpy_loaded": numpy_loaded}


def _measure_load(row: str, rounds: int) -> dict:
    """Best-of-N wall time of decoding one benchmark's trace record.

    The decoded trace must encode back to the very record it was read
    from: the built and the decoded trace have one record digest.
    """
    import hashlib
    import time

    from repro.gpu.serialize import spec_from_bytes, spec_to_bytes

    benchmark, scale = row.removeprefix(LOAD_PREFIX).split("/")
    record = spec_to_bytes(load_benchmark(benchmark, scale=scale).kernel())
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        decoded = spec_from_bytes(record)
        best = min(best, time.perf_counter() - t0)
    digest = hashlib.sha256(record).hexdigest()
    if hashlib.sha256(spec_to_bytes(decoded)).hexdigest() != digest:
        raise RuntimeError(f"{row}: the decoded trace does not have the built trace's digest")
    return {"best_ms": round(best * 1000, 3), "record_mb": round(len(record) / 1e6, 3)}


def _measure_store(row: str, rounds: int) -> dict:
    """Best-of-N wall time of encoding one benchmark's built trace.

    The record must be the one the format pins for that trace in
    tests/record_digests.json, so an encoder that writes other bytes fails
    the row instead of timing them.
    """
    import hashlib
    import json
    import time
    import zlib

    from repro.gpu.serialize import spec_to_bytes

    benchmark, scale = row.removeprefix(STORE_PREFIX).split("/")
    spec = load_benchmark(benchmark, scale=scale).kernel()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        record = spec_to_bytes(spec)
        best = min(best, time.perf_counter() - t0)
    with open(RECORD_DIGESTS) as fh:
        pinned = json.load(fh).get(f"{benchmark}@{scale}")
    # the pins hash the prefix and the decompressed stream: zlib's output
    # may differ between zlib versions, the stream may not
    digest = hashlib.sha256(record[:12] + zlib.decompress(record[12:])).hexdigest()
    if digest != pinned:
        raise RuntimeError(f"{row}: the record does not match the built trace's pinned digest")
    return {"best_ms": round(best * 1000, 3), "record_mb": round(len(record) / 1e6, 3)}


def test_store_row_writes_the_pinned_record():
    assert _measure_store(f"{STORE_PREFIX}bfs-citation/tiny", rounds=1)["record_mb"] > 0


def test_load_row_decodes_the_built_trace():
    assert _measure_load(f"{LOAD_PREFIX}bfs-citation/tiny", rounds=1)["record_mb"] > 0


def test_start_rows_load_no_numpy():
    for row in START_ROWS:
        assert _measure_start(row, rounds=1)["numpy_loaded"] is False, row


def _speedup(new: dict, old: dict) -> float:
    """How many times faster ``new`` ran than ``old``: the throughput
    ratio, or the wall-time ratio for a ``start:``, ``load:`` or ``store:``
    row (no throughput)."""
    if "cycles_per_sec" in new:
        return new["cycles_per_sec"] / old["cycles_per_sec"]
    return old["best_ms"] / new["best_ms"]


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


def _measure_scheduler(scheduler: str, spec, rounds: int, model: str = "dtbl") -> dict:
    """Best-of-N wall time of one full Engine.run(); returns throughput."""
    import time

    config = experiment_config()
    best = float("inf")
    cycles = 0
    # one untimed warm-up run pays the trace-coalescing memoization and
    # any lazy imports so the timed rounds measure the steady state
    for i in range(rounds + 1):
        engine = Engine(config, make_scheduler(scheduler), make_model(model), [spec])
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


def _measure_cold(scheduler: str, workload: tuple[str, str, str], rounds: int) -> dict:
    """Best-of-N wall time of build + trace store + first Engine.run().

    Every round builds a fresh workload object into a fresh workload
    cache, so no trace, lowering or record survives from the last one.
    """
    import tempfile
    import time

    from repro.harness.workload_cache import WorkloadCache

    benchmark, scale, model = workload
    config = experiment_config()
    best = float("inf")
    cycles = 0
    for _ in range(rounds):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            workload_obj = load_benchmark(benchmark, scale=scale)
            spec = workload_obj.kernel()
            WorkloadCache(tmp).store(benchmark, scale, workload_obj.seed, spec)
            engine = Engine(config, make_scheduler(scheduler), make_model(model), [spec])
            cycles = engine.run().cycles
            best = min(best, time.perf_counter() - t0)
    return {
        "cycles": cycles,
        "best_ms": round(best * 1000, 3),
        "cycles_per_sec": round(cycles / best, 1),
    }


def record_walk(scheduler: str, spec, model: str = "dtbl") -> tuple[list[tuple], object]:
    """Run the engine once and record every memory walk call as
    ``(smx, lines, begin, end, now, is_write)``; also return the engine."""
    engine = Engine(experiment_config(), make_scheduler(scheduler), make_model(model), [spec])
    calls: list[tuple] = []
    record = calls.append
    real_accessor = engine.memory.accessor

    def accessor(smx_id):
        walk = real_accessor(smx_id)

        def recorded(lines, begin, end, now, is_write=False):
            record((smx_id, lines, begin, end, now, is_write))
            return walk(lines, begin, end, now, is_write)

        return recorded

    engine.memory.accessor = accessor
    engine.run()
    return calls, engine


def replay_walk(calls: list[tuple], config) -> MemoryHierarchy:
    """Replay recorded walk calls against a fresh hierarchy."""
    memory = MemoryHierarchy(config)
    walks = [memory.accessor(smx) for smx in range(config.num_smx)]
    for smx, lines, begin, end, now, is_write in calls:
        walks[smx](lines, begin, end, now, is_write)
    return memory


def _measure_walk(scheduler: str, spec, rounds: int, model: str = "dtbl") -> dict:
    """Best-of-N wall time of replaying one engine run's memory walk."""
    import time

    calls, engine = record_walk(scheduler, spec, model)
    config = engine.config
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        memory = replay_walk(calls, config)
        best = min(best, time.perf_counter() - t0)
    # the replay must rebuild the state the engine's own walk left behind
    if (
        memory.dram_transactions() != engine.memory.dram_transactions()
        or memory.l2.stats != engine.memory.l2.stats
    ):
        raise RuntimeError("walk replay diverged from the recorded engine run")
    lines = sum(end - begin for _, _, begin, end, _, _ in calls)
    return {
        "cycles": engine.now,
        "calls": len(calls),
        "lines": lines,
        "best_ms": round(best * 1000, 3),
        "cycles_per_sec": round(engine.now / best, 1),
        "lines_per_sec": round(lines / best, 1),
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
        # top of LaPerm) so the throttle/admission path can't regress
        # silently, the CDP row for the KMU backlog and DRAM queue, the
        # cold rows for build, trace store and first run, the walk row
        # for the L1/L2/DRAM walk alone, the load row for trace decoding and
        # the store row for trace encoding
        default=[
            "rr",
            "tb-pri",
            "smx-bind",
            "adaptive-bind",
            "adaptive-bind+throttle",
            CDP_ROW,
            COLD_ROW,
            COLD_RUNS_ROW,
            WALK_ROW,
            LOAD_ROW,
            STORE_ROW,
            *START_ROWS,
        ],
        help="rows to measure: a scheduler (bfs-citation tiny/dtbl), "
        "scheduler@benchmark/scale/model, cold:scheduler@benchmark/scale/model "
        "(build + trace store + first run, each round on a fresh cache), "
        "walk:scheduler@benchmark/scale/model (one run's memory walk, replayed), "
        "load:benchmark/scale (one trace record decoded), "
        "store:benchmark/scale (one built trace encoded), "
        f"or one of {', '.join(START_ROWS)} (a fresh interpreter, start to exit)",
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
    rows = {
        row: parse_row(row)
        for row in args.schedulers
        if not row.startswith((START_PREFIX, LOAD_PREFIX, STORE_PREFIX))
    }
    t0 = time.perf_counter()
    specs = {
        (benchmark, scale): load_benchmark(benchmark, scale=scale).kernel()
        for row, (_, (benchmark, scale, _)) in rows.items()
        if not row.startswith(COLD_PREFIX)
    }
    datagen_ms = (time.perf_counter() - t0) * 1000
    report = {
        "generated_by": "benchmarks/bench_simulator.py",
        "workload": "bfs-citation scale=tiny seed=7 model=dtbl, "
        "unless the row names scheduler@benchmark/scale/model; a cold: row "
        "times build + trace store + first run on a fresh workload cache; a "
        "walk: row times a replay of one run's memory walk calls; a load: row "
        "times decoding one stored trace record; a store: row times encoding "
        "one built trace; a start: row times a fresh "
        "interpreter running its command, start to exit",
        "rounds": args.rounds,
        "python": platform.python_version(),
        "host": _provenance(),
        "schedulers": {},
    }
    # phase 2: engine throughput per scheduler (datagen excluded: each
    # timed window covers exactly one Engine.run(); a cold row's window
    # covers its build, store and first run instead, a load row's one
    # record decode, a store row's one record encode, and a start row's a
    # whole fresh process)
    t0 = time.perf_counter()
    for sched in args.schedulers:
        if sched.startswith(START_PREFIX):
            row = _measure_start(sched, args.rounds)
        elif sched.startswith(LOAD_PREFIX):
            row = _measure_load(sched, args.rounds)
        elif sched.startswith(STORE_PREFIX):
            row = _measure_store(sched, args.rounds)
        else:
            scheduler, (benchmark, scale, model) = rows[sched]
            if sched.startswith(COLD_PREFIX):
                row = _measure_cold(scheduler, (benchmark, scale, model), args.rounds)
            elif sched.startswith(WALK_PREFIX):
                row = _measure_walk(scheduler, specs[benchmark, scale], args.rounds, model)
            else:
                row = _measure_scheduler(scheduler, specs[benchmark, scale], args.rounds, model)
        report["schedulers"][sched] = row
        if "cycles_per_sec" in row:
            rate = f"{row['cycles_per_sec']:>12,.1f} cycles/sec"
        elif "record_mb" in row:
            rate = f"{row['record_mb']} MB record"
        else:
            rate = f"numpy loaded: {row['numpy_loaded']}"
        print(f"{sched:>14}: {rate}  ({row['best_ms']} ms best of {args.rounds})", file=sys.stderr)
    report["phases"] = {
        "datagen_ms": round(datagen_ms, 3),
        "engine_ms": round((time.perf_counter() - t0) * 1000, 3),
    }

    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)
        report["baseline"] = base["schedulers"]
        report["speedup"] = {
            sched: round(_speedup(report["schedulers"][sched], base["schedulers"][sched]), 2)
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
