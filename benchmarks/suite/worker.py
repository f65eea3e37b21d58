"""Child-process entry of the benchmark suite: one fresh process per round.

``python3 worker.py '<json job>'`` runs one job and prints one JSON line
as its last line of output. Every job reports ``ready``, the
``time.monotonic()`` reading taken once its imports are done; the parent
subtracts its own reading taken just before the spawn to get the set-up
time (CLOCK_MONOTONIC is one clock for every process on Linux).

Every timed stretch is bracketed by :func:`calibrate` readings of the
host's current slowdown, so the parent can report timings adjusted to a
fixed host speed (see :func:`calibrate`).

Modes:

* ``probe``  -- import what the ``replay`` job imports, then exit (set-up
  time only);
* ``grid``   -- one ``run_grid`` through ``make_executor(jobs=1, cache=...)``,
  the path ``repro grid`` takes;
* ``replay`` -- build traces once, warm up through ``run_grid``, then time
  ``Engine.run`` over the replay cells (each cell timed on its own) for
  rounds until the budget is spent, plus an optional traced round;
* ``serve``  -- ``repro serve`` with the tracer installed in the server
  and in every worker process it forks.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

#: the modules the replay job imports before it is ready; a probe imports
#: the same set, so every replay set-up sample times the same work
REPLAY_MODULES = (
    "repro.core",
    "repro.dynpar",
    "repro.gpu.engine",
    "repro.harness.execution",
    "repro.harness.registry",
    "repro.harness.runner",
)


#: seconds :func:`calibrate`'s loop takes at the reference host speed (the
#: fastest it ran on the 2-vCPU "Intel(R) Xeon(R) Processor" VM the
#: baseline was recorded on was 37-47 ms)
CALIBRATION_S = 0.040


def import_replay_modules() -> None:
    for name in REPLAY_MODULES:
        importlib.import_module(name)


def calibrate() -> float:
    """The host's slowdown now: the time of a fixed pure-Python loop of
    small-int dict reads and writes, the engine's staple operations, over
    :data:`CALIBRATION_S`.

    On a shared host the speed a process gets drifts by up to 2x over tens
    of seconds while it holds its core the whole time (process time equals
    wall time), and engine time follows the loop's time. A timing divided
    by the slowdown read next to it is the time at the reference speed.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return (time.perf_counter() - start) / CALIBRATION_S


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB (10**6 bytes)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")


def _stats_table(grid) -> dict:
    return {"|".join(key): stats.to_dict() for key, stats in grid.stats.items()}


def run_grid_job(job: dict) -> dict:
    from repro.harness.execution import make_executor
    from repro.harness.registry import load_benchmark
    from repro.harness.runner import run_grid

    ready = time.monotonic()
    before = calibrate()
    tracer = Tracer(job["round"]).install() if job["spans"] else None
    start = time.perf_counter()
    with tracer.span("round") if tracer else nullcontext():
        # what `repro grid --jobs 1 --cache-dir DIR --benchmarks ...` runs
        executor = make_executor(jobs=1, cache=job["cache"])
        workloads = [
            load_benchmark(b, scale=job["scale"], seed=job["seed"]) for b in job["benchmarks"]
        ]
        grid = run_grid(
            workloads, schedulers=job["schedulers"], models=job["models"], executor=executor
        )
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        tracer.dump(job["spans"], "grid")
    return {
        "ready": ready,
        "wall": wall,
        "adjusted": wall / ((before + calibrate()) / 2),
        "setup_slowdown": before,
        "stats": _stats_table(grid),
        "hits": executor.hits,
        "misses": executor.misses,
        "rss_mb": vm_hwm_mb(),
    }


def run_replay_job(job: dict) -> dict:
    import_replay_modules()
    ready = time.monotonic()
    setup_slowdown = calibrate()

    from repro.core import make_scheduler
    from repro.dynpar import make_model
    from repro.gpu.engine import Engine
    from repro.harness.execution import DEFAULT_MAX_CYCLES, make_executor
    from repro.harness.registry import experiment_config, load_benchmark
    from repro.harness.runner import run_grid

    workloads = {b: load_benchmark(b, scale=job["scale"], seed=job["seed"]) for b in job["benchmarks"]}
    kernels = {b: w.kernel() for b, w in workloads.items()}
    # the untimed warm-up goes through the grid path: it interns every
    # compiled body and gives the reference the replay cells must match
    warmup = run_grid(
        list(workloads.values()), schedulers=["rr"], models=["dtbl"],
        executor=make_executor(jobs=1),
    )
    config = experiment_config()

    def one_round() -> dict:
        cells, raw, adjusted = {}, {}, {}
        slowdown = calibrate()
        for benchmark, scheduler, model in job["cells"]:
            engine = Engine(
                config, make_scheduler(scheduler), make_model(model), [kernels[benchmark]],
                max_cycles=DEFAULT_MAX_CYCLES,
            )
            key = f"{benchmark}|{scheduler}|{model}"
            start = time.perf_counter()
            stats = engine.run()
            raw[key] = time.perf_counter() - start
            before, slowdown = slowdown, calibrate()
            adjusted[key] = raw[key] / ((before + slowdown) / 2)
            cells[key] = stats.to_dict()
        return {
            "wall": sum(raw.values()),
            "adjusted": sum(adjusted.values()),
            "times": adjusted,
            "stats": cells,
        }

    rounds = run_rounds(one_round, job["budget"], job["min_rounds"])
    rss = vm_hwm_mb()
    traced = None
    if job["spans"]:
        tracer = Tracer(len(rounds)).install()
        with tracer.span("round"):
            traced = one_round()
        tracer.uninstall()
        tracer.dump(job["spans"], "replay")
    return {
        "ready": ready,
        "setup_slowdown": setup_slowdown,
        "rounds": rounds,
        "traced": traced,
        "reference": _stats_table(warmup),
        "rss_mb": rss,
    }


def run_rounds(one_round, budget: float, min_rounds: int) -> list:
    """Run rounds until ``budget`` seconds are spent (at least
    ``min_rounds``). A round starts while half of the last one still fits,
    so a slightly slower machine does not lose a whole round."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - began
        if len(rounds) >= min_rounds and elapsed + last / 2 > budget:
            return rounds


def run_serve_job(job: dict) -> None:
    """``repro serve`` with spans recorded in the server and its workers."""
    import repro.service.workers as workers
    from repro.cli import main as repro_main

    tracer = Tracer(job["round"]).install()
    worker_main = workers._service_worker_main

    def traced_worker_main(worker_id, *args):
        # forked from the server: start from an empty span list
        tracer.spans.clear()
        try:
            worker_main(worker_id, *args)
        finally:
            tracer.dump(f"{job['spans']}.worker{worker_id}", "service-worker")

    tracer.patch(workers, "_service_worker_main", traced_worker_main)
    try:
        repro_main(["serve", *job["argv"]])
    finally:
        tracer.dump(f"{job['spans']}.server", "service-server")


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    mode = job["mode"]
    if mode == "serve":
        run_serve_job(job)
        return 0
    if mode == "probe":
        import_replay_modules()
        out = {"ready": time.monotonic(), "setup_slowdown": calibrate()}
    elif mode == "grid":
        out = run_grid_job(job)
    elif mode == "replay":
        out = run_replay_job(job)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
