"""The four workloads of the benchmark suite.

Each driver runs untimed preparation, then timed rounds until the
seconds budget is spent, then (when asked) one traced round, and returns
an :class:`Outcome` holding the raw samples and every output mismatch it
found. Inputs come only from ``Settings.seed``.

* ``grid-cold``     -- ``run_grid`` at ``small`` over clr-graph500 and amr
  x the four paper schedulers x dtbl, each round a fresh process on an
  empty cache: datagen, trace-store writes, lowering, the engine and
  result writes all do real work.
* ``grid-warm``     -- the same grid, each round a fresh process on the
  cache the last cold round filled: the cache and execution layers do all
  the work and no engine is built.
* ``replay``        -- one process builds the bfs-citation and sssp-cage15
  traces, warms up, then times ``Engine.run`` over the replay cells, each
  cell on its own.
* ``service-mixed`` -- ``repro serve --jobs 1`` on a cache pre-filled with
  12 tiny specs; two closed-loop clients send a seeded half-warm,
  half-cold mix (an assumed mix, not one recorded from users) and observe
  completion over SSE.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from worker import run_rounds, vm_hwm_mb

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

PAPER_SCHEDULERS = ("rr", "tb-pri", "smx-bind", "adaptive-bind")
#: R-MAT input and the low-locality input: the two Table II inputs whose
#: cold small grid fits several rounds in one run (bfs-citation and
#: sssp-cage15 take ~10 s each and are measured by replay instead)
GRID_BENCHMARKS = ("clr-graph500", "amr")
REPLAY_BENCHMARKS = ("bfs-citation", "sssp-cage15")
REPLAY_CELLS = (
    ("bfs-citation", "rr", "dtbl"),
    ("bfs-citation", "adaptive-bind", "dtbl"),
    ("sssp-cage15", "rr", "dtbl"),
    ("sssp-cage15", "adaptive-bind", "dtbl"),
    ("sssp-cage15", "rr", "cdp"),
    ("sssp-cage15", "adaptive-bind", "cdp"),
)
#: set-up samples of the replay workload besides the replay process itself
REPLAY_PROBES = 6
SERVICE_BENCHMARKS = ("bfs-citation", "sssp-cage15", "clr-graph500", "amr")
SERVICE_SCHEDULERS = ("rr", "tb-pri", "adaptive-bind")
#: closed-loop client threads; each holds at most one connection
CLIENTS = 2
#: no single child process may outlive this (the whole run must end in 180 s)
CHILD_TIMEOUT = 150


class RoundError(RuntimeError):
    """A child process failed; the run cannot produce a result."""


@dataclass(frozen=True)
class Settings:
    seed: int
    #: seconds of untraced rounds (at least one round always runs)
    budget: float
    #: input scale of the grid and replay workloads
    scale: str
    #: requests per service round, half warm and half cold
    service_requests: int
    traced: bool


@dataclass
class Outcome:
    """Samples and check results of one workload. ``setups``, ``walls``
    and ``instr_rates`` are adjusted to the reference host speed
    (``worker.calibrate``), except on service-mixed, where they are as
    timed; ``raw_setups`` and ``raw_walls`` are as timed."""

    name: str
    setups: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    instr_rates: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: workload-specific printed metrics: name -> (samples, unit)
    extra: dict = field(default_factory=dict)
    #: mean adaptive-bind / rr normalized IPC over the inputs (simulated)
    speedup: float = 0.0
    #: stats table every round must reproduce
    reference: dict | None = None
    #: the traced round: wall seconds, spans, service records
    traced: dict | None = None
    #: grid-cold's last cache, which grid-warm reads in a full set
    cache_dir: Path | None = None
    #: replay only: each cell's Engine.run seconds, one sample per round
    cell_walls: dict = field(default_factory=dict)

    def add_setup(self, raw: float, slowdown: float) -> None:
        self.raw_setups.append(raw)
        self.setups.append(raw / slowdown)

    def add_round(self, raw: float, adjusted: float, stats: dict, what: str) -> None:
        """Record one round's wall time, as timed and adjusted, and its
        results, checking they match the first round's."""
        self.raw_walls.append(raw)
        self.walls.append(adjusted)
        self.instr_rates.append(sum(s["instructions"] for s in stats.values()) / adjusted)
        self.attempted += len(stats)
        self.expect_stats(stats, f"{what} {len(self.walls)}")

    def expect_stats(self, stats: dict, what: str) -> None:
        if self.reference is None:
            self.reference = stats
        elif stats != self.reference:
            differ = sorted(k for k in stats.keys() | self.reference.keys()
                            if stats.get(k) != self.reference.get(k))
            self.problems.append(f"{self.name}: {what} stats differ in {differ[:4]}")


def ipc_speedup(stats: dict, benchmarks, model: str = "dtbl") -> float:
    """Mean adaptive-bind over rr IPC across ``benchmarks``."""
    ratios = []
    for benchmark in benchmarks:
        base = stats[f"{benchmark}|rr|{model}"]
        subject = stats[f"{benchmark}|adaptive-bind|{model}"]
        ratios.append((subject["instructions"] / subject["cycles"])
                      / (base["instructions"] / base["cycles"]))
    return sum(ratios) / len(ratios)


class Context:
    """Scratch space and child-process plumbing of one suite run. All
    files live under ``out_dir`` inside the checkout; every child process
    inherits ``TMPDIR`` pointing there and ``src`` on its path."""

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        os.environ["TMPDIR"] = str(self.tmp)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.tmp))

    def spans_path(self, workload: str) -> str:
        return str(self.tmp / f"spans-{workload}")

    def load_spans(self, workload: str) -> list[dict]:
        """Every span file a traced process wrote for ``workload``."""
        spans = []
        for path in sorted(self.tmp.glob(f"spans-{workload}*")):
            record = json.loads(path.read_text(encoding="utf-8"))
            for span in record["spans"]:
                span["pid"] = record["pid"]
                span["process"] = record["label"]
                span["workload"] = workload
                spans.append(span)
        return spans

    def worker(self, job: dict) -> tuple[dict, float]:
        """Run one worker job in a fresh process; returns its result and
        its set-up time as timed (spawn until imports are done)."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(SUITE / "worker.py"), json.dumps(job)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            raise RoundError(f"{job['mode']} worker ran past {CHILD_TIMEOUT}s") from None
        if proc.returncode != 0:
            raise RoundError(
                f"{job['mode']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.splitlines()[-1])
        return result, result["ready"] - spawned

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- grid-cold / grid-warm -----------------------------------------------------


def _grid_job(s: Settings, cache: Path, round_id: int, spans: str | None = None) -> dict:
    return {
        "mode": "grid",
        "cache": str(cache),
        "scale": s.scale,
        "seed": s.seed,
        "benchmarks": list(GRID_BENCHMARKS),
        "schedulers": list(PAPER_SCHEDULERS),
        "models": ["dtbl"],
        "round": round_id,
        "spans": spans,
    }


def grid_cold(ctx: Context, s: Settings) -> Outcome:
    out = Outcome("grid-cold")
    caches: list[Path] = []

    def one_round():
        cache = ctx.fresh_dir("grid-cold")
        result, setup = ctx.worker(_grid_job(s, cache, len(out.walls)))
        for old in caches:  # keep only the newest filled cache
            shutil.rmtree(old)
        caches[:] = [cache]
        out.add_setup(setup, result["setup_slowdown"])
        out.rss.append(result["rss_mb"])
        out.add_round(result["wall"], result["adjusted"], result["stats"], "round")
        if result["hits"]:
            out.problems.append(f"grid-cold: a cold round had {result['hits']} cache hits")

    run_rounds(one_round, s.budget, 1)
    out.cache_dir = caches[-1]
    out.speedup = ipc_speedup(out.reference, GRID_BENCHMARKS)
    if s.traced:
        result, _ = ctx.worker(
            _grid_job(s, ctx.fresh_dir("grid-cold"), len(out.walls), ctx.spans_path(out.name))
        )
        out.attempted += len(result["stats"])
        out.expect_stats(result["stats"], "traced round")
        out.traced = {"wall": result["wall"], "adjusted": result["adjusted"],
                      "spans": ctx.load_spans(out.name)}
    return out


def grid_warm(ctx: Context, s: Settings, cold: Outcome | None = None) -> Outcome:
    out = Outcome("grid-warm")
    if cold is None:
        # stand-alone run: fill the cache the way grid-cold does (untimed)
        cache = ctx.fresh_dir("grid-warm")
        result, _ = ctx.worker(_grid_job(s, cache, -1))
        out.reference = result["stats"]
    else:
        cache = cold.cache_dir
        out.reference = cold.reference
    cells = len(out.reference)

    def check_hits(result, what):
        if result["hits"] != cells or result["misses"]:
            out.problems.append(
                f"grid-warm: {what} hit {result['hits']}/{cells} cached results "
                f"({result['misses']} misses); the result-cache hit ratio must be 1.0"
            )

    def one_round():
        result, setup = ctx.worker(_grid_job(s, cache, len(out.walls)))
        out.add_setup(setup, result["setup_slowdown"])
        out.rss.append(result["rss_mb"])
        out.add_round(result["wall"], result["adjusted"], result["stats"], "warm round")
        check_hits(result, f"round {len(out.walls)}")

    run_rounds(one_round, s.budget, 1)
    out.speedup = ipc_speedup(out.reference, GRID_BENCHMARKS)
    if s.traced:
        result, _ = ctx.worker(_grid_job(s, cache, len(out.walls), ctx.spans_path(out.name)))
        out.attempted += cells
        out.expect_stats(result["stats"], "traced round")
        check_hits(result, "the traced round")
        out.traced = {"wall": result["wall"], "adjusted": result["adjusted"],
                      "spans": ctx.load_spans(out.name)}
    return out


# -- replay --------------------------------------------------------------------


def replay(ctx: Context, s: Settings) -> Outcome:
    out = Outcome("replay")
    # the replay process sets up once; probes that import the same
    # modules add set-up samples of the same work
    for _ in range(REPLAY_PROBES):
        result, setup = ctx.worker({"mode": "probe"})
        out.add_setup(setup, result["setup_slowdown"])
    result, setup = ctx.worker({
        "mode": "replay",
        "scale": s.scale,
        "seed": s.seed,
        "benchmarks": list(REPLAY_BENCHMARKS),
        "cells": [list(cell) for cell in REPLAY_CELLS],
        "budget": s.budget,
        "min_rounds": 1,
        "spans": ctx.spans_path(out.name) if s.traced else None,
    })
    out.add_setup(setup, result["setup_slowdown"])
    out.rss.append(result["rss_mb"])
    for round_ in result["rounds"]:
        out.add_round(round_["wall"], round_["adjusted"], round_["stats"], "round")
        for key, seconds in round_["times"].items():
            out.cell_walls.setdefault(key, []).append(seconds)
    # the replay cells must equal the same cells reached through run_grid
    for key, stats in result["reference"].items():
        if out.reference.get(key) != stats:
            out.problems.append(f"replay: {key} differs from the run_grid result")
    out.speedup = ipc_speedup(out.reference, REPLAY_BENCHMARKS)
    if result["traced"] is not None:
        out.attempted += len(REPLAY_CELLS)
        out.expect_stats(result["traced"]["stats"], "traced round")
        out.traced = {"wall": result["traced"]["wall"], "adjusted": result["traced"]["adjusted"],
                      "spans": ctx.load_spans(out.name)}
    return out


# -- service-mixed -------------------------------------------------------------


def _children(pid: int) -> list[int]:
    """Direct child processes of ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            children.append(int(entry))
    return children


def _start_traced_server(argv: list[str], spans: str, round_id: int):
    """``repro serve`` run through worker.py, which installs the tracer.
    Returns the process and its port."""
    job = {"mode": "serve", "argv": argv, "spans": spans, "round": round_id}
    proc = subprocess.Popen(
        [sys.executable, "-u", str(SUITE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    for line in proc.stdout:
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    proc.wait()
    raise RuntimeError("the traced server exited before listening")


class Server:
    """One ``repro serve --jobs 1 --port 0`` process, up until :meth:`stop`.

    Untraced servers are started by ``scripts/service_load_test.py``'s
    ``start_server``, the same launch the load test makes.
    """

    def __init__(self, cache: Path, spans: str | None, round_id: int) -> None:
        sys.path.insert(0, str(ROOT / "scripts"))
        from service_load_test import start_server

        spawned = time.monotonic()
        try:
            if spans is None:
                self.proc, self.port = start_server(1, str(cache))
            else:
                argv = ["--jobs", "1", "--port", "0", "--cache-dir", str(cache)]
                self.proc, self.port = _start_traced_server(argv, spans, round_id)
        except RuntimeError as exc:
            raise RoundError(f"repro serve did not come up: {exc}") from None
        self.setup = time.monotonic() - spawned
        # drain the server's output so it never blocks on a full pipe
        self._reader = threading.Thread(target=self.proc.stdout.read)
        self._reader.start()

    def rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes."""
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> int:
        """SIGTERM (the server drains), then wait for every process."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in _children(self.proc.pid):
                os.kill(pid, signal.SIGKILL)
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code


def closed_loop(port: int, requests: list) -> tuple[list[dict], float]:
    """Send ``requests`` from CLIENTS threads, each waiting for its job to
    finish (over SSE) before sending the next. Returns per-request
    records and the loop's wall time."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import TERMINAL_STATES

    client = ServiceClient(port=port, timeout=60)
    records: list = [None] * len(requests)
    order = iter(range(len(requests)))
    lock = threading.Lock()

    def drive():
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            kind, spec = requests[i]
            start = time.monotonic()
            try:
                job = client.submit(
                    spec.benchmark, spec.scheduler, spec.model, scale=spec.scale, seed=spec.seed
                )
                posted = time.monotonic()
                state = job["state"]
                if state not in TERMINAL_STATES:
                    for event in client.events(job["id"]):
                        state = event["state"]
                done = time.monotonic()
            except (ServiceError, OSError, ValueError, http.client.HTTPException) as exc:
                records[i] = {"kind": kind, "spec": spec, "error": f"{type(exc).__name__}: {exc}"}
                continue
            records[i] = {
                "kind": kind, "spec": spec, "id": job["id"], "state": state,
                "latency": done - start, "submit": posted - start,
            }

    threads = [threading.Thread(target=drive) for _ in range(CLIENTS)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    for i, record in enumerate(records):
        if record is None:  # the client thread died on an unexpected error
            kind, spec = requests[i]
            records[i] = {"kind": kind, "spec": spec, "error": "client thread died"}
    return records, wall


def _service_round(ctx, cache, requests, reference, spans=None, round_id=0) -> dict:
    from repro.gpu.serialize import stats_from_obj
    from repro.service.client import ServiceClient

    server = Server(cache, spans, round_id)
    try:
        records, wall = closed_loop(server.port, requests)
        client = ServiceClient(port=server.port, timeout=60)
        executed = client.metric_total("repro_service_jobs_executed_total")
        cache_hits = client.metric_total("repro_service_cache_hits_total")
        for record in records:
            if "id" in record:
                record["job"] = client.job(record["id"])
        rss = server.rss_mb()
    finally:
        code = server.stop()
    problems = []
    if code != 0:
        problems.append(f"service-mixed: repro serve exited {code} after SIGTERM")
    instructions = 0
    for record in records:
        job = record.get("job")
        if job is None:
            continue
        if job["state"] != "done" or job["stats"] is None:
            problems.append(f"service-mixed: job {job['id']} ended {job['state']}: {job['error']}")
            continue
        instructions += job["stats"]["instructions"]
        expected_source = "cache" if record["kind"] == "warm" else "executed"
        if job["source"] != expected_source:
            problems.append(
                f"service-mixed: {record['kind']} job {job['id']} came from {job['source']}"
            )
        if record["kind"] == "warm":
            got = stats_from_obj(job["stats"]).to_dict()
            if got != reference[record["spec"]].to_dict():
                problems.append(f"service-mixed: warm job {job['id']} differs from its cached result")
    done = [r for r in records if "job" in r]
    warm = sum(1 for r in done if r["kind"] == "warm")
    if executed != len(done) - warm or cache_hits != warm:
        problems.append(
            f"service-mixed: /metrics counted {executed:g} executions and {cache_hits:g} "
            f"cache hits for {len(done) - warm} cold and {warm} warm requests"
        )
    return {
        "setup": server.setup, "wall": wall, "records": records, "rss": rss,
        "instructions": instructions, "problems": problems,
        "executed": executed, "cache_hits": cache_hits,
    }


def service_mixed(ctx: Context, s: Settings) -> Outcome:
    from repro.gpu.serialize import stats_from_obj
    from repro.harness.execution import RunSpec, make_executor, run_spec
    from repro.harness.workload_cache import disable_workload_cache

    out = Outcome("service-mixed")
    rng = random.Random(s.seed)
    cache = ctx.fresh_dir("service")
    prefill = [
        RunSpec.create(b, scheduler, "dtbl", scale="tiny", seed=s.seed)
        for b in SERVICE_BENCHMARKS
        for scheduler in SERVICE_SCHEDULERS
    ]
    reference = make_executor(jobs=1, cache=cache).run(prefill)
    # every cold request gets its own seed, used by no other request, so
    # each one generates its input and executes
    fresh_seeds = itertools.count(s.seed * 100_000 + 1)

    def requests() -> list:
        """An assumed mix, not a recorded one: half repeats of the
        pre-filled specs, half the same specs with a never-seen seed."""
        half = s.service_requests // 2
        warm = [("warm", prefill[i % len(prefill)]) for i in range(half)]
        cold = [
            ("cold", RunSpec.create(
                spec.benchmark, spec.scheduler, "dtbl", scale="tiny", seed=next(fresh_seeds)))
            for spec in (prefill[i % len(prefill)] for i in range(half))
        ]
        mix = warm + cold
        rng.shuffle(mix)
        return mix

    ms = {name: [] for name in ("warm_ms", "cold_ms", "submit_ms", "queue_wait_ms", "exec_ms")}
    rates: list[float] = []
    checked: list = []

    def one_round():
        result = _service_round(ctx, cache, requests(), reference)
        # as timed: the work runs in the server's worker, where this
        # process cannot read the host's speed (see README.md)
        out.add_setup(result["setup"], 1.0)
        out.raw_walls.append(result["wall"])
        out.walls.append(result["wall"])
        out.instr_rates.append(result["instructions"] / result["wall"])
        out.rss.append(result["rss"])
        rates.append(len(result["records"]) / result["wall"])
        out.problems.extend(result["problems"])
        for record in result["records"]:
            out.attempted += 1
            if "error" in record:
                out.failed += 1
                continue
            ms[f"{record['kind']}_ms"].append(1000 * record["latency"])
            ms["submit_ms"].append(1000 * record["submit"])
            job = record["job"]
            if record["kind"] == "cold" and job["started_at"] is not None:
                ms["queue_wait_ms"].append(1000 * (job["started_at"] - job["submitted_at"]))
                ms["exec_ms"].append(1000 * (job["finished_at"] - job["started_at"]))
                if len(checked) < 2 and job["stats"] is not None:
                    checked.append((record["spec"], job["stats"]))

    run_rounds(one_round, s.budget, 1)
    out.extra = {name: (values, "ms") for name, values in ms.items()}
    out.extra["jobs_per_s"] = (rates, "1/s")
    stats = {f"{spec.benchmark}|{spec.scheduler}|{spec.model}": st.to_dict()
             for spec, st in reference.items()}
    out.speedup = ipc_speedup(stats, SERVICE_BENCHMARKS)
    # recompute two cold results here, from datagen up, and compare
    disable_workload_cache()
    for spec, served in checked:
        if run_spec(spec).to_dict() != stats_from_obj(served).to_dict():
            out.problems.append(f"service-mixed: served {spec.label()} differs from a local run")
    if s.traced:
        result = _service_round(
            ctx, cache, requests(), reference, ctx.spans_path(out.name), len(out.walls)
        )
        out.problems.extend(result["problems"])
        out.attempted += len(result["records"])
        out.failed += sum(1 for r in result["records"] if "error" in r)
        out.traced = {
            "wall": result["wall"],
            "adjusted": result["wall"],
            "spans": ctx.load_spans(out.name),
            "records": result["records"],
            "executed": result["executed"],
            "cache_hits": result["cache_hits"],
        }
    return out
