#!/usr/bin/env python3
"""Load-test a ``repro serve`` instance and check its service invariants.

Spawns the server as a subprocess, then drives it with K concurrent
clients through three phases:

1. **cold** — every client submits a distinct spec plus one shared spec,
   so the run exercises real execution *and* request coalescing;
2. **warm** — every cold spec is resubmitted; the service must answer
   all of them from the result cache, executing **zero** new jobs
   (the zero-work invariant, observed via ``/metrics`` deltas);
3. **drain** — one last cold job is submitted and SIGTERM sent
   immediately; the server must exit 0 only after the job's record is
   durably in the on-disk result cache.

Prints a JSON report (client-side p50/p99 latency per phase, cache and
coalesce hit rates) and exits non-zero if any invariant is violated.

Usage:
    python scripts/service_load_test.py [--clients 4] [--jobs 2]
        [--cache-dir DIR] [--report out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.cache import ResultCache  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

BENCHMARKS = ["amr", "bht", "join-gaussian", "pre", "regx-random"]


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[idx]


def start_server(jobs: int, cache_dir: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--port", "0", "--jobs", str(jobs), "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise RuntimeError("server did not come up within 60s")


def run_phase(client: ServiceClient, submissions: list[dict], clients: int) -> dict:
    """Fan the submissions out over ``clients`` threads; returns latencies."""
    latencies: list[float] = []
    sources: list[str] = []
    errors: list[str] = []
    lock = threading.Lock()
    queue = list(submissions)

    def worker():
        while True:
            with lock:
                if not queue:
                    return
                kwargs = queue.pop()
            begin = time.monotonic()
            try:
                job = client.run(timeout=300, **kwargs)
            except (ServiceError, TimeoutError) as exc:
                with lock:
                    errors.append(str(exc))
                continue
            elapsed = time.monotonic() - begin
            with lock:
                latencies.append(elapsed)
                sources.append(job["source"])

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {
        "requests": len(submissions),
        "errors": errors,
        "p50_s": round(percentile(latencies, 50), 4),
        "p99_s": round(percentile(latencies, 99), 4),
        "sources": {s: sources.count(s) for s in sorted(set(sources))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--report", default=None, help="write the JSON report here too")
    args = parser.parse_args(argv)

    scratch = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-load-")
        cache_dir = scratch.name

    violations: list[str] = []
    report: dict = {"clients": args.clients, "workers": args.jobs}
    proc, port = start_server(args.jobs, cache_dir)
    drainer = threading.Thread(  # keep the server's stdout pipe drained
        target=lambda: [None for _ in proc.stdout], daemon=True
    )
    drainer.start()
    try:
        client = ServiceClient(port=port)
        cold = [
            {"benchmark": bench, "scheduler": "rr", "scale": "tiny", "seed": seed}
            for bench in BENCHMARKS
            for seed in (1, 2)
        ]
        shared = {"benchmark": "amr", "scheduler": "rr", "scale": "tiny", "seed": 99}

        # -- phase 1: cold + coalescing ------------------------------------
        report["cold"] = run_phase(client, cold + [shared] * args.clients, args.clients)
        executed_after_cold = client.metric_total("repro_service_jobs_executed_total")
        coalesced = client.metric_total("repro_service_coalesce_hits_total")
        report["cold"]["jobs_executed"] = executed_after_cold
        report["cold"]["coalesce_hits"] = coalesced
        if report["cold"]["errors"]:
            violations.append(f"cold phase errors: {report['cold']['errors'][:3]}")
        if executed_after_cold > len(cold) + 1:
            violations.append(
                f"cold phase executed {executed_after_cold} jobs for "
                f"{len(cold) + 1} distinct specs (coalescing broken?)"
            )

        # -- phase 2: warm must execute nothing ----------------------------
        report["warm"] = run_phase(client, cold + [shared], args.clients)
        executed_delta = (
            client.metric_total("repro_service_jobs_executed_total")
            - executed_after_cold
        )
        cache_hits = client.metric_total("repro_service_cache_hits_total")
        report["warm"]["jobs_executed_delta"] = executed_delta
        report["warm"]["cache_hits"] = cache_hits
        report["warm"]["cache_hit_rate"] = round(
            cache_hits / max(1, len(cold) + 1), 3
        )
        if report["warm"]["errors"]:
            violations.append(f"warm phase errors: {report['warm']['errors'][:3]}")
        if executed_delta != 0:
            violations.append(
                f"warm phase executed {executed_delta} jobs; the zero-work "
                "invariant requires every warm submission to be a cache hit"
            )

        # -- metrics surface ------------------------------------------------
        metrics_text = client.metrics_text()
        for needle in (
            "repro_service_queue_depth",
            'repro_service_job_latency_seconds_bucket{le="+Inf"',
            "repro_service_job_latency_seconds_count",
        ):
            if needle not in metrics_text:
                violations.append(f"/metrics is missing {needle!r}")

        # -- phase 3: SIGTERM drains before exit ----------------------------
        final = client.submit("join-uniform", "rr", scale="tiny", seed=3)
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=120)
        report["drain"] = {"exit_code": exit_code, "final_job": final["id"]}
        if exit_code != 0:
            violations.append(f"server exited {exit_code} on SIGTERM")
        record = ResultCache(cache_dir).load(final["cache_key"])
        if final["state"] in ("queued", "running") and record is None:
            violations.append(
                "SIGTERM did not drain: the in-flight job's record is not in "
                "the result cache"
            )
        report["drain"]["record_persisted"] = record is not None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        if scratch is not None:
            scratch.cleanup()

    report["violations"] = violations
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if violations:
        print(f"FAIL: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("OK: all service invariants hold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
