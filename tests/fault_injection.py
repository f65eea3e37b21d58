"""Fault injection for the worker pool: a slow job and a SIGKILL from outside.

Patch :func:`slow_worker_run` over ``repro.harness.execution._worker_run``
before the pool forks, and every job logs its worker's pid to the file
named by ``$REPRO_TEST_SLOW_LOG``, then sleeps before it runs. That gives
:func:`kill_first_busy_worker` a window in which the worker is known to
be busy, so the kill lands mid-job rather than between jobs.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

from repro.harness import execution

SLOW_LOG_ENV = "REPRO_TEST_SLOW_LOG"

#: the unpatched job runner, taken before any test patches it
_REAL_WORKER_RUN = execution._worker_run


def slow_worker_run(payload):
    """Log this worker's pid, sleep 0.5 s, then run the job."""
    with open(os.environ[SLOW_LOG_ENV], "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()}\n")
    time.sleep(0.5)
    return _REAL_WORKER_RUN(payload)


def logged_jobs(log: Path) -> list[int]:
    """The worker pid of every job started so far, in start order."""
    if not log.exists():
        return []
    return [int(line) for line in log.read_text(encoding="utf-8").split()]


def kill_first_busy_worker(log: Path, delay: float) -> threading.Thread:
    """Start a thread that SIGKILLs the first worker to log a job,
    ``delay`` seconds after it logged (so while it sleeps in the job)."""

    def kill() -> None:
        end = time.monotonic() + 60
        while not logged_jobs(log) and time.monotonic() < end:
            time.sleep(0.01)
        jobs = logged_jobs(log)
        if jobs:
            time.sleep(delay)
            os.kill(jobs[0], signal.SIGKILL)

    thread = threading.Thread(target=kill, name="kill-busy-worker", daemon=True)
    thread.start()
    return thread
