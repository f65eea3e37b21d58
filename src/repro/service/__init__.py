"""Simulation-as-a-service: a long-lived, cache-resident job server.

After nine PRs every entry point was a one-shot CLI process; this
package keeps the harness warm and serves many concurrent clients
against one result/workload cache. The shapes are LaPerm's own —
admission queues, priority ordering, binding work to warm state,
backpressure under bursty dynamically-generated load — applied one level
up, to simulation jobs across worker processes.

* :mod:`repro.service.jobs` — the :class:`Job` lifecycle and event log
* :mod:`repro.service.broker` — bounded priority admission, request
  coalescing, warm-cache fast path, metrics, over the persistent worker
  fleet of :mod:`repro.harness.pool` (the same pool ``repro grid`` uses)
* :mod:`repro.service.server` — the asyncio HTTP/SSE front end
* :mod:`repro.service.client` — the blocking client used by the CLI

See docs/service.md.
"""

import sys

from repro.harness import pool
from repro.harness.pool import JobTimeout, WorkerCrashed, WorkerFleet
from repro.service.broker import AdmissionError, Broker, ServiceUnavailable
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobEvent,
    estimate_cost,
)
from repro.service.server import DEFAULT_PORT, ServiceServer, ServiceThread, serve

# benchmarks/suite/worker.py traces the service's workers by patching
# ``repro.service.workers._service_worker_main``, the fleet's old home;
# that name stays an alias of the pool module, so the patch reaches it.
sys.modules[__name__ + ".workers"] = pool

__all__ = [
    "AdmissionError",
    "Broker",
    "CANCELLED",
    "DEFAULT_PORT",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobEvent",
    "JobTimeout",
    "QUEUED",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceThread",
    "ServiceUnavailable",
    "TERMINAL_STATES",
    "WorkerCrashed",
    "WorkerFleet",
    "estimate_cost",
    "serve",
]
