"""Admission control, request coalescing and dispatch for the service.

The broker is the single-threaded (one event loop) heart of the
service. Every submission passes through, in order:

1. **warm-cache fast path** — if the spec's result is already in the
   shared on-disk :class:`~repro.harness.cache.ResultCache`, the job
   completes immediately: no queue slot, no worker, no Engine. This is
   the harness's zero-work invariant made observable over HTTP.
2. **request coalescing** — a submission whose ``RunSpec.cache_key()``
   matches a job already queued or running attaches to it as a follower
   and shares its single execution, mirroring the executors' in-batch
   dedup across concurrent clients.
3. **bounded admission** — the priority queue holds at most
   ``queue_limit`` jobs; beyond that submissions are rejected with
   :class:`AdmissionError` (HTTP 429), which is backpressure, not
   failure: the client retries later.
4. **cost-ordered dispatch** — queued jobs are ordered by
   :func:`~repro.service.jobs.estimate_cost` (cheap rungs first, FIFO
   within a cost class), so bursts of tiny probes overtake paper-scale
   runs, echoing the runtime-prediction admission of Pai et al.
   (arXiv:1406.6037) one level up from the GPU.

Executed results are written back to the same ``ResultCache`` the CLI
reads, so a grid warmed by the service answers ``repro grid`` instantly
and vice versa. All counters, gauges and latency histograms live in a
:class:`~repro.telemetry.metrics.MetricsRegistry` rendered by
``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Optional

from repro.gpu.serialize import stats_from_obj, stats_to_obj
from repro.harness.cache import ResultCache
from repro.harness.execution import RunSpec, SerialExecutor
from repro.harness.pool import JobTimeout, WorkerFleet
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job
from repro.telemetry.events import NULL_SINK, TelemetrySink
from repro.telemetry.metrics import MetricsRegistry

#: latency histogram upper bounds, in seconds (submit -> terminal)
LATENCY_BOUNDS = (0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class AdmissionError(RuntimeError):
    """Queue full: the 429-style backpressure rejection."""

    status = 429


class ServiceUnavailable(RuntimeError):
    """The service is draining and admits nothing new (HTTP 503)."""

    status = 503


class Broker:
    """Priority admission queue + dispatcher over a :class:`WorkerFleet`.

    Construct, then ``await start()`` inside a running event loop. All
    mutating methods (:meth:`submit`, :meth:`cancel`, ...) must be called
    from that loop — the HTTP server does, and tests use the
    :class:`~repro.service.server.ServiceThread` helpers.
    """

    def __init__(
        self,
        fleet: WorkerFleet,
        cache: Optional[ResultCache] = None,
        *,
        queue_limit: int = 64,
        default_deadline: Optional[float] = None,
        collect_telemetry: bool = True,
        registry: Optional[MetricsRegistry] = None,
        telemetry: TelemetrySink = NULL_SINK,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.fleet = fleet
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.collect_telemetry = collect_telemetry
        self.registry = registry if registry is not None else MetricsRegistry()
        #: sink receiving every JobEvent (progress logging hook)
        self.telemetry = telemetry
        # the cache-facing half of an executor: _cache_get/_cache_put give
        # the service the exact record validation + zero-work warm path the
        # CLI executors use, against the same on-disk store
        self._exec = SerialExecutor(cache, collect_telemetry=collect_telemetry)
        self.jobs: "dict[str, Job]" = {}
        self._heap: list[tuple[float, int, Job]] = []
        self._queued = 0
        self._inflight: dict[str, Job] = {}  # cache_key -> primary job
        self._seq = 0  # job-id counter
        self._heap_seq = 0  # FIFO tiebreaker for equal-cost heap entries
        self.admitting = True
        self._paused = False
        self._wake = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    def pause(self) -> None:
        """Stop dispatching queued jobs (admission continues); ops/test hook."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._wake.set()

    # -- admission -------------------------------------------------------------

    def submit(self, spec: RunSpec, *, deadline: Optional[float] = None) -> Job:
        """Admit one spec; returns its :class:`Job` (possibly already done).

        Raises :class:`ServiceUnavailable` while draining and
        :class:`AdmissionError` when the queue is full.
        """
        if not self.admitting:
            raise ServiceUnavailable("service is draining; not accepting jobs")
        metrics = self.registry
        metrics.counter("service_jobs_submitted").inc()
        job = Job(
            self._next_id(),
            spec,
            deadline=self.default_deadline if deadline is None else deadline,
        )

        # 1. warm cache: complete instantly, constructing no Engine at all
        stats = self._exec._cache_get(spec)
        if stats is not None:
            self.jobs[job.job_id] = job
            self._emit(job.record(QUEUED, "admitted"))
            job.source = "cache"
            job.stats_obj = stats_to_obj(stats)
            job.telemetry = self._exec.telemetry_for(spec)
            metrics.counter("service_cache_hits").inc()
            self._finish(job, DONE, "served from result cache")
            return job

        # 2. coalesce onto an identical in-flight job
        key = spec.cache_key()
        primary = self._inflight.get(key)
        if primary is not None and not primary.finished:
            self.jobs[job.job_id] = job
            job.source = "coalesced"
            job.primary = primary
            primary.followers.append(job)
            metrics.counter("service_coalesce_hits").inc()
            self._emit(job.record(QUEUED, f"coalesced into {primary.job_id}"))
            if primary.state == RUNNING:
                self._emit(job.record(RUNNING, f"primary {primary.job_id} running"))
            return job

        # 3. bounded admission (backpressure, not failure)
        if self._queued >= self.queue_limit:
            metrics.counter("service_jobs_rejected").inc()
            raise AdmissionError(
                f"admission queue full ({self._queued}/{self.queue_limit} queued); "
                "retry later"
            )

        # 4. enqueue, cheapest estimated cost first
        self.jobs[job.job_id] = job
        self._emit(job.record(QUEUED, f"admitted (cost estimate {job.cost:g})"))
        heapq.heappush(self._heap, (job.cost, self._heap_seq, job))
        self._heap_seq += 1
        self._queued += 1
        self._inflight[key] = job
        self._sync_gauges()
        self._wake.set()
        return job

    def _next_id(self) -> str:
        self._seq += 1
        return f"job-{self._seq:06d}"

    def get(self, job_id: str) -> Job:
        return self.jobs[job_id]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (and its followers). Running jobs run on."""
        job = self.jobs[job_id]
        if job.primary is not None and not job.finished:
            # a follower detaches alone; the primary keeps executing
            job.primary.followers.remove(job)
            job.primary = None
            self._finish(job, CANCELLED, "cancelled (detached from primary)")
            return job
        if job.state != QUEUED:
            raise AdmissionError(f"job {job_id} is {job.state}; only queued jobs cancel")
        self._inflight.pop(job.spec.cache_key(), None)
        self._queued -= 1  # the heap entry is skipped lazily at pop time
        self._finish(job, CANCELLED, "cancelled while queued")
        self._sync_gauges()
        return job

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            if self._paused or not self._heap:
                self._wake.clear()
                await self._wake.wait()
                continue
            worker = await self.fleet.checkout()
            job = self._pop_queued()
            if job is None:
                self.fleet.release(worker)
                continue
            asyncio.ensure_future(self._run_job(job, worker))

    def _pop_queued(self) -> Optional[Job]:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == QUEUED and job.primary is None:
                self._queued -= 1
                self._sync_gauges()
                return job
        return None

    async def _run_job(self, job: Job, worker) -> None:
        spec = job.spec
        job.source = "executed"
        job.started_at = time.time()
        payload = {"spec": spec.to_dict(), "collect_telemetry": self.collect_telemetry}
        self._record_all(job, RUNNING, f"dispatched to worker {worker.worker_id}")
        self._sync_gauges()
        job.attempts = 1

        def retrying(crash: Exception) -> None:
            job.attempts = 2
            self._record_all(job, RUNNING, f"{crash}; retrying on a fresh worker")

        try:
            out = await self.fleet.run_on(
                worker, payload, timeout=job.deadline, label=spec.label(), on_retry=retrying
            )
            stats = stats_from_obj(out["stats"])
            if out.get("telemetry") is not None:
                self._exec.telemetry[spec] = out["telemetry"]
            self._exec._cache_put(spec, stats)
            for target in (job, *job.followers):
                target.stats_obj = out["stats"]
                target.telemetry = out.get("telemetry")
            self.registry.counter("service_jobs_executed").inc()
            duration = time.time() - job.started_at
            self._finish(job, DONE, f"completed in {duration:.3f}s")
        except JobTimeout as exc:
            self.registry.counter("service_job_timeouts").inc()
            self._finish(job, FAILED, str(exc))
        except asyncio.CancelledError:  # forced shutdown mid-job
            self._finish(job, FAILED, "service shut down mid-run")
            raise
        except Exception as exc:
            self._finish(job, FAILED, f"{type(exc).__name__}: {exc}")
        finally:
            if self._inflight.get(spec.cache_key()) is job:
                del self._inflight[spec.cache_key()]
            self._sync_gauges()

    # -- bookkeeping -----------------------------------------------------------

    def _record_all(self, job: Job, state: str, detail: str) -> None:
        self._emit(job.record(state, detail))
        for follower in job.followers:
            if not follower.finished:
                self._emit(follower.record(state, detail))

    def _finish(self, job: Job, state: str, detail: str) -> None:
        for target in (job, *job.followers):
            if target.finished:
                continue
            if state == FAILED:
                target.error = detail
            self._emit(target.record(state, detail))
            self.registry.counter("service_jobs_finished", state=state).inc()
            self.registry.histogram(
                "service_job_latency_seconds",
                bounds=LATENCY_BOUNDS,
                source=target.source or "executed",
            ).observe(target.latency)

    def _emit(self, event) -> None:
        if self.telemetry.enabled:
            self.telemetry.emit(event)

    def _sync_gauges(self) -> None:
        self.registry.gauge("service_queue_depth").set(self._queued)
        self.registry.gauge("service_inflight").set(self.fleet.busy)

    # -- introspection ---------------------------------------------------------

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._exec.cache

    def counts(self) -> dict:
        """State -> job count over everything this instance has seen."""
        out = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    # -- shutdown --------------------------------------------------------------

    async def drain(self, poll: float = 0.02) -> None:
        """Refuse new work, then run the queue dry (SIGTERM semantics).

        Every admitted job — running *and* still queued — reaches a
        terminal state before this returns; executed results are in the
        result cache for the next process to reuse.
        """
        self.admitting = False
        self.resume()  # a paused broker must still drain
        while any(not job.finished for job in self.jobs.values()):
            await asyncio.sleep(poll)

    async def shutdown(self, *, graceful: bool = True) -> None:
        """Drain (unless ``graceful=False``) and stop the worker fleet."""
        if graceful:
            await self.drain()
        else:
            self.admitting = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        await self.fleet.stop(force=not graceful)
