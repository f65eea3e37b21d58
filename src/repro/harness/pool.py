"""The one process pool: a fleet of persistent simulation workers.

Every fan-out in the repository runs on :class:`WorkerFleet`.
:class:`~repro.harness.execution.ParallelExecutor` starts a fleet for
each batch of ``repro grid``/``tune`` simulations, and
``repro serve`` keeps one warm across requests, so per-job dispatch
costs one pipe hop and the workers' in-memory kernel caches stay hot.
Each worker calls :func:`repro.harness.execution._worker_run`, looked up
on that module per job, so CLI and service results are byte-identical by
construction. Under ``fork`` a worker inherits every trace the parent
resolved before starting the fleet; a job whose payload names a
trace-store root loads any other trace from that on-disk workload cache
(and stores what it builds there).

Workers talk to the fleet over dedicated pipes, never shared queues.
A queue shared between worker processes carries a cross-process lock,
and a worker SIGKILLed between writing its result and releasing that
lock (a timeout kill racing a completion, an OOM kill) would leave the
lock held forever, wedging every other worker's result path. With one
pipe per worker there is a single writer and a single reader per
channel, so no lock exists to poison, and a dead worker is just an EOF
on its own pipe.

Failure handling, per job (the one failure story of CLI and service):

* **per-job timeouts** — a job exceeding its deadline gets its worker
  process terminated (the only way to preempt a CPU-bound simulation)
  and a replacement spawned; :class:`JobTimeout` is raised.
* **crash retry** — a worker dying mid-job (OOM kill, segfault) is
  detected by a liveness watcher and the job is retried exactly once on
  a fresh worker; a second death raises :class:`WorkerCrashed` naming
  the job.
* **simulation errors** — an exception inside the simulation comes back
  as a ``RuntimeError`` naming the job and the worker's exception; the
  worker stays in the fleet.
* **graceful drain** — :meth:`WorkerFleet.drain` waits for in-flight
  jobs to finish, then :meth:`WorkerFleet.stop` shuts workers down via
  sentinel messages (terminating only those that ignore them).
"""

from __future__ import annotations

import asyncio
import importlib
import multiprocessing
import multiprocessing.connection
import threading
from typing import Callable, Optional, Sequence

#: liveness-watcher poll interval (seconds); crash detection latency
_WATCH_INTERVAL = 0.05


#: what a job imports on its first cache miss, and a warm parent process
#: has not: the engine stack (scheduler, launch models, memory), the
#: trace codec and the trace builders' input generators (with numpy)
_JOB_MODULES = (
    "repro.core.composed",
    "repro.dynpar.cdp",
    "repro.dynpar.dtbl",
    "repro.gpu.engine",
    "repro.gpu.serialize",
    "repro.workloads.datagen",
)


class JobTimeout(RuntimeError):
    """A job exceeded its deadline; its worker was killed and replaced."""


class WorkerCrashed(RuntimeError):
    """A worker process died while running a job (twice, if retried)."""


def _service_worker_main(worker_id: int, task_conn, result_conn) -> None:
    """Worker-process entry point: loop over payloads until the ``None``
    sentinel (or EOF, if the parent died).

    Payloads and results are the plain dicts of ``_worker_run``, read off
    :mod:`repro.harness.execution` per job (so a patched entry point
    reaches the worker); any exception the simulation raises is reported
    as an ``"error"`` result and the worker stays alive for the next job.
    Only process death (crash or kill) takes a worker out of the fleet.
    """
    from repro.harness import execution

    while True:
        try:
            payload = task_conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            out = execution._worker_run(payload)
        except BaseException as exc:  # report, never die: the fleet is persistent
            result_conn.send((worker_id, "error", f"{type(exc).__name__}: {exc}"))
        else:
            result_conn.send((worker_id, "ok", out))


class _Worker:
    """One fleet slot: a process, its private pipes, its in-flight job."""

    __slots__ = ("worker_id", "process", "task_conn", "result_conn", "future")

    def __init__(self, worker_id: int, process, task_conn, result_conn) -> None:
        self.worker_id = worker_id
        self.process = process
        #: parent's send end of the task pipe
        self.task_conn = task_conn
        #: parent's receive end of the result pipe (owned by the reader thread)
        self.result_conn = result_conn
        #: asyncio future of the in-flight job (None when idle)
        self.future: Optional[asyncio.Future] = None


class WorkerFleet:
    """Fixed-size fleet of persistent simulation worker processes.

    Create, then ``await start()`` from inside a running event loop; the
    fleet binds to that loop. ``checkout()`` hands out an idle worker
    (waiting if all are busy — this bounds concurrency), ``run_on()``
    executes one payload on it and returns the worker to the idle pool.
    """

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self._live: dict[int, _Worker] = {}
        self._next_id = 0
        self._idle: Optional[asyncio.Queue] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reader: Optional[threading.Thread] = None
        self._watcher: Optional[asyncio.Task] = None
        self._stopping = False
        # result pipes the reader thread multiplexes over; the loop thread
        # only ever *adds* entries (then pokes the wake pipe so the reader
        # refreshes its wait set) — the reader alone removes and closes
        # them, on EOF, so no cross-thread close can race the wait().
        self._conns_lock = threading.Lock()
        self._result_conns: set = set()
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        # lifetime counters (surfaced via the broker's /metrics)
        self.completed = 0
        self.crashes = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        # import what a job runs once, before forking: every worker
        # inherits it, so no job pays for the import
        for name in _JOB_MODULES:
            importlib.import_module(name)

        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Queue()
        for _ in range(self.size):
            self._idle.put_nowait(self._spawn())
        self._reader = threading.Thread(
            target=self._read_results, name="fleet-results", daemon=True
        )
        self._reader.start()
        self._watcher = asyncio.ensure_future(self._watch())

    def _spawn(self) -> _Worker:
        worker_id = self._next_id
        self._next_id += 1
        task_r, task_w = multiprocessing.Pipe(duplex=False)
        result_r, result_w = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_service_worker_main,
            args=(worker_id, task_r, result_w),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # close the child's ends in the parent, or the reader would never
        # see EOF when the worker dies
        task_r.close()
        result_w.close()
        worker = _Worker(worker_id, process, task_w, result_r)
        self._live[worker_id] = worker
        with self._conns_lock:
            self._result_conns.add(result_r)
        self._poke_reader()
        return worker

    def _poke_reader(self) -> None:
        try:
            self._wake_w.send("refresh")
        except (OSError, ValueError):  # pragma: no cover - wake pipe torn down
            pass

    def _read_results(self) -> None:
        """Reader thread: multiplex the per-worker result pipes onto the
        event loop. A pipe EOF means its worker died; the watcher owns
        failing the in-flight future, the reader just prunes the pipe.
        """
        while True:
            with self._conns_lock:
                conns = list(self._result_conns)
            ready = multiprocessing.connection.wait(conns + [self._wake_r])
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        msg = self._wake_r.recv()
                    except (EOFError, OSError):
                        msg = None
                    if msg is None:
                        return
                    continue  # re-list the wait set
                try:
                    item = conn.recv()
                except (EOFError, OSError):
                    with self._conns_lock:
                        self._result_conns.discard(conn)
                    conn.close()
                    continue
                self._loop.call_soon_threadsafe(self._on_result, *item)

    def _on_result(self, worker_id: int, status: str, out) -> None:
        worker = self._live.get(worker_id)
        if worker is None or worker.future is None:
            return  # worker was killed/stale after a timeout; drop the result
        future, worker.future = worker.future, None
        if not future.done():
            if status == "ok":
                self.completed += 1
            future.set_result((status, out))
        self._idle.put_nowait(worker)

    async def _watch(self) -> None:
        """Flag busy workers whose process died (crash detection)."""
        while True:
            await asyncio.sleep(_WATCH_INTERVAL)
            for worker in list(self._live.values()):
                if worker.future is not None and not worker.process.is_alive():
                    future, worker.future = worker.future, None
                    self._discard(worker)
                    self.crashes += 1
                    if not future.done():
                        future.set_exception(
                            WorkerCrashed(
                                f"worker {worker.worker_id} died "
                                f"(exit code {worker.process.exitcode})"
                            )
                        )
                    if not self._stopping:
                        self._idle.put_nowait(self._spawn())

    def _discard(self, worker: _Worker) -> None:
        """Drop a dead worker from the fleet (its result pipe is pruned by
        the reader thread when it sees the EOF)."""
        self._live.pop(worker.worker_id, None)
        try:
            worker.task_conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- execution -------------------------------------------------------------

    @property
    def busy(self) -> int:
        """Workers with a job in flight."""
        return sum(1 for w in self._live.values() if w.future is not None)

    async def checkout(self) -> _Worker:
        """Reserve an idle worker (waits; this bounds service concurrency)."""
        return await self._idle.get()

    def release(self, worker: _Worker) -> None:
        """Return a checked-out worker unused (e.g. its job was cancelled)."""
        self._idle.put_nowait(worker)

    async def run_on(
        self,
        worker: _Worker,
        payload: dict,
        *,
        timeout: Optional[float] = None,
        label: str = "job",
        on_retry: Optional[Callable[[WorkerCrashed], None]] = None,
    ) -> dict:
        """Execute one payload on a checked-out worker.

        Returns the worker-result dict (``{"stats": ...}``).
        On success or simulation error the worker goes back to the idle
        pool automatically; on timeout it is killed and replaced. On a
        crash the job is retried once on a fresh worker, after
        ``on_retry(crash)`` is told; a second crash raises
        :class:`WorkerCrashed`.
        """
        try:
            return await self._run_once(worker, payload, timeout, label)
        except WorkerCrashed as exc:
            if on_retry is not None:
                on_retry(exc)
        worker = await self.checkout()
        try:
            return await self._run_once(worker, payload, timeout, label)
        except WorkerCrashed as exc:
            raise WorkerCrashed(f"worker crashed twice running {label}; giving up: {exc}") from None

    async def _run_once(
        self, worker: _Worker, payload: dict, timeout: Optional[float], label: str
    ) -> dict:
        try:
            worker.task_conn.send(payload)
        except (BrokenPipeError, OSError):
            # the worker died while idle; dispatch never happened
            self._discard(worker)
            self.crashes += 1
            if not self._stopping:
                self._idle.put_nowait(self._spawn())
            raise WorkerCrashed(f"worker {worker.worker_id} died while idle") from None
        # no await between send and this assignment, so the result
        # callback (which runs on this same loop) cannot precede it
        future = self._loop.create_future()
        worker.future = future
        try:
            status, out = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            if not future.done():
                # terminating the process is the only preemption available
                # for a CPU-bound simulation; the slot is refilled so fleet
                # capacity is unchanged
                self.timeouts += 1
                self._kill(worker)
                raise JobTimeout(f"deadline of {timeout}s exceeded running {label}") from None
            # the result landed in the very tick the deadline fired
            # (worker already back in the idle pool): take it
            status, out = future.result()
        if status != "ok":
            raise RuntimeError(f"simulation of {label} failed in its worker: {out}")
        return out

    def _kill(self, worker: _Worker) -> None:
        """Forcibly remove one busy worker and spawn its replacement."""
        worker.future = None
        self._discard(worker)
        worker.process.terminate()
        worker.process.join(timeout=2)
        if worker.process.is_alive():  # pragma: no cover - stubborn process
            worker.process.kill()
            worker.process.join(timeout=2)
        if not self._stopping:
            self._idle.put_nowait(self._spawn())

    # -- shutdown --------------------------------------------------------------

    async def drain(self, poll: float = 0.02) -> None:
        """Wait until no worker has a job in flight."""
        while self.busy:
            await asyncio.sleep(poll)

    async def stop(self, *, force: bool = False) -> None:
        """Shut the fleet down (``force=True`` skips waiting for jobs)."""
        self._stopping = True
        if not force:
            await self.drain()
        if self._watcher is not None:
            self._watcher.cancel()
        for worker in list(self._live.values()):
            if worker.future is not None and not worker.future.done():
                worker.future.cancel()
            try:
                worker.task_conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - pipe torn down
                pass
        for worker in list(self._live.values()):
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            self._discard(worker)
        self._live.clear()
        try:
            self._wake_w.send(None)  # stop the reader thread
        except (OSError, ValueError):  # pragma: no cover - wake pipe torn down
            pass
        if self._reader is not None:
            self._reader.join(timeout=2)


def run_batch(jobs: Sequence[tuple[str, dict]], *, size: int) -> list[dict]:
    """Run ``(label, payload)`` jobs on a fresh fleet of ``size`` workers.

    Blocking: returns the result dicts in job order. The first job to
    fail (second crash, simulation error) raises; the rest are
    cancelled, and the fleet is stopped either way.
    """

    async def batch() -> list[dict]:
        fleet = WorkerFleet(size)

        async def one(label: str, payload: dict) -> dict:
            return await fleet.run_on(await fleet.checkout(), payload, label=label)

        tasks: list[asyncio.Future] = []
        try:
            await fleet.start()
            tasks = [asyncio.ensure_future(one(*job)) for job in jobs]
            return await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)  # retrieve every outcome
            await fleet.stop(force=True)

    return asyncio.run(batch())
