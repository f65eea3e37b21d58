"""HTTP front end for the simulation service (stdlib asyncio only).

The protocol layer is deliberately small: HTTP/1.1 parsed by hand over
``asyncio.start_server`` (no third-party framework — the container's
toolchain is frozen), one request per connection, JSON bodies. Routes::

    POST   /v1/jobs               submit a spec        -> job (202, or 200 if already done)
    GET    /v1/jobs               list jobs (summaries)
    GET    /v1/jobs/<id>          job status + SimStats
    DELETE /v1/jobs/<id>          cancel a queued/coalesced job
    GET    /v1/jobs/<id>/events   live progress as Server-Sent Events
    GET    /v1/catalog            benchmarks/schedulers/grammar (catalog_dict)
    GET    /metrics               MetricsRegistry in Prometheus text format
    GET    /healthz               liveness + admission state

One coroutine assembles the service: a
:class:`~repro.harness.pool.WorkerFleet` (the harness's one process
pool), a :class:`~repro.service.broker.Broker` over it and this server,
on one event loop. ``serve()`` is the blocking entry behind
``repro serve``: it runs that assembly with SIGTERM/SIGINT handlers that
drain — every admitted job reaches a terminal state, and executed
results land in the shared result cache — before the process exits.

:class:`ServiceThread` runs the same assembly on a background thread for
embedding: the test suite uses it to stand a real server up on an
ephemeral port inside one process.

See docs/service.md for the API reference and curl examples.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from typing import Optional

from repro.harness.cache import ResultCache
from repro.harness.execution import RunSpec
from repro.harness.pool import WorkerFleet
from repro.harness.registry import benchmark_names, catalog_dict
from repro.service.broker import AdmissionError, Broker, ServiceUnavailable
from repro.telemetry.metrics import render_prometheus

#: default TCP port for ``repro serve`` (ephemeral with ``--port 0``)
DEFAULT_PORT = 8642

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY = 1 << 20  # request bodies are spec JSON; 1 MiB is generous


class ServiceServer:
    """The HTTP listener bound to one :class:`Broker`."""

    def __init__(self, broker: Broker, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.broker = broker
        self.host = host
        self._requested_port = port
        #: actual bound port (useful with ``port=0``), set by :meth:`start`
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._benchmarks = frozenset(benchmark_names())
        self._catalog = catalog_dict()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listening socket (in-flight connections finish)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- connection handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readline()
            parts = request.split()
            if len(parts) < 2:
                return
            method, target = parts[0].decode("latin-1"), parts[1].decode("latin-1")
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > _MAX_BODY:
                await self._send_json(writer, 413, {"error": "request body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target.split("?", 1)[0], body, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            ValueError,
        ):
            pass  # malformed request or client went away mid-stream
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes, writer) -> None:
        try:
            if path == "/v1/jobs" and method == "POST":
                await self._post_job(body, writer)
            elif path == "/v1/jobs" and method == "GET":
                jobs = [self._summary(j) for j in self.broker.jobs.values()]
                await self._send_json(writer, 200, {"jobs": jobs})
            elif path.startswith("/v1/jobs/") and path.endswith("/events") and method == "GET":
                await self._stream_events(path.split("/")[3], writer)
            elif path.startswith("/v1/jobs/") and method == "GET":
                job = self.broker.get(path.split("/")[3])
                await self._send_json(writer, 200, job.to_dict(include_events=True))
            elif path.startswith("/v1/jobs/") and method == "DELETE":
                job = self.broker.cancel(path.split("/")[3])
                await self._send_json(writer, 200, job.to_dict())
            elif path == "/v1/catalog" and method == "GET":
                await self._send_json(writer, 200, self._catalog)
            elif path == "/metrics" and method == "GET":
                text = render_prometheus(self.broker.registry)
                await self._send(writer, 200, text.encode("utf-8"),
                                 "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz" and method == "GET":
                await self._send_json(
                    writer, 200,
                    {"status": "ok", "admitting": self.broker.admitting,
                     "counts": self.broker.counts()},
                )
            else:
                await self._send_json(writer, 404, {"error": f"no route {method} {path}"})
        except KeyError as exc:
            await self._send_json(writer, 404, {"error": f"unknown job {exc.args[0]!r}"})
        except (AdmissionError, ServiceUnavailable) as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)})
        except ValueError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})

    # -- route bodies ----------------------------------------------------------

    async def _post_job(self, body: bytes, writer) -> None:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        deadline = data.pop("deadline", None)
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ValueError(f"deadline must be a positive number of seconds, got {deadline!r}")
        if "benchmark" not in data:
            raise ValueError("missing required field 'benchmark'")
        data.setdefault("scheduler", "adaptive-bind")
        data.setdefault("model", "dtbl")
        try:
            spec = RunSpec.from_dict(data)
            # refuse a machine description no worker could rebuild
            spec.gpu_config()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad spec: {exc}") from None
        if spec.benchmark not in self._benchmarks:
            raise ValueError(
                f"unknown benchmark {spec.benchmark!r} (see GET /v1/catalog)"
            )
        job = self.broker.submit(spec, deadline=deadline)
        status = 200 if job.finished else 202
        await self._send_json(writer, status, job.to_dict())

    @staticmethod
    def _summary(job) -> dict:
        spec = job.spec
        return {
            "id": job.job_id,
            "state": job.state,
            "source": job.source,
            "benchmark": spec.benchmark,
            "scheduler": spec.scheduler,
            "model": spec.model,
            "scale": spec.scale,
            "seed": spec.seed,
            "submitted_at": job.submitted_at,
            "latency": job.latency,
        }

    async def _stream_events(self, job_id: str, writer) -> None:
        job = self.broker.get(job_id)  # KeyError -> 404 before headers go out
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for event in job.stream():
            writer.write(event.sse())
            await writer.drain()

    # -- response helpers ------------------------------------------------------

    async def _send_json(self, writer, status: int, obj) -> None:
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
        await self._send(writer, status, body, "application/json")

    async def _send(self, writer, status: int, body: bytes, content_type: str) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


# -- assembled service --------------------------------------------------------


async def _run_service(
    stop: asyncio.Event,
    on_ready,
    cache: Optional[ResultCache],
    *,
    jobs: int,
    host: str,
    port: int,
    graceful=lambda: True,
    **broker_options,
) -> Broker:
    """Assemble fleet -> broker -> listener, call ``on_ready(server)``,
    serve until ``stop`` is set, then close the listener and shut the
    broker down (draining if ``graceful()``). Returns the broker."""
    fleet = WorkerFleet(jobs)
    await fleet.start()
    broker = Broker(fleet, cache, **broker_options)
    await broker.start()
    server = ServiceServer(broker, host=host, port=port)
    await server.start()
    on_ready(server)
    await stop.wait()
    await server.stop()
    await broker.shutdown(graceful=graceful())
    return broker


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    jobs: int = 2,
    queue_limit: int = 64,
    cache: Optional[ResultCache] = None,
    default_deadline: Optional[float] = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain. Blocking."""

    async def main() -> Broker:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def on_signal() -> None:
            if not stop.is_set():
                print("repro service: draining ...", flush=True)
                stop.set()

        def ready(server: ServiceServer) -> None:
            print(
                f"repro service listening on http://{host}:{server.port} "
                f"(pid {os.getpid()}, {jobs} workers, queue limit {queue_limit}, "
                f"cache {'off' if cache is None else cache.root})",
                flush=True,
            )
            # installed after the fleet has forked its workers, which keep
            # the default handlers (so terminate() still stops them)
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, on_signal)
                except NotImplementedError:  # pragma: no cover - non-Unix loop
                    signal.signal(sig, lambda *_: on_signal())

        return await _run_service(
            stop, ready, cache, jobs=jobs, host=host, port=port,
            queue_limit=queue_limit, default_deadline=default_deadline,
        )

    counts = asyncio.run(main()).counts()
    print(
        f"repro service: drained; {counts['done']} done, "
        f"{counts['failed']} failed, {counts['cancelled']} cancelled",
        flush=True,
    )
    return 0


class ServiceThread:
    """A complete service running on a background thread (for embedding).

    The event loop, fleet, broker and HTTP listener live on the thread;
    the constructor's caller talks to them over HTTP (see
    :class:`~repro.service.client.ServiceClient`) or via the thread-safe
    helpers here. Usable as a context manager; exit performs a graceful
    drain, so every submitted job is terminal afterwards.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        queue_limit: int = 64,
        cache_dir: Optional[str | os.PathLike] = None,
        default_deadline: Optional[float] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._kwargs = dict(
            jobs=jobs,
            queue_limit=queue_limit,
            cache=ResultCache(cache_dir) if cache_dir is not None else None,
            default_deadline=default_deadline,
            host=host,
            port=port,
        )
        self.broker: Optional[Broker] = None
        self.server: Optional[ServiceServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._graceful = True
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if self.port is None:
            raise RuntimeError("service did not come up within 30s")
        return self

    def stop(self, *, graceful: bool = True) -> None:
        if self._loop is None or self._thread is None:
            return
        self._graceful = graceful
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:  # loop already closed
            pass
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def ready(server: ServiceServer) -> None:
            self.server, self.broker, self.port = server, server.broker, server.port
            self._ready.set()

        await _run_service(
            self._stop, ready, graceful=lambda: self._graceful, **self._kwargs
        )

    # -- thread-safe helpers ---------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self._kwargs['host']}:{self.port}"

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the service's event loop and return its result."""
        future = asyncio.run_coroutine_threadsafe(_call_async(fn, *args), self._loop)
        return future.result(timeout=30)

    def pause(self) -> None:
        """Stop dispatch (admission continues) — deterministic-test hook."""
        self.call(self.broker.pause)

    def resume(self) -> None:
        self.call(self.broker.resume)


async def _call_async(fn, *args):
    result = fn(*args)
    if asyncio.iscoroutine(result):
        result = await result
    return result
