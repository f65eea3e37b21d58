"""Small blocking HTTP client for the simulation service.

Used by ``repro submit``, the test suite and
``scripts/service_load_test.py``. One :class:`ServiceClient` is safe to
share across threads: every request opens its own
:class:`http.client.HTTPConnection` (the server closes connections after
each response anyway).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Optional

from repro.service.jobs import TERMINAL_STATES


class ServiceError(RuntimeError):
    """Non-2xx response from the service (``status`` holds the code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8", "replace"))
            except (ValueError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceError(response.status, message)
        return json.loads(raw) if raw else {}

    def _request_text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            raise ServiceError(response.status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    # -- API -------------------------------------------------------------------

    def submit(
        self,
        benchmark: str,
        scheduler: str = "adaptive-bind",
        model: str = "dtbl",
        *,
        scale: str = "small",
        seed: int = 7,
        max_cycles: Optional[int] = ...,
        deadline: Optional[float] = None,
    ) -> dict:
        """Submit one run; returns the job dict (state may already be done)."""
        body: dict = {
            "benchmark": benchmark,
            "scheduler": scheduler,
            "model": model,
            "scale": scale,
            "seed": seed,
        }
        if max_cycles is not ...:
            body["max_cycles"] = -1 if max_cycles is None else max_cycles
        if deadline is not None:
            body["deadline"] = deadline
        return self._request("POST", "/v1/jobs", body)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, *, timeout: float = 120.0, poll: float = 0.05) -> dict:
        """Poll until the job is terminal; returns its final dict."""
        end = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= end:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)

    def run(self, benchmark: str, **kwargs) -> dict:
        """Submit-and-wait convenience; raises on failed/cancelled jobs."""
        wait_timeout = kwargs.pop("timeout", 120.0)
        job = self.submit(benchmark, **kwargs)
        if job["state"] not in TERMINAL_STATES:
            job = self.wait(job["id"], timeout=wait_timeout)
        if job["state"] != "done":
            raise ServiceError(500, f"job {job['id']} {job['state']}: {job['error']}")
        return job

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's SSE feed; yields decoded ``data:`` payloads.

        Blocks until the server closes the stream (at the terminal
        event), so iterating to exhaustion is a wait-for-completion.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                raise ServiceError(response.status, raw.decode("utf-8", "replace"))
            for line in response:
                if line.startswith(b"data:"):
                    yield json.loads(line[5:].strip().decode("utf-8"))
        finally:
            conn.close()

    def catalog(self) -> dict:
        return self._request("GET", "/v1/catalog")

    def metrics_text(self) -> str:
        """The raw ``/metrics`` Prometheus exposition."""
        return self._request_text("/metrics")

    def metric_values(self) -> dict[str, float]:
        """Parsed ``/metrics``: sample name (labels included) -> value."""
        out: dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                continue
        return out

    def metric_total(self, prefix: str) -> float:
        """Sum of every sample whose name starts with ``prefix``."""
        return sum(
            v for k, v in self.metric_values().items()
            if k == prefix or k.startswith(prefix + "{")
        )

    def health(self) -> dict:
        return self._request("GET", "/healthz")
