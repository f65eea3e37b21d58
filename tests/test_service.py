"""The simulation service: job lifecycle, admission, coalescing, HTTP API.

The HTTP tests run a complete :class:`ServiceThread` (event loop, worker
fleet, broker, listener) on an ephemeral port and talk to it with the
blocking :class:`ServiceClient` — the same path ``repro submit`` takes.
The fleet tests drive :class:`WorkerFleet` directly under ``asyncio.run``
and kill real worker processes to exercise crash recovery.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.harness import execution
from repro.harness.cache import ResultCache
from repro.harness.execution import RunSpec, SerialExecutor
from repro.harness.registry import catalog_dict, experiment_config
from repro.service import (
    AdmissionError,
    Broker,
    ServiceClient,
    ServiceError,
    ServiceThread,
    WorkerCrashed,
    WorkerFleet,
    estimate_cost,
)
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, Job
from tests.fault_injection import (
    SLOW_LOG_ENV,
    kill_first_busy_worker,
    logged_jobs,
    slow_worker_run,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def spec(benchmark="amr", scheduler="rr", seed=1, **kw):
    return RunSpec(benchmark, scheduler, "dtbl", scale="tiny", seed=seed, **kw)


# ---------------------------------------------------------------------------
# job model
# ---------------------------------------------------------------------------


class TestJobModel:
    def test_cost_orders_scales(self):
        tiny = estimate_cost(spec())
        small = estimate_cost(RunSpec("amr", "rr", "dtbl", scale="small"))
        paper = estimate_cost(RunSpec("amr", "rr", "dtbl", scale="paper"))
        assert tiny < small < paper

    def test_cost_scales_with_cycle_budget(self):
        base = estimate_cost(spec())
        short = estimate_cost(spec(max_cycles=10))
        assert short < base

    def test_event_log_is_ordered_and_terminal_is_final(self):
        job = Job("job-000001", spec())
        job.record(QUEUED, "admitted")
        job.record(RUNNING, "dispatched")
        job.record(DONE, "completed")
        assert [e.seq for e in job.events] == [0, 1, 2]
        assert [e.state for e in job.events] == [QUEUED, RUNNING, DONE]
        assert job.finished
        with pytest.raises(RuntimeError):
            job.record(FAILED, "too late")

    def test_sse_framing(self):
        job = Job("job-000002", spec())
        event = job.record(QUEUED, "admitted")
        wire = event.sse().decode("utf-8")
        assert wire.startswith("id: 0\nevent: queued\ndata: ")
        assert wire.endswith("\n\n")

    def test_to_dict_reports_spec_and_cache_key(self):
        job = Job("job-000003", spec())
        out = job.to_dict()
        assert out["spec"]["benchmark"] == "amr"
        assert out["cache_key"] == spec().cache_key()
        assert out["state"] == QUEUED

    def test_stream_replays_backlog_then_follows(self):
        async def scenario():
            job = Job("job-000004", spec())
            job.record(QUEUED, "admitted")

            async def finish_later():
                await asyncio.sleep(0.01)
                job.record(RUNNING, "dispatched")
                job.record(DONE, "completed")

            task = asyncio.ensure_future(finish_later())
            seen = [event.state async for event in job.stream()]
            await task
            return seen

        assert asyncio.run(scenario()) == [QUEUED, RUNNING, DONE]


# ---------------------------------------------------------------------------
# worker fleet (direct, no HTTP)
# ---------------------------------------------------------------------------


def run_payload(s):
    return {"spec": s.to_dict(), "collect_telemetry": False}


_REAL_WORKER_RUN = execution._worker_run


def _crash_in_worker(payload):
    os._exit(1)


def _crash_once_in_worker(payload):
    """Claims the flag file exactly once and dies; runs normally after."""
    try:
        os.unlink(os.environ["REPRO_TEST_CRASH_FLAG"])
    except (KeyError, FileNotFoundError):
        return _REAL_WORKER_RUN(payload)
    os._exit(1)


class TestWorkerFleet:
    def test_run_and_reuse_one_worker(self):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            try:
                for seed in (1, 2):
                    worker = await fleet.checkout()
                    out = await fleet.run_on(worker, run_payload(spec(seed=seed)))
                    assert "stats" in out
                assert fleet.completed == 2 and fleet.crashes == 0
                assert len(fleet._live) == 1  # same process served both
            finally:
                await fleet.stop()

        asyncio.run(scenario())

    def test_simulation_error_keeps_worker_alive(self):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            try:
                worker = await fleet.checkout()
                bad = {"spec": {"nonsense": True}, "collect_telemetry": False}
                with pytest.raises(RuntimeError):
                    await fleet.run_on(worker, bad)
                # same fleet, next job fine: the worker survived the error
                worker = await fleet.checkout()
                out = await fleet.run_on(worker, run_payload(spec(seed=3)))
                assert "stats" in out
                assert fleet.crashes == 0
            finally:
                await fleet.stop()

        asyncio.run(scenario())

    def test_crash_is_retried_on_a_fresh_worker(self):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            try:
                worker = await fleet.checkout()
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join()
                retried = []
                out = await asyncio.wait_for(
                    fleet.run_on(
                        worker, run_payload(spec(seed=4)), on_retry=retried.append
                    ),
                    60,
                )
                assert "stats" in out
                assert fleet.crashes == 1
                assert [type(crash) for crash in retried] == [WorkerCrashed]
            finally:
                await asyncio.wait_for(fleet.stop(), 15)

        asyncio.run(scenario())

    def test_second_crash_gives_up_with_label(self, monkeypatch):
        # the fresh worker of the one retry dies too, inside the job
        monkeypatch.setattr(execution, "_worker_run", _crash_in_worker)

        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            try:
                worker = await fleet.checkout()
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join()
                with pytest.raises(WorkerCrashed, match="crashed twice running amr"):
                    await asyncio.wait_for(
                        fleet.run_on(worker, run_payload(spec(seed=5)), label="amr"), 60
                    )
                assert fleet.crashes == 2
            finally:
                await asyncio.wait_for(fleet.stop(), 15)

        asyncio.run(scenario())

    def test_stop_survives_kill_after_completion(self):
        # regression: a worker SIGKILLed right after delivering a result
        # must not wedge shutdown (with a shared result queue it died
        # holding the queue lock; per-worker pipes have no lock to poison)
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            worker = await fleet.checkout()
            await fleet.run_on(worker, run_payload(spec(seed=6)))
            worker = await fleet.checkout()
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join()
            # the job recovers on the replacement worker
            out = await asyncio.wait_for(
                fleet.run_on(worker, run_payload(spec(seed=7))), 60
            )
            assert "stats" in out and fleet.crashes == 1
            await asyncio.wait_for(fleet.stop(), 15)

        asyncio.run(scenario())

    def test_timeout_kills_and_replaces_worker(self):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            try:
                worker = await fleet.checkout()
                with pytest.raises(RuntimeError, match="deadline"):
                    await fleet.run_on(
                        worker, run_payload(spec(seed=8)), timeout=0.001, label="amr"
                    )
                assert fleet.timeouts == 1
                # capacity is unchanged: a replacement serves the next job
                worker = await fleet.checkout()
                out = await asyncio.wait_for(
                    fleet.run_on(worker, run_payload(spec(seed=9))), 60
                )
                assert "stats" in out
            finally:
                await asyncio.wait_for(fleet.stop(), 15)

        asyncio.run(scenario())

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            WorkerFleet(0)


# ---------------------------------------------------------------------------
# full service over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with ServiceThread(jobs=1, cache_dir=cache_dir) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(port=service.port)


class TestServiceHTTP:
    def test_cold_then_warm_round_trip(self, service, client):
        before = client.metric_total("repro_service_jobs_executed_total")
        cold = client.run("amr", scheduler="rr", scale="tiny", seed=101, timeout=120)
        assert cold["state"] == DONE and cold["source"] == "executed"
        warm = client.submit("amr", "rr", scale="tiny", seed=101)
        # a warm submission is terminal in the POST response itself —
        # no queueing, no worker, no Engine anywhere
        assert warm["state"] == DONE and warm["source"] == "cache"
        assert warm["stats"] == cold["stats"]
        after = client.metric_total("repro_service_jobs_executed_total")
        assert after - before == 1.0

    def test_results_match_the_cli_executor_exactly(self, service, client):
        job = client.run("bht", scheduler="rr", scale="tiny", seed=102, timeout=120)
        local_spec = spec("bht", "rr", seed=102)
        local = SerialExecutor().run([local_spec])[local_spec]
        from repro.gpu.serialize import stats_from_obj

        assert stats_from_obj(job["stats"]) == local

    def test_service_results_land_in_the_shared_disk_cache(self, service, client):
        job = client.run("amr", scheduler="rr", scale="tiny", seed=103, timeout=120)
        cache = ResultCache(service.broker._exec.cache.root)
        record = cache.load(job["cache_key"])
        assert record is not None and record["stats"] == job["stats"]

    def test_coalescing_runs_one_engine_for_n_submissions(self, service, client):
        before = client.metric_total("repro_service_jobs_executed_total")
        service.pause()
        try:
            submitted = [
                client.submit("amr", "rr", scale="tiny", seed=104) for _ in range(4)
            ]
        finally:
            service.resume()
        done = [client.wait(s["id"], timeout=120) for s in submitted]
        assert all(d["state"] == DONE for d in done)
        assert sorted(d["source"] for d in done) == [
            "coalesced", "coalesced", "coalesced", "executed",
        ]
        assert all(d["stats"] == done[0]["stats"] for d in done)
        after = client.metric_total("repro_service_jobs_executed_total")
        assert after - before == 1.0

    def test_sse_events_are_ordered_and_terminal_last(self, service, client):
        job = client.run("amr", scheduler="rr", scale="tiny", seed=105, timeout=120)
        events = list(client.events(job["id"]))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert [e["state"] for e in events] == [QUEUED, RUNNING, DONE]

    def test_deadline_failure_leaves_service_healthy(self, service, client):
        sub = client.submit("bht", "rr", scale="tiny", seed=106, deadline=0.001)
        failed = client.wait(sub["id"], timeout=120)
        assert failed["state"] == FAILED
        assert "deadline" in failed["error"]
        healthy = client.run("bht", scheduler="rr", scale="tiny", seed=107, timeout=120)
        assert healthy["state"] == DONE

    def test_cancel_queued_job(self, service, client):
        service.pause()
        try:
            sub = client.submit("amr", "rr", scale="tiny", seed=108)
            out = client.cancel(sub["id"])
        finally:
            service.resume()
        assert out["state"] == "cancelled"

    def test_catalog_matches_registry(self, service, client):
        catalog = client.catalog()
        expected = catalog_dict()
        assert catalog["benchmarks"] == expected["benchmarks"]
        assert catalog["schedulers"] == expected["schedulers"]
        assert catalog["scales"] == expected["scales"]

    def test_metrics_exposition(self, service, client):
        client.run("amr", scheduler="rr", scale="tiny", seed=109, timeout=120)
        text = client.metrics_text()
        assert "repro_service_queue_depth" in text
        assert 'repro_service_job_latency_seconds_bucket{le="+Inf"' in text
        assert "repro_service_job_latency_seconds_count" in text
        values = client.metric_values()
        assert values["repro_service_queue_depth"] == 0.0

    def test_job_listing_and_lookup(self, service, client):
        job = client.run("amr", scheduler="rr", scale="tiny", seed=110, timeout=120)
        assert any(j["id"] == job["id"] for j in client.jobs())
        assert client.job(job["id"])["id"] == job["id"]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-999999")
        assert err.value.status == 404

    def test_unknown_benchmark_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("not-a-benchmark", scale="tiny")
        assert err.value.status == 400

    def test_bad_json_is_400(self, service, client):
        import http.client

        jobs_before = len(client.jobs())
        bodies = [
            (b"{nope", "JSON"),
            # a field RunSpec does not have is refused by name
            (
                json.dumps({"benchmark": "amr", "scale": "tiny", "backend": "vector"}).encode(),
                "backend",
            ),
            # a config_json naming a retired GPUConfig field is refused at
            # admission, before any worker starts
            (
                json.dumps({
                    "benchmark": "amr", "scale": "tiny",
                    "config_json": json.dumps({**experiment_config().to_dict(), "l2_partitions": 2}),
                }).encode(),
                "l2_partitions",
            ),
            (
                json.dumps({"benchmark": "amr", "scale": "tiny", "config_json": "not json"}).encode(),
                "bad spec",
            ),
        ]
        for body, named in bodies:
            conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/jobs", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 400
                assert named in json.loads(response.read())["error"]
            finally:
                conn.close()
        # a refused body never becomes a job, so no worker ever sees it
        assert len(client.jobs()) == jobs_before

    def test_health(self, client):
        out = client.health()
        assert out["status"] == "ok"
        assert out["admitting"] is True
        assert "counts" in out


class TestBackpressure:
    def test_admission_queue_full_is_429(self, tmp_path):
        with ServiceThread(jobs=1, queue_limit=2, cache_dir=tmp_path) as svc:
            client = ServiceClient(port=svc.port)
            svc.pause()
            try:
                accepted = []
                rejected = None
                for seed in range(200, 206):
                    try:
                        accepted.append(
                            client.submit("amr", "rr", scale="tiny", seed=seed)
                        )
                    except ServiceError as err:
                        rejected = err
                        break
                assert rejected is not None and rejected.status == 429
                # one job may already be checked out by the dispatcher, so
                # the queue holds its limit plus at most one in flight
                assert len(accepted) <= 3
            finally:
                svc.resume()
            for sub in accepted:
                assert client.wait(sub["id"], timeout=120)["state"] == DONE

    def test_graceful_exit_drains_queued_jobs(self, tmp_path):
        svc = ServiceThread(jobs=1, cache_dir=tmp_path).start()
        client = ServiceClient(port=svc.port)
        svc.pause()
        submitted = [client.submit("amr", "rr", scale="tiny", seed=s) for s in (301, 302)]
        svc.resume()
        svc.stop(graceful=True)  # must finish both jobs before returning
        cache = ResultCache(tmp_path)
        for sub in submitted:
            assert cache.load(sub["cache_key"]) is not None


class TestWorkerKilledFromOutside:
    """A worker SIGKILLed mid-job by someone else, as the OOM killer would."""

    def test_outside_sigkill_of_a_busy_worker_is_retried(self, tmp_path, monkeypatch):
        log = tmp_path / "jobs.log"
        monkeypatch.setenv(SLOW_LOG_ENV, str(log))
        monkeypatch.setattr(execution, "_worker_run", slow_worker_run)
        with ServiceThread(jobs=1, cache_dir=tmp_path / "cache") as svc:
            client = ServiceClient(port=svc.port)
            killer = kill_first_busy_worker(log, delay=0.25)
            job = client.submit("amr", "rr", scale="tiny", seed=501)
            job = client.wait(job["id"], timeout=120)
            killer.join(timeout=5)
        assert len(logged_jobs(log)) == 2
        assert job["state"] == DONE and job["attempts"] == 2
        details = [event["detail"] for event in job["events"]]
        assert any(
            "died (exit code -9); retrying on a fresh worker" in detail for detail in details
        ), details


# ---------------------------------------------------------------------------
# broker admission logic (direct, no HTTP)
# ---------------------------------------------------------------------------


class TestBrokerOrdering:
    def test_cheaper_jobs_dispatch_first(self, tmp_path):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            broker = Broker(fleet, ResultCache(tmp_path), collect_telemetry=False)
            await broker.start()
            broker.pause()
            # admitted expensive-first; the heap must reorder by cost
            expensive = broker.submit(spec(seed=401))  # full default cycle budget
            cheap = broker.submit(spec(seed=402, max_cycles=5_000_000))
            broker.resume()
            await broker.drain()
            assert expensive.state == DONE and cheap.state == DONE
            order = sorted(
                (job.started_at, job.job_id) for job in (expensive, cheap)
            )
            assert order[0][1] == cheap.job_id
            await broker.shutdown()

        asyncio.run(scenario())

    def test_job_ids_are_sequential(self, tmp_path):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            broker = Broker(fleet, ResultCache(tmp_path), collect_telemetry=False)
            await broker.start()
            first = broker.submit(spec(seed=403))
            while not first.finished:
                await asyncio.sleep(0.01)
            second = broker.submit(spec(seed=403))  # warm: consumes one id too
            third = broker.submit(spec(seed=404))
            while not third.finished:
                await asyncio.sleep(0.01)
            assert [first.job_id, second.job_id, third.job_id] == [
                "job-000001", "job-000002", "job-000003",
            ]
            assert second.source == "cache" and second.finished
            await broker.shutdown()

        asyncio.run(scenario())

    def test_crash_is_retried_once_and_recorded(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-once"
        flag.write_text("armed", encoding="utf-8")
        monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(flag))
        monkeypatch.setattr(execution, "_worker_run", _crash_once_in_worker)

        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            broker = Broker(fleet, ResultCache(tmp_path / "cache"), collect_telemetry=False)
            await broker.start()
            job = broker.submit(spec(seed=406))
            await broker.drain()
            await broker.shutdown()
            return job

        job = asyncio.run(scenario())
        assert not flag.exists(), "the crash flag was never claimed"
        assert job.state == DONE and job.attempts == 2
        assert job.to_dict()["attempts"] == 2
        retries = [e.detail for e in job.events if "retrying on a fresh worker" in e.detail]
        assert len(retries) == 1 and "died" in retries[0]

    def test_draining_broker_rejects_submissions(self, tmp_path):
        async def scenario():
            fleet = WorkerFleet(1)
            await fleet.start()
            broker = Broker(fleet, ResultCache(tmp_path), collect_telemetry=False)
            await broker.start()
            await broker.shutdown()
            with pytest.raises((AdmissionError, RuntimeError)):
                broker.submit(spec(seed=405))

        asyncio.run(scenario())
