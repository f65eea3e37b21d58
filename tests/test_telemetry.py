"""Telemetry subsystem: event bus, metrics registry, Chrome-trace export,
and the determinism guarantee that telemetry never perturbs a run."""

import json
from pathlib import Path

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.engine import Engine
from repro.harness.execution import simulate
from repro.harness.registry import experiment_config, load_benchmark
from repro.telemetry import (
    EVENT_TYPES,
    NULL_SINK,
    CacheSample,
    ChildLaunched,
    ChromeTraceSink,
    Counter,
    Gauge,
    Histogram,
    KernelDispatched,
    MetricsRegistry,
    MetricsSink,
    NullSink,
    RecordingSink,
    TBCompleted,
    TBDispatched,
    TeeSink,
    TraceValidationError,
    WorkStolen,
    assert_valid_trace,
    gini,
    validate_trace,
)
from repro.workloads import make_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_stats.json"


def run_benchmark(benchmark, scheduler, *, model="dtbl", telemetry=NULL_SINK, scale="tiny"):
    workload = load_benchmark(benchmark, scale=scale, seed=7)
    return simulate(
        workload.kernel(), scheduler, model, experiment_config(), telemetry=telemetry
    )


# --------------------------------------------------------------------------
# event bus
# --------------------------------------------------------------------------


class TestEventBus:
    def test_null_sink_is_disabled(self):
        assert NULL_SINK.enabled is False
        assert NullSink().enabled is False

    def test_events_are_frozen_and_hashable(self):
        event = WorkStolen(time=5, thief_smx_id=1, victim_cluster=2, tb_id=3, priority=1)
        with pytest.raises(Exception):
            event.time = 6
        assert hash(event) == hash(
            WorkStolen(time=5, thief_smx_id=1, victim_cluster=2, tb_id=3, priority=1)
        )

    def test_every_event_type_has_a_time(self):
        for event_type in EVENT_TYPES:
            assert "time" in event_type.__dataclass_fields__

    def test_recording_sink_orders_and_filters(self):
        sink = RecordingSink()
        a = CacheSample(time=1, l1_hit_rate=0.5, l2_hit_rate=0.5, queued_tbs=0, resident_tbs=1)
        b = ChildLaunched(time=2, smx_id=0, parent_tb_id=0, kernel="c", num_tbs=4)
        sink.emit(a)
        sink.emit(b)
        assert list(sink) == [a, b]
        assert sink.of_type(ChildLaunched) == [b]
        assert len(sink) == 2

    def test_tee_drops_disabled_sinks(self):
        rec = RecordingSink()
        tee = TeeSink([NullSink(), rec])
        assert tee.enabled and tee.sinks == [rec]
        assert TeeSink([NullSink(), NullSink()]).enabled is False

    def test_tee_fans_out_and_closes(self):
        class Closing(RecordingSink):
            closed = False

            def close(self):
                self.closed = True

        a, b = Closing(), Closing()
        tee = TeeSink([a, b])
        event = ChildLaunched(time=0, smx_id=0, parent_tb_id=0, kernel="c", num_tbs=1)
        tee.emit(event)
        tee.close()
        assert a.events == b.events == [event]
        assert a.closed and b.closed


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_rejects_negative(self):
        c = Counter()
        c.inc(3)
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 3

    def test_gauge_tracks_max(self):
        g = Gauge()
        g.set(5)
        g.set(2)
        assert g.value == 2 and g.max == 5

    def test_histogram_buckets_and_mean(self):
        h = Histogram(bounds=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.mean == pytest.approx(185.0)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10, 1))

    def test_labels_address_distinct_metrics(self):
        reg = MetricsRegistry()
        reg.counter("tbs", smx=0).inc()
        reg.counter("tbs", smx=1).inc(2)
        assert reg.value("tbs", smx=1) == 2
        assert reg.total("tbs") == 3
        assert {d["smx"] for d in reg.labels_of("tbs")} == {0, 1}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_value_of_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c", smx=1).inc()
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(7)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"][0] == {"labels": {"smx": 1}, "kind": "counter", "value": 1}
        assert snap["g"][0]["max"] == 2.5
        assert snap["h"][0]["total"] == 1


class TestGini:
    def test_balanced_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated_approaches_one(self):
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_empty_and_all_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            gini([1, -1])

    def test_ordering_invariant(self):
        assert gini([1, 2, 3]) == pytest.approx(gini([3, 1, 2]))


# --------------------------------------------------------------------------
# determinism: telemetry never perturbs the simulation
# --------------------------------------------------------------------------


GOLDEN_FIELDS = (
    "cycles",
    "instructions",
    "l1_hits",
    "l1_accesses",
    "l2_hits",
    "l2_accesses",
    "dram_accesses",
    "tbs_dispatched",
    "child_tbs_dispatched",
    "child_same_smx",
    "launches",
)


class TestDeterminism:
    def golden(self):
        with open(GOLDEN_PATH) as f:
            return json.load(f)

    def measure(self, scheduler, model, telemetry):
        workload = make_workload("bfs", "citation", scale="tiny", seed=7)
        engine = Engine(
            experiment_config(),
            make_scheduler(scheduler),
            make_model(model),
            [workload.kernel()],
            telemetry=telemetry,
        )
        return engine.run()

    @pytest.mark.parametrize("scheduler,model", [("rr", "dtbl"), ("adaptive-bind", "dtbl")])
    def test_null_sink_matches_golden(self, scheduler, model):
        stats = self.measure(scheduler, model, NullSink())
        expected = self.golden()[f"bfs-citation|{scheduler}|{model}"]
        assert {f: getattr(stats, f) for f in GOLDEN_FIELDS} == expected

    @pytest.mark.parametrize("scheduler,model", [("rr", "dtbl"), ("adaptive-bind", "dtbl")])
    def test_telemetry_does_not_perturb_stats(self, scheduler, model):
        sink = TeeSink([RecordingSink(), MetricsSink(), ChromeTraceSink()])
        stats = self.measure(scheduler, model, sink)
        expected = self.golden()[f"bfs-citation|{scheduler}|{model}"]
        assert {f: getattr(stats, f) for f in GOLDEN_FIELDS} == expected


# --------------------------------------------------------------------------
# engine event semantics
# --------------------------------------------------------------------------


class TestEngineEvents:
    @pytest.fixture(scope="class")
    def run(self):
        sink = RecordingSink()
        stats = run_benchmark("bfs-citation", "adaptive-bind", telemetry=sink)
        return sink, stats

    def test_dispatch_and_completion_counts_match_stats(self, run):
        sink, stats = run
        dispatched = sink.of_type(TBDispatched)
        completed = sink.of_type(TBCompleted)
        assert len(dispatched) == stats.tbs_dispatched
        assert len(completed) == len(dispatched)
        assert {e.tb_id for e in completed} == {e.tb_id for e in dispatched}

    def test_completion_references_dispatch_time(self, run):
        sink, _ = run
        starts = {e.tb_id: e.time for e in sink.of_type(TBDispatched)}
        for done in sink.of_type(TBCompleted):
            assert done.dispatched_at == starts[done.tb_id]
            assert done.time >= done.dispatched_at

    def test_child_launch_events_match_stats(self, run):
        sink, stats = run
        assert len(sink.of_type(ChildLaunched)) == stats.launches

    def test_kernel_dispatch_events(self, run):
        sink, _ = run
        kernels = sink.of_type(KernelDispatched)
        assert kernels and kernels[0].is_device is False  # host kernel first

    def test_cache_samples_are_periodic_and_final(self, run):
        sink, stats = run
        samples = sink.of_type(CacheSample)
        assert len(samples) >= 2  # at least the first and the final sample
        assert samples[-1].time == stats.cycles
        assert samples[-1].resident_tbs == 0
        for s in samples:
            assert 0.0 <= s.l1_hit_rate <= 1.0 and 0.0 <= s.l2_hit_rate <= 1.0

    def test_event_times_monotonic(self, run):
        sink, _ = run
        times = [e.time for e in sink]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_work_steal_counter_matches_stats(self, run):
        sink, stats = run
        assert len(sink.of_type(WorkStolen)) == stats.work_steals


# --------------------------------------------------------------------------
# steal / imbalance story (paper Section IV-C)
# --------------------------------------------------------------------------


class TestStealImbalance:
    def test_adaptive_bind_steals_and_rebalances_graph500(self):
        sink = RecordingSink()
        adaptive = run_benchmark("bfs-graph500", "adaptive-bind", telemetry=sink)
        bind = run_benchmark("bfs-graph500", "smx-bind")
        steals = sink.of_type(WorkStolen)
        assert len(steals) >= 1
        assert adaptive.work_steals == len(steals)
        assert adaptive.busy_cycles_gini < bind.busy_cycles_gini
        assert bind.work_steals == 0

    def test_metrics_registry_agrees_with_stats(self):
        metrics = MetricsSink()
        stats = run_benchmark("bfs-graph500", "adaptive-bind", telemetry=metrics)
        reg = metrics.registry
        assert reg.total("work_stolen") == stats.work_steals >= 1
        assert reg.total("tbs_dispatched") == stats.tbs_dispatched
        assert reg.total("child_launches") == stats.launches
        assert reg.total("queue_overflows") == stats.scheduler_overflow_events
        snapshot = reg.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


# --------------------------------------------------------------------------
# Chrome trace export and schema validation
# --------------------------------------------------------------------------


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        sink = ChromeTraceSink(num_smx=experiment_config().num_smx)
        run_benchmark("bfs-citation", "adaptive-bind", telemetry=sink)
        return sink.trace()

    def test_trace_passes_schema(self, trace):
        assert validate_trace(trace) == []
        assert_valid_trace(trace)  # must not raise

    def test_required_keys_and_monotonic_ts(self, trace):
        last = None
        for event in trace["traceEvents"]:
            assert event["ph"] and "pid" in event
            if event["ph"] == "M":
                continue
            assert "tid" in event and isinstance(event["ts"], (int, float))
            if last is not None:
                assert event["ts"] >= last
            last = event["ts"]

    def test_slices_cover_every_smx(self, trace):
        num_smx = experiment_config().num_smx
        slice_tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert slice_tids == set(range(num_smx))

    def test_instants_and_counters_present(self, trace):
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "i"]
        assert any(n == "steal" for n in names)
        assert any(n.startswith("launch ") for n in names)
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert {"cache hit rate", "thread blocks"} <= counters

    def test_thread_name_metadata(self, trace):
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "SMX 0" in names and "scheduler" in names

    def test_trace_is_json_serializable(self, trace, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(trace))
        assert validate_trace(json.loads(path.read_text())) == []

    def test_write_roundtrip(self, tmp_path):
        sink = ChromeTraceSink()
        run_benchmark("amr", "rr", telemetry=sink)
        written = sink.write(tmp_path / "amr.json")
        loaded = json.loads((tmp_path / "amr.json").read_text())
        assert loaded == json.loads(json.dumps(written))
        assert validate_trace(loaded) == []


class TestTraceValidator:
    def envelope(self, *events):
        return {"traceEvents": list(events)}

    def test_rejects_non_object(self):
        assert validate_trace([]) != []
        assert validate_trace({"notEvents": []}) != []

    def test_rejects_missing_ph_and_pid(self):
        problems = validate_trace(self.envelope({"ts": 0, "tid": 0}))
        assert any("ph" in p for p in problems)
        problems = validate_trace(self.envelope({"ph": "i", "ts": 0, "tid": 0, "s": "t"}))
        assert any("pid" in p for p in problems)

    def test_rejects_negative_and_backward_ts(self):
        bad = self.envelope(
            {"ph": "i", "s": "t", "ts": 5, "pid": 0, "tid": 0},
            {"ph": "i", "s": "t", "ts": 3, "pid": 0, "tid": 0},
        )
        assert any("back in time" in p for p in validate_trace(bad))
        neg = self.envelope({"ph": "i", "s": "t", "ts": -1, "pid": 0, "tid": 0})
        assert any("negative" in p for p in validate_trace(neg))

    def test_rejects_slice_without_duration(self):
        bad = self.envelope({"ph": "X", "ts": 0, "pid": 0, "tid": 0})
        assert any("dur" in p for p in validate_trace(bad))

    def test_rejects_non_numeric_counter(self):
        bad = self.envelope({"ph": "C", "ts": 0, "pid": 0, "tid": 0, "args": {"x": "no"}})
        assert any("numeric" in p for p in validate_trace(bad))

    def test_assert_raises_with_first_problem(self):
        with pytest.raises(TraceValidationError, match="ph"):
            assert_valid_trace(self.envelope({"ts": 0}))


class TestPrometheusExposition:
    """render_prometheus backs the service's GET /metrics endpoint."""

    def test_counter_gets_total_suffix(self):
        from repro.telemetry import render_prometheus

        registry = MetricsRegistry()
        registry.counter("jobs", state="done").inc(3)
        registry.counter("jobs", state="failed").inc()
        text = render_prometheus(registry, namespace="repro")
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{state="done"} 3' in text
        assert 'repro_jobs_total{state="failed"} 1' in text

    def test_gauge_renders_value_and_high_water_mark(self):
        from repro.telemetry import render_prometheus

        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(5)
        gauge.set(2)
        text = render_prometheus(registry)
        assert "repro_queue_depth 2" in text
        assert "repro_queue_depth_max 5" in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.telemetry import render_prometheus

        registry = MetricsRegistry()
        hist = registry.histogram("latency", bounds=(1, 10))
        for value in (0.5, 0.7, 5, 50):
            hist.observe(value)
        text = render_prometheus(registry)
        assert 'repro_latency_bucket{le="1"} 2' in text
        assert 'repro_latency_bucket{le="10"} 3' in text
        assert 'repro_latency_bucket{le="+Inf"} 4' in text
        assert "repro_latency_count 4" in text
        assert "repro_latency_sum 56.2" in text

    def test_label_values_are_escaped(self):
        from repro.telemetry import render_prometheus

        registry = MetricsRegistry()
        registry.counter("odd", path='a"b\\c').inc()
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c"' in text

    def test_empty_registry_renders_empty(self):
        from repro.telemetry import render_prometheus

        assert render_prometheus(MetricsRegistry()) == ""
