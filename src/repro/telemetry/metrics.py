"""Metrics registry: counters, gauges and histograms over telemetry.

:class:`MetricsRegistry` is a small labeled-metrics store in the style of
production schedulers' instrumentation: a metric is addressed by name
plus a set of ``key=value`` labels (``tbs_dispatched{smx=3, priority=1}``),
created lazily on first touch. :class:`MetricsSink` populates a registry
from the event bus, per SMX, priority level and cluster. A run's
condensed figures (steals, busy-cycle Gini, queue high water) are
:class:`~repro.gpu.stats.SimStats` fields; the sink is for breakdowns
the stats do not keep.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

from repro.telemetry.events import (
    CacheSample,
    ChildLaunched,
    KernelDispatched,
    QueueOverflow,
    TBCompleted,
    TBDispatched,
    TelemetryEvent,
    TelemetrySink,
    WarpStall,
    WorkStolen,
)

LabelKey = tuple[tuple[str, object], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value, tracking its maximum along the way."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.max: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Fixed-bucket histogram (upper bounds; the last bucket is +inf)."""

    __slots__ = ("bounds", "counts", "total", "sum")

    DEFAULT_BOUNDS = (1, 4, 16, 64, 256, 1024, 4096)

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """Lazily-created labeled metrics, addressed ``name{**labels}``."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}

    def _get(self, kind, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(**kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: Sequence[float] = Histogram.DEFAULT_BOUNDS, **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def value(self, name: str, **labels) -> float:
        """Scalar view of one metric (counter/gauge value, histogram mean)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            raise KeyError(f"no metric {name!r} with labels {labels}")
        return metric.mean if isinstance(metric, Histogram) else metric.value

    def total(self, name: str) -> float:
        """Sum of a counter over every label combination (0 if absent)."""
        return sum(
            m.value
            for (n, _), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        )

    def labels_of(self, name: str) -> list[dict]:
        """Every label set under which ``name`` was touched."""
        return [dict(k) for (n, k) in self._metrics if n == name]

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{name: [{labels, kind, ...fields}]}``."""
        out: dict[str, list[dict]] = {}
        for (name, key), metric in sorted(self._metrics.items(), key=lambda kv: kv[0]):
            entry: dict = {"labels": {k: v for k, v in key}}
            if isinstance(metric, Counter):
                entry.update(kind="counter", value=metric.value)
            elif isinstance(metric, Gauge):
                entry.update(kind="gauge", value=metric.value, max=metric.max)
            else:
                entry.update(
                    kind="histogram",
                    bounds=list(metric.bounds),
                    counts=list(metric.counts),
                    total=metric.total,
                    sum=metric.sum,
                )
            out.setdefault(name, []).append(entry)
        return out


def _prom_labels(labels: dict) -> str:
    """Render one label set as ``{k="v",...}`` (empty string when bare)."""
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        text = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{key}="{text}"')
    return "{" + ",".join(parts) + "}"


def render_prometheus(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """Render a :class:`MetricsRegistry` in Prometheus text format.

    This is what the service's ``GET /metrics`` endpoint serves. The
    mapping follows the exposition-format conventions:

    * counters get a ``_total`` suffix,
    * gauges render as-is plus a ``_max`` companion gauge (the
      high-water mark :class:`Gauge` tracks),
    * histograms render cumulative ``_bucket{le=...}`` series ending in
      ``le="+Inf"``, plus ``_sum`` and ``_count``.

    Metric names are prefixed with ``namespace_`` and label values are
    escaped per the format (backslash, double quote, newline).
    """
    lines: list[str] = []
    for name, entries in registry.snapshot().items():
        full = f"{namespace}_{name}" if namespace else name
        kind = entries[0]["kind"]
        if kind == "counter":
            lines.append(f"# TYPE {full}_total counter")
            for entry in entries:
                labels = _prom_labels(entry["labels"])
                lines.append(f"{full}_total{labels} {entry['value']}")
        elif kind == "gauge":
            lines.append(f"# TYPE {full} gauge")
            for entry in entries:
                labels = _prom_labels(entry["labels"])
                lines.append(f"{full}{labels} {entry['value']}")
            lines.append(f"# TYPE {full}_max gauge")
            for entry in entries:
                labels = _prom_labels(entry["labels"])
                lines.append(f"{full}_max{labels} {entry['max']}")
        else:
            lines.append(f"# TYPE {full} histogram")
            for entry in entries:
                base = dict(entry["labels"])
                cumulative = 0
                for bound, count in zip(entry["bounds"], entry["counts"]):
                    cumulative += count
                    labels = _prom_labels({**base, "le": bound})
                    lines.append(f"{full}_bucket{labels} {cumulative}")
                labels = _prom_labels({**base, "le": "+Inf"})
                lines.append(f"{full}_bucket{labels} {entry['total']}")
                plain = _prom_labels(base)
                lines.append(f"{full}_sum{plain} {entry['sum']}")
                lines.append(f"{full}_count{plain} {entry['total']}")
    return "\n".join(lines) + "\n" if lines else ""


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    0 = perfectly balanced (every SMX equally busy), approaching 1 as all
    work concentrates on one SMX — the load-imbalance axis on which
    Adaptive-Bind's stealing improves over plain SMX-Bind.
    """
    n = len(values)
    if n == 0:
        return 0.0
    if any(v < 0 for v in values):
        raise ValueError("gini is defined for non-negative values")
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((i + 1) * v for i, v in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


class MetricsSink(TelemetrySink):
    """Aggregates the event stream into a :class:`MetricsRegistry`.

    Per-SMX and per-priority-level labels follow the event fields; the
    raw stream is not retained, so the sink is safe on arbitrarily long
    runs.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def emit(self, event: TelemetryEvent) -> None:
        reg = self.registry
        kind = type(event)
        if kind is TBDispatched:
            reg.counter("tbs_dispatched", smx=event.smx_id, priority=event.priority).inc()
            if event.is_dynamic:
                reg.histogram("child_wait_cycles", priority=event.priority).observe(
                    event.wait_cycles
                )
        elif kind is TBCompleted:
            reg.counter("tbs_completed", smx=event.smx_id).inc()
        elif kind is WorkStolen:
            reg.counter("work_stolen", smx=event.thief_smx_id).inc()
            reg.counter("work_stolen_from", cluster=event.victim_cluster).inc()
        elif kind is QueueOverflow:
            reg.counter("queue_overflows", cluster=event.cluster, level=event.level).inc()
            reg.gauge("queue_entries", cluster=event.cluster).set(event.total_entries)
        elif kind is WarpStall:
            reg.histogram("warp_stall_cycles", smx=event.smx_id).observe(event.cycles)
        elif kind is ChildLaunched:
            reg.counter("child_launches", smx=event.smx_id).inc()
        elif kind is KernelDispatched:
            reg.counter(
                "kernels_dispatched", device=event.is_device, priority=event.priority
            ).inc()
        elif kind is CacheSample:
            reg.gauge("l1_hit_rate").set(event.l1_hit_rate)
            reg.gauge("l2_hit_rate").set(event.l2_hit_rate)
            reg.gauge("queued_tbs").set(event.queued_tbs)
            reg.gauge("resident_tbs").set(event.resident_tbs)
