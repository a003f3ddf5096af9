"""Prometheus-style metrics for the query service.

A deliberately tiny, dependency-free subset of the ``prometheus_client``
data model: :class:`Counter`, :class:`Gauge` and :class:`Histogram`
families with optional labels, collected in a :class:`MetricsRegistry`
that renders the text exposition format (``text/plain; version=0.0.4``)
for the ``/metrics`` endpoint.

The API mirrors the upstream idiom so the call sites read familiarly::

    JOBS_TOTAL.labels(state="completed").inc()
    QUEUE_DEPTH.set(manager.queue_depth())
    JOB_WALL_SECONDS.observe(job.run_seconds)

Every metric family belongs to exactly one registry; the service creates
a registry per instance so tests never share counter state.  All
operations are thread-safe (one lock per family — contention is
irrelevant at control-plane rates).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: latency-shaped, in seconds.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

LabelKey = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Render a sample the way Prometheus expects (ints without dot)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(names: Tuple[str, ...], values: LabelKey) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{value}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing: label handling, per-family lock, registration."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, object] = {}
        if registry is not None:
            registry.register(self)

    def labels(self, **labels: str):
        """The child for one label combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _unlabelled(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._make_child()
                self._children[()] = child
            return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> List[str]:
        """Exposition lines for this family (without HELP/TYPE)."""
        with self._lock:
            items = sorted(self._children.items())
        lines = []
        for key, child in items:
            lines.extend(self._child_samples(key, child))
        return lines

    def _child_samples(self, key: LabelKey, child) -> List[str]:
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self.samples())
        return "\n".join(lines)


class _Value:
    """One mutable sample, with its own lock-free float (guarded by the
    family lock on mutation)."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    def get(self) -> float:
        return self._value


class _CounterChild(_Value):
    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount


class _GaugeChild(_Value):
    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class Counter(_Metric):
    """Monotonically increasing count (e.g. jobs by terminal state)."""

    kind = "counter"

    def _make_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)

    def value(self, **labels: str) -> float:
        child = self.labels(**labels) if labels else self._unlabelled()
        return child.get()

    def _child_samples(self, key, child):
        suffix = _label_suffix(self.labelnames, key)
        return [f"{self.name}{suffix} {_format_value(child.get())}"]


class Gauge(_Metric):
    """A value that goes up and down (queue depth, cache bytes)."""

    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._unlabelled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabelled().dec(amount)

    def value(self, **labels: str) -> float:
        child = self.labels(**labels) if labels else self._unlabelled()
        return child.get()

    def _child_samples(self, key, child):
        suffix = _label_suffix(self.labelnames, key)
        return [f"{self.name}{suffix} {_format_value(child.get())}"]


class _HistogramChild:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1


class Histogram(_Metric):
    """Cumulative-bucket histogram (wall-time / cost distributions)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.buckets = tuple(sorted(buckets))
        super().__init__(name, help_text, labelnames, registry)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._make_child()
                self._children[()] = child
            child.observe(value)

    def _child_samples(self, key, child):
        lines = []
        cumulative_names = list(self.labelnames) + ["le"]
        for bound, count in zip(child.buckets, child.counts):
            suffix = _label_suffix(
                tuple(cumulative_names), key + (_format_value(bound),)
            )
            lines.append(f"{self.name}_bucket{suffix} {count}")
        inf_suffix = _label_suffix(tuple(cumulative_names), key + ("+Inf",))
        lines.append(f"{self.name}_bucket{inf_suffix} {child.count}")
        plain = _label_suffix(self.labelnames, key)
        lines.append(f"{self.name}_sum{plain} {_format_value(child.total)}")
        lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


class MetricsRegistry:
    """Ordered collection of metric families with one text renderer."""

    def __init__(self):
        self._metrics: List[_Metric] = []
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"duplicate metric name {metric.name!r}")
            self._metrics.append(metric)
        return metric

    def counter(self, name: str, help_text: str, labelnames=()) -> Counter:
        return Counter(name, help_text, labelnames, registry=self)

    def gauge(self, name: str, help_text: str, labelnames=()) -> Gauge:
        return Gauge(name, help_text, labelnames, registry=self)

    def histogram(
        self, name: str, help_text: str, labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return Histogram(
            name, help_text, labelnames, buckets=buckets, registry=self
        )

    def render(self) -> str:
        """The full ``/metrics`` page (text exposition format)."""
        with self._lock:
            metrics = list(self._metrics)
        return "\n".join(m.render() for m in metrics) + "\n"


def parse_metrics(text: str) -> Dict[str, float]:
    """Parse an exposition page back into ``{sample_name: value}``.

    The inverse the tests and :class:`~repro.service.client.ServiceClient`
    use to assert on scraped values; sample names keep their label suffix
    verbatim (``psgl_service_jobs_total{state="completed"}``).
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
