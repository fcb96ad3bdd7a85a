"""Metric primitives and the registry that owns them.

Three familiar primitives — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — keyed by name plus a set of labels, owned by a
:class:`MetricsRegistry`. Components create their handles once (at
construction) and update them on the hot path; creating a handle for an
existing (name, labels) pair returns the same object, so instrumenting
code never needs to coordinate.

When the metrics facet is off, the observation session
(:mod:`repro.observe`) hands out the ``NULL_*`` singletons instead: every mutator is an empty method, so the only cost
a disabled run pays is one no-op call per instrumented operation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NullCounter", "NullGauge", "NullHistogram", "NullRegistry",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM", "NULL_REGISTRY",
    "DURATION_NS_BUCKETS",
]

#: Default histogram buckets for nanosecond durations (1 µs .. 1 s).
DURATION_NS_BUCKETS = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000,
    100_000_000, 1_000_000_000,
)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """An instantaneous value; remembers its high-water mark."""

    __slots__ = ("name", "labels", "value", "high_water")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0
        self.high_water = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount=1) -> None:
        self.set(self.value + amount)

    def dec(self, amount=1) -> None:
        self.value -= amount


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelsKey = (),
                 buckets: Iterable[float] = DURATION_NS_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Owns every metric of an observation session."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        if buckets is None:
            buckets = DURATION_NS_BUCKETS
        return self._get(Histogram, name, labels, buckets=buckets)

    def all_metrics(self) -> List[object]:
        """Every registered metric, sorted by (name, labels)."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def find(self, name: str, **labels):
        """Look up an existing metric or return None (for tests/reports)."""
        return self._metrics.get((name, _labels_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Cross-process transport (repro.exec worker -> parent merge)
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict]:
        """Every metric as a plain picklable dict, sorted by key.

        The inverse of :meth:`merge`: a pool worker snapshots its
        registry at task end and ships the snapshot to the parent.
        """
        out: List[Dict] = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            entry: Dict = {"name": metric.name, "labels": metric.labels,
                           "kind": metric.kind}
            if metric.kind == "counter":
                entry["value"] = metric.value
            elif metric.kind == "gauge":
                entry["value"] = metric.value
                entry["high_water"] = metric.high_water
            else:
                entry["buckets"] = metric.buckets
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            out.append(entry)
        return out

    def merge(self, snapshot: Iterable[Dict]) -> None:
        """Fold a worker snapshot into this registry.

        Counters and histograms accumulate; gauges adopt the snapshot
        value (last writer wins, matching in-process execution order)
        while high-water marks take the maximum.
        """
        for entry in snapshot:
            labels = dict(entry["labels"])
            kind = entry["kind"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = self.gauge(entry["name"], **labels)
                gauge.set(entry["value"])
                if entry["high_water"] > gauge.high_water:
                    gauge.high_water = entry["high_water"]
            else:
                hist = self.histogram(entry["name"],
                                      buckets=entry["buckets"], **labels)
                hist.sum += entry["sum"]
                hist.count += entry["count"]
                if hist.buckets == tuple(entry["buckets"]):
                    for i, count in enumerate(entry["counts"]):
                        hist.counts[i] += count


# ----------------------------------------------------------------------
# Disabled-mode no-op twins. Shared singletons: allocation-free and
# state-free, so handing them out costs nothing and leaks nothing.
# ----------------------------------------------------------------------
class NullCounter:
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value) -> None:
        pass

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry twin held by sessions whose metrics facet is off."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, buckets=None, **labels) -> NullHistogram:
        return NULL_HISTOGRAM

    def all_metrics(self) -> List[object]:
        return []

    def find(self, name: str, **labels):
        return None

    def snapshot(self) -> List[Dict]:
        return []

    def merge(self, snapshot) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
