"""Metrics registry: labeled counters, gauges, log-linear histograms.

Prometheus-shaped but dependency-free.  A *family* is one named metric
(``megate_tedb_queries_total``) with fixed label names; each distinct
label-value combination is a *series* (child) holding the actual state.
Families and children are thread-safe — control-plane threads may
record concurrently.

Recording is gated on :attr:`MetricsRegistry.enabled`: a disabled
``inc``/``set``/``observe`` is one attribute load and a branch, which is
what keeps the whole-loop disabled overhead inside the 2% budget.

For process-style workers that cannot share a registry object,
:meth:`MetricsRegistry.snapshot` and :meth:`MetricsRegistry.merge` give
a commutative way to fold worker-local registries into the parent:
counters and histograms add, gauges last-write-wins.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

from .. import checks

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "log_linear_buckets",
]


def log_linear_buckets(
    start: float = 1e-4,
    decades: int = 8,
    mantissas: Iterable[float] = (1.0, 2.0, 5.0),
) -> tuple[float, ...]:
    """Log-linear bucket boundaries: linear mantissas per decade.

    The default spans 100 µs to 1000 s in a 1-2-5 progression — wide
    enough to hold both a triage pass (~100 µs) and a cold hyperscale
    solve (minutes) in one histogram with ~3 significant steps per
    decade.
    """
    checks.positive("start", start)
    checks.in_range("decades", decades, 1, math.inf, "[)")
    bounds = [
        start * m * 10.0**d
        for d in range(decades)
        for m in sorted(mantissas)
    ]
    return tuple(bounds)


class _Family:
    """Shared machinery: one named metric and its labeled children."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _default_child(self):
        """The unlabeled series (only valid when labelnames is empty)."""
        return self.labels()

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """All (label values, child) pairs, insertion-ordered."""
        with self._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("_family", "value")

    def __init__(self, family: Counter) -> None:
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._family.registry.enabled:
            return
        if not amount >= 0:  # per call, so inline; a failure names it
            checks.nonnegative("amount", amount)
        with self._family._lock:
            self.value += amount


class Counter(_Family):
    """Monotonically increasing count (``_total`` naming convention)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self)

    def inc(self, amount: float = 1.0) -> None:
        if not self.registry.enabled:
            return
        self._default_child().inc(amount)


class _GaugeChild:
    __slots__ = ("_family", "value")

    def __init__(self, family: Gauge) -> None:
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._family.registry.enabled:
            return
        with self._family._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._family.registry.enabled:
            return
        with self._family._lock:
            self.value += amount


class Gauge(_Family):
    """A value that can go up and down (last write wins on merge)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self)

    def set(self, value: float) -> None:
        if not self.registry.enabled:
            return
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self.registry.enabled:
            return
        self._default_child().inc(amount)


class _HistogramChild:
    __slots__ = ("_family", "bucket_counts", "sum", "count")

    def __init__(self, family: Histogram) -> None:
        self._family = family
        # One count per boundary plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(family.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._family.registry.enabled:
            return
        buckets = self._family.buckets
        lo, hi = 0, len(buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._family._lock:
            self.bucket_counts[lo] += 1
            self.sum += value
            self.count += 1


class Histogram(_Family):
    """Log-linear-bucket distribution of observed values."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        if buckets is None:
            buckets = log_linear_buckets()
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self)

    def observe(self, value: float) -> None:
        if not self.registry.enabled:
            return
        self._default_child().observe(value)


class MetricsRegistry:
    """Thread-safe home of every metric family.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented
    modules call them at use sites without coordinating registration
    (re-declaring with a different type or label set is an error).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(self, name, help, labelnames, **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    def reset(self) -> None:
        """Drop every family and series (keep enablement)."""
        with self._lock:
            self._families.clear()

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable copy of every series' current state."""
        out: dict = {}
        for family in self.families():
            series = []
            for labelvalues, child in family.series():
                if family.kind == "histogram":
                    state: dict = {
                        "bucket_counts": list(child.bucket_counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    state = {"value": child.value}
                series.append(
                    {"labels": list(labelvalues), "state": state}
                )
            entry: dict = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
            out[family.name] = entry
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a worker registry's :meth:`snapshot` into this one.

        Counters and histograms add; gauges take the snapshot's value.
        Families absent here are created with the snapshot's shape.
        Merging bypasses the ``enabled`` gate — a parent folding worker
        results wants them regardless of its own recording state.
        """
        kinds = {
            "counter": self.counter,
            "gauge": self.gauge,
        }
        for name, entry in snapshot.items():
            kind = entry["kind"]
            labelnames = tuple(entry["labelnames"])
            if kind == "histogram":
                family = self.histogram(
                    name,
                    entry["help"],
                    labelnames,
                    buckets=tuple(entry["buckets"]),
                )
            else:
                family = kinds[kind](name, entry["help"], labelnames)
            for item in entry["series"]:
                labels = dict(zip(labelnames, item["labels"]))
                child = family.labels(**labels)
                state = item["state"]
                with family._lock:
                    if kind == "counter":
                        child.value += state["value"]
                    elif kind == "gauge":
                        child.value = state["value"]
                    else:
                        counts = state["bucket_counts"]
                        if len(counts) != len(child.bucket_counts):
                            raise ValueError(
                                f"metric {name!r}: bucket layout "
                                "mismatch on merge"
                            )
                        for i, c in enumerate(counts):
                            child.bucket_counts[i] += c
                        child.sum += state["sum"]
                        child.count += state["count"]


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module shares."""
    return _REGISTRY
