"""Unified observability: spans, metrics, and exporters for the TE loop.

Every timing, counter, and latency record in the repo flows through this
package — the ad-hoc ``time.perf_counter()`` calls and hand-rolled stats
dicts it replaces are banned by lint outside ``repro.obs`` and
``benchmarks/``.  Three pieces:

* :mod:`repro.obs.tracing` — a zero-dependency span tracer: nested
  spans with attributes, a thread-safe in-process collector, JSONL
  serialization.  A span always measures its duration (so solver stats
  stay populated), but is only *collected* while tracing is enabled.
* :mod:`repro.obs.metrics` — a metrics registry of labeled counters,
  gauges, and log-linear-bucket histograms, with snapshot/merge support
  for the shard worker processes.
* :mod:`repro.obs.export` — exporters: JSONL span/metric events and
  Prometheus text-exposition format.

Telemetry is **disabled by default** (set ``REPRO_OBS=1`` to enable at
import, or call :func:`set_enabled`).  The disabled path is budgeted at
<= 2% of the 10-interval TWAN replay and held to that by a perf-smoke
assertion; enabling telemetry never changes solver results (the replay
digest is bit-identical either way).

Span names are dotted ``subsystem.operation`` (``te.solve``,
``te.phase.lp_solve``, ``sim.interval``); metric names follow Prometheus
conventions, ``megate_<noun>_<unit>`` with ``_total`` counters (see
docs/ARCHITECTURE.md "Observability").
"""

from __future__ import annotations

import os

from .export import (
    registry_to_json,
    registry_to_prometheus,
    spans_to_jsonl,
    summarize_spans,
)
from .metrics import (
    MetricsRegistry,
    get_registry,
    log_linear_buckets,
)
from .tracing import Span, Tracer, get_tracer, monotonic

__all__ = [
    "Span",
    "Tracer",
    "MetricsRegistry",
    "get_tracer",
    "get_registry",
    "monotonic",
    "log_linear_buckets",
    "spans_to_jsonl",
    "summarize_spans",
    "registry_to_prometheus",
    "registry_to_json",
    "set_enabled",
    "telemetry_enabled",
    "reset",
]


def set_enabled(enabled: bool) -> None:
    """Turn span collection and metric recording on or off globally."""
    get_tracer().enabled = enabled
    get_registry().enabled = enabled


def telemetry_enabled() -> bool:
    """True when either the tracer or the registry is collecting."""
    return get_tracer().enabled or get_registry().enabled


def reset() -> None:
    """Drop all collected spans and metric series (keep enablement)."""
    get_tracer().reset()
    get_registry().reset()


if os.environ.get("REPRO_OBS", "").strip() not in ("", "0"):
    set_enabled(True)
