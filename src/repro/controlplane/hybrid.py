"""Hybrid synchronization (§8, "Hybrid approach on TE configuration
synchronization").

The paper's discussion: eventual consistency is cheap but takes up to a
poll period to converge, losing traffic after failures; "a small part of
the flows account for most of the network traffic", so a *hybrid* keeps
persistent connections only for heavy-traffic endpoints (pushed instantly)
and lets the long tail pull.  This module implements that future-work
design and quantifies the trade: controller resources vs traffic exposed
during a failure-triggered reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import checks
from .sync import (
    CPU_PERCENT_PER_CONNECTION,
    MEMORY_MB_PER_CONNECTION,
    TARGET_CPU_UTILIZATION,
    ResourceEstimate,
    required_shards,
)

__all__ = ["HybridPlan", "plan_hybrid_sync", "exposure_after_failure"]


@dataclass(frozen=True)
class HybridPlan:
    """A hybrid synchronization configuration.

    Attributes:
        pushed_endpoints: Endpoints held on persistent connections (the
            heavy hitters, updated instantly).
        pulled_endpoints: Endpoints on asynchronous pull.
        pushed_volume_fraction: Fraction of total traffic volume owned by
            the pushed endpoints.
        resources: Controller-side resource estimate (cores/memory for
            the persistent connections + 1 core / 1 GB base + DB shards
            for the pulled tail).
    """

    pushed_endpoints: int
    pulled_endpoints: int
    pushed_volume_fraction: float
    resources: ResourceEstimate


def plan_hybrid_sync(
    endpoint_volumes: np.ndarray,
    volume_coverage: float = 0.9,
    spread_window_s: float = 10.0,
) -> HybridPlan:
    """Choose which endpoints get persistent connections.

    Endpoints are ranked by traffic volume; the smallest prefix covering
    ``volume_coverage`` of total volume is pushed, the rest pull.

    Args:
        endpoint_volumes: Per-endpoint traffic volume (any unit).
        volume_coverage: Fraction of total volume to protect with
            persistent connections.
        spread_window_s: Poll-spreading window for the pulled tail.
    """
    checks.in_range("volume_coverage", volume_coverage, 0, 1, "(]")
    volumes = np.asarray(endpoint_volumes, dtype=np.float64)
    if volumes.ndim != 1 or volumes.size == 0:
        raise ValueError("endpoint_volumes must be a non-empty vector")
    checks.nonnegative_array("endpoint_volumes", volumes)
    order = np.argsort(-volumes, kind="stable")
    cumulative = np.cumsum(volumes[order])
    total = float(cumulative[-1])
    if total <= 0:
        pushed = 0
    else:
        pushed = int(
            np.searchsorted(cumulative, volume_coverage * total) + 1
        )
        pushed = min(pushed, volumes.size)
    pulled = volumes.size - pushed
    pushed_volume = float(cumulative[pushed - 1]) if pushed else 0.0

    cpu_percent = pushed * CPU_PERCENT_PER_CONNECTION
    cores = max(1.0, cpu_percent / TARGET_CPU_UTILIZATION)
    memory_gb = max(
        1.0, pushed * MEMORY_MB_PER_CONNECTION / 1024.0
    )
    return HybridPlan(
        pushed_endpoints=pushed,
        pulled_endpoints=pulled,
        pushed_volume_fraction=(
            pushed_volume / total if total > 0 else 0.0
        ),
        resources=ResourceEstimate(
            cpu_cores=cores,
            memory_gb=memory_gb,
            database_shards=required_shards(
                pulled, spread_window_s=spread_window_s
            ),
        ),
    )


def exposure_after_failure(
    endpoint_volumes: np.ndarray,
    plan: HybridPlan,
    poll_period_s: float = 10.0,
    affected_fraction: float = 1.0,
    database_outage_s: float = 0.0,
) -> float:
    """Traffic-seconds exposed to stale configs after a failure publish.

    Pushed endpoints converge instantly; pulled endpoints converge
    uniformly over one poll period (mean delay = period/2).  The metric is
    volume-weighted staleness in (volume × seconds), normalized by total
    volume — i.e. the mean seconds of stale routing a unit of traffic
    experiences.

    Args:
        endpoint_volumes: Per-endpoint volumes (same vector the plan was
            built from).
        plan: The hybrid plan.
        poll_period_s: The pulled tail's poll period.
        affected_fraction: Fraction of traffic actually crossing failed
            tunnels (scales the exposure).
        database_outage_s: Seconds the TE database is unreachable after
            the publish (a correlated sync-plane fault): every pulled
            endpoint's convergence is delayed by the outage on top of
            its poll slot, so the mean stale delay grows by exactly the
            outage.  Pushed endpoints are unaffected.
    """
    checks.positive("poll_period_s", poll_period_s)
    checks.fraction("affected_fraction", affected_fraction)
    checks.nonnegative("database_outage_s", database_outage_s)
    volumes = np.asarray(endpoint_volumes, dtype=np.float64)
    order = np.argsort(-volumes, kind="stable")
    total = float(volumes.sum())
    if total <= 0:
        return 0.0
    pulled_volume = float(volumes[order[plan.pushed_endpoints :]].sum())
    mean_delay = database_outage_s + poll_period_s / 2.0
    return affected_fraction * (pulled_volume / total) * mean_delay
