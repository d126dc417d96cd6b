"""Per-flow latency computation from TE assignments.

The paper measures packet latency two ways (§6.1, *Metrics*): for TWAN the
sum of measured per-hop latencies along the path; for the public topologies
the number of hops.  Both are supported, plus an optional M/M/1-style
congestion factor so saturated links inflate latency — used by the
production-style studies where load matters.

The pass is columnar: per-tunnel latency is one flat vector over the
catalog's global tunnel ids (for the congestion-aware variant, an
``np.add.reduceat`` over the link incidence after loads come out of two
``np.bincount`` passes), and every assigned flow's latency is one gather
through its global tunnel id — no per-pair Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from ..core.qos import QoSClass
from .flowsim import _per_tunnel_volumes, _realized_tunnels

if TYPE_CHECKING:
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology

__all__ = ["FlowLatencies", "compute_flow_latencies"]

LatencyMetric = Literal["ms", "hops"]


@dataclass
class FlowLatencies:
    """Latency of every assigned flow, with QoS labels for slicing.

    Attributes:
        latencies: Latency per assigned flow (ms or hops per ``metric``).
        volumes: Demand volume of each assigned flow.
        qos: QoS class value of each assigned flow.
        metric: Which latency metric the values carry.
    """

    latencies: np.ndarray
    volumes: np.ndarray
    qos: np.ndarray
    metric: LatencyMetric

    def for_qos(self, qos: QoSClass) -> np.ndarray:
        """Latencies of one QoS class's flows."""
        return self.latencies[self.qos == qos.value]

    def percentile(
        self, q: float, qos: QoSClass | None = None
    ) -> float:
        """Latency percentile, optionally within one QoS class."""
        values = (
            self.latencies if qos is None else self.for_qos(qos)
        )
        if values.size == 0:
            return float("nan")
        return float(np.percentile(values, q))

    def volume_weighted_mean(self, qos: QoSClass | None = None) -> float:
        """Demand-weighted mean latency."""
        if qos is None:
            lat, vol = self.latencies, self.volumes
        else:
            mask = self.qos == qos.value
            lat, vol = self.latencies[mask], self.volumes[mask]
        total = vol.sum()
        return float((lat * vol).sum() / total) if total > 0 else float("nan")


def compute_flow_latencies(
    topology: "TwoLayerTopology",
    result: "TEResult",
    metric: LatencyMetric = "ms",
    congestion_aware: bool = False,
) -> FlowLatencies:
    """Latency experienced by each assigned flow of a TE result.

    Args:
        topology: The topology the result was computed on.
        result: A TE result with an integral assignment.
        metric: ``"ms"`` sums link latencies (TWAN style); ``"hops"``
            counts hops (public-topology style).
        congestion_aware: Inflate each link's latency by ``1 / (1 - ρ)``
            (ρ = utilization, capped at 0.95) before summing — a standard
            M/M/1 queueing approximation.

    Returns:
        A :class:`FlowLatencies` over assigned flows only (rejected flows
        carry no packets).
    """
    arrays = topology.catalog.columnar()
    table = result.demands.table
    assigned = result.assignment.assigned_tunnel

    valid, global_tunnel = _realized_tunnels(arrays, table, assigned)

    if metric == "hops":
        tunnel_latency = arrays.num_hops
    elif congestion_aware:
        link_loads = arrays.link_loads(
            _per_tunnel_volumes(arrays, table, valid, global_tunnel)
        )
        # ρ = min(0.95, load / capacity); zero-capacity links pin at 0.95.
        rho = np.full(arrays.num_links, 0.95, dtype=np.float64)
        has_cap = arrays.capacity > 0
        rho[has_cap] = np.minimum(
            0.95, link_loads[has_cap] / arrays.capacity[has_cap]
        )
        factor = 1.0 / (1.0 - rho)
        tunnel_latency = arrays.sum_over_links(
            arrays.latency_ms * factor
        )
    else:
        tunnel_latency = arrays.weight

    if bool(valid.any()):
        return FlowLatencies(
            latencies=tunnel_latency[global_tunnel[valid]],
            volumes=table.volumes[valid],
            qos=table.qos[valid],
            metric=metric,
        )
    return FlowLatencies(
        latencies=np.empty(0),
        volumes=np.empty(0),
        qos=np.empty(0, dtype=np.int8),
        metric=metric,
    )
