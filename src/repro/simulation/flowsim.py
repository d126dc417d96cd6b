"""Flow-level simulator: realize a TE assignment on the network.

Takes a topology and an integral TE assignment and computes the realized
network state: per-link loads and utilization, per-flow delivery (a flow on
an overloaded link suffers proportional loss), and aggregate carried
volume.  This is the "[Simulation]" harness behind the paper's evaluation
figures — TE schemes propose, the flow simulator disposes.

Realization is columnar: the assignment's flat ``assigned_tunnel`` array is
mapped to global tunnel ids against the catalog's cached
:class:`~repro.topology.tunnels.CatalogArrays`, per-tunnel carried volume
and per-link loads fall out of two ``np.bincount`` passes, and per-tunnel
delivery ratios out of one ``np.minimum.reduceat`` over the link
incidence — no per-pair Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.flowtable import PairViews
from ..obs import get_tracer

if TYPE_CHECKING:
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology

__all__ = ["LinkState", "SimulationOutcome", "simulate"]


@dataclass(frozen=True)
class LinkState:
    """Realized state of one directed link.

    Attributes:
        load: Offered traffic (Gbps).
        capacity: Link capacity (Gbps).
    """

    load: float
    capacity: float

    @property
    def utilization(self) -> float:
        """Offered load over capacity (may exceed 1 when oversubscribed)."""
        return self.load / self.capacity if self.capacity > 0 else np.inf

    @property
    def delivery_ratio(self) -> float:
        """Fraction of offered traffic the link actually carries."""
        if self.load <= self.capacity:
            return 1.0
        return self.capacity / self.load if self.load > 0 else 1.0


@dataclass
class SimulationOutcome:
    """Realized network state for one TE interval.

    Attributes:
        link_states: Per directed link key.
        delivered_volume: Total demand volume delivered end to end, after
            proportional loss on overloaded links.
        offered_volume: Total volume of assigned flows.
        flow_delivery: For each site pair, per-flow delivered fraction
            (0 for rejected flows): zero-copy views of one flat array.
    """

    link_states: dict[tuple[str, str], LinkState]
    delivered_volume: float
    offered_volume: float
    flow_delivery: PairViews

    @property
    def max_utilization(self) -> float:
        """Peak link utilization across the WAN."""
        if not self.link_states:
            return 0.0
        return max(s.utilization for s in self.link_states.values())

    def utilization_of(self, src: str, dst: str) -> float:
        return self.link_states[(src, dst)].utilization


def _realized_tunnels(
    arrays,
    table,
    assigned: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map a flat assignment onto global tunnel ids.

    Returns ``(valid, global_tunnel)`` where ``valid`` masks flows
    carrying traffic (assigned a tunnel index that exists in their
    pair's tunnel set) and ``global_tunnel`` is each flow's global
    tunnel id (meaningful where ``valid``).
    """
    if table.num_flows == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    pair_of_flow = table.pair_ids()
    valid = (assigned >= 0) & (
        assigned < arrays.tunnels_per_pair()[pair_of_flow]
    )
    global_tunnel = arrays.tunnel_offsets[pair_of_flow] + np.where(
        valid, assigned, 0
    )
    return valid, global_tunnel


def _per_tunnel_volumes(
    arrays, table, valid: np.ndarray, global_tunnel: np.ndarray
) -> np.ndarray:
    """The carried volume per global tunnel of :func:`_realized_tunnels`."""
    return np.bincount(
        global_tunnel[valid],
        weights=table.volumes[valid],
        minlength=arrays.num_tunnels,
    )


def simulate(
    topology: "TwoLayerTopology", result: "TEResult"
) -> SimulationOutcome:
    """Realize an assignment: compute loads, loss, and delivered volume.

    Each flow rides its assigned tunnel; when a link is oversubscribed,
    every flow crossing it is shed proportionally (the fluid approximation
    of FIFO drops).  A flow's delivered fraction is the minimum delivery
    ratio along its tunnel.
    """
    with get_tracer().span("sim.flowsim") as sp:
        arrays = topology.catalog.columnar()
        table = result.demands.table
        assigned = result.assignment.assigned_tunnel
        volumes = table.volumes

        valid, global_tunnel = _realized_tunnels(arrays, table, assigned)
        link_loads = arrays.link_loads(
            _per_tunnel_volumes(arrays, table, valid, global_tunnel)
        )

        link_states = {
            key: LinkState(
                load=float(link_loads[i]),
                capacity=float(arrays.capacity[i]),
            )
            for i, key in enumerate(arrays.link_keys)
        }

        # Per-link delivery ratio, then per-tunnel = min over its links.
        link_ratio = np.ones(arrays.num_links, dtype=np.float64)
        over = link_loads > arrays.capacity
        link_ratio[over] = arrays.capacity[over] / link_loads[over]
        tunnel_ratio = arrays.min_over_links(link_ratio)

        fractions = np.zeros(table.num_flows, dtype=np.float64)
        if table.num_flows:
            fractions[valid] = tunnel_ratio[global_tunnel[valid]]
        # Offered intentionally counts every flow with a non-negative
        # index, even one pointing past its pair's tunnel set (legacy
        # semantics).
        offered = float(volumes[assigned >= 0].sum())
        delivered = float((volumes * fractions).sum())
        sp.set_attribute("num_flows", int(table.num_flows))
        sp.set_attribute("delivered_volume", delivered)
    return SimulationOutcome(
        link_states=link_states,
        delivered_volume=delivered,
        offered_volume=offered,
        flow_delivery=PairViews(fractions, table.offsets),
    )
