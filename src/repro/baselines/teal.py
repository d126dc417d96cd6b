"""TEAL-style baseline: learned allocation proxy + ADMM projection.

TEAL (Xu et al., SIGCOMM 2023) feeds the traffic matrix through a trained
graph neural network to propose per-demand tunnel split ratios, then runs a
few ADMM iterations to push the proposal toward capacity feasibility.  Its
appeal is speed — one forward pass plus cheap iterations — at the price of
allocation quality (94.0% vs LP-all on Deltacom*, paper Figure 10).

We cannot train a GNN offline, so the forward pass is replaced by a
**feature-based allocation policy** with the same role and cost profile:
a vectorized scoring function over (flow, tunnel) features (path weight,
hop count, capacity share) produces softmax split ratios in O(flows ×
tunnels), and an ADMM-like dual loop penalizes overloaded links.  A final
exact projection guarantees feasibility, mirroring TEAL's feasibility
post-processing.  Memory is O(flows × tunnels) — the reason this family
of schemes exhausts memory at hyper-scale (Figure 9's OOM regime).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import checks
from ..obs import monotonic
from ..core.types import FlowAssignment, SiteAllocation, TEResult
from .hash_te import hash_realize

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["TealTE"]

#: Refuse to build (flow, tunnel) tensors beyond this many entries.
MAX_TENSOR_ENTRIES = 50_000_000


class TealTE:
    """Fast approximate TE: scoring forward pass + ADMM-style projection.

    Args:
        admm_iterations: Dual-update iterations (more = better feasibility
            before the final projection, slower).
        rho: Dual step size on relative link overload.
        temperature: Softmax temperature of the scoring pass; lower values
            concentrate traffic on the shortest tunnels.
    """

    scheme_name = "TEAL"

    def __init__(
        self,
        admm_iterations: int = 15,
        rho: float = 0.5,
        temperature: float = 0.3,
    ) -> None:
        checks.nonnegative("admm_iterations", admm_iterations)
        checks.positive("rho", rho)
        checks.positive("temperature", temperature)
        self.admm_iterations = admm_iterations
        self.rho = rho
        self.temperature = temperature

    def solve(
        self, topology: "TwoLayerTopology", demands: "DemandMatrix"
    ) -> TEResult:
        """Allocate all endpoint flows.

        Raises:
            ValueError: if the (flow, tunnel) tensor exceeds
                :data:`MAX_TENSOR_ENTRIES` (hyper-scale OOM analogue).
        """
        start = monotonic()
        catalog = topology.catalog
        network = topology.network

        # Flatten flows across all site pairs.
        flow_volumes: list[np.ndarray] = []
        flow_pair: list[np.ndarray] = []
        max_tunnels = 0
        for k in range(catalog.num_pairs):
            volumes = demands.pair(k).volumes
            flow_volumes.append(volumes)
            flow_pair.append(np.full(volumes.size, k, dtype=np.int64))
            max_tunnels = max(max_tunnels, len(catalog.tunnels(k)))
        volumes = (
            np.concatenate(flow_volumes)
            if flow_volumes
            else np.empty(0, dtype=np.float64)
        )
        pair_of_flow = (
            np.concatenate(flow_pair)
            if flow_pair
            else np.empty(0, dtype=np.int64)
        )
        n_flows = volumes.size
        if n_flows * max(max_tunnels, 1) > MAX_TENSOR_ENTRIES:
            raise ValueError(
                "TEAL tensor too large "
                f"({n_flows} flows x {max_tunnels} tunnels); out of memory "
                "at this scale"
            )
        if n_flows == 0 or max_tunnels == 0:
            return TEResult(
                scheme=self.scheme_name,
                assignment=FlowAssignment.rejecting_all(demands),
                demands=demands,
                satisfied_volume=0.0,
                runtime_s=monotonic() - start,
                stats={"admm_iterations": self.admm_iterations},
            )

        # Per (site pair, tunnel slot): weight, validity, link membership.
        link_index = {
            link.key: idx for idx, link in enumerate(network.links)
        }
        capacities = np.array(
            [link.capacity for link in network.links], dtype=np.float64
        )
        pair_weights = np.full(
            (catalog.num_pairs, max_tunnels), np.inf, dtype=np.float64
        )
        tunnel_links: list[list[list[int]]] = []
        for k in range(catalog.num_pairs):
            links_k: list[list[int]] = []
            for t, tunnel in enumerate(catalog.tunnels(k)):
                pair_weights[k, t] = tunnel.weight
                links_k.append([link_index[key] for key in tunnel.links])
            tunnel_links.append(links_k)

        # "Forward pass": softmax over negative normalized weights — the
        # stand-in for TEAL's trained GNN scoring.
        weights = pair_weights[pair_of_flow]  # (n_flows, max_tunnels)
        finite = np.isfinite(weights)
        norm = np.where(
            finite, weights / np.nanmax(np.where(finite, weights, np.nan)), 0
        )
        scores = np.where(finite, -norm / self.temperature, -np.inf)
        scores -= np.where(
            np.isfinite(scores.max(axis=1, keepdims=True)),
            scores.max(axis=1, keepdims=True),
            0.0,
        )
        expd = np.where(np.isfinite(scores), np.exp(scores), 0.0)
        row_sums = expd.sum(axis=1, keepdims=True)
        ratios = np.divide(
            expd,
            row_sums,
            out=np.zeros_like(expd),
            where=row_sums > 0,
        )

        # ADMM-style dual loop on relative link overload.
        duals = np.zeros(capacities.size, dtype=np.float64)
        for _ in range(self.admm_iterations):
            loads = self._link_loads(
                ratios, volumes, pair_of_flow, tunnel_links, capacities.size,
                catalog.num_pairs, max_tunnels,
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                overload = np.where(
                    capacities > 0, loads / capacities - 1.0, 0.0
                )
            duals = np.maximum(0.0, duals + self.rho * overload)
            if not np.any(overload > 1e-9):
                break
            # Penalize tunnels crossing priced links.
            penalty = np.zeros(
                (catalog.num_pairs, max_tunnels), dtype=np.float64
            )
            for k in range(catalog.num_pairs):
                for t, links_t in enumerate(tunnel_links[k]):
                    penalty[k, t] = duals[links_t].sum() if links_t else 0.0
            # Dampen penalized tunnels, then renormalize each flow's row
            # so the loop *shifts* traffic toward unpriced tunnels rather
            # than shedding it (shedding is the final projection's job).
            damp = np.exp(-penalty[pair_of_flow])
            ratios = ratios * damp
            row_sums = ratios.sum(axis=1, keepdims=True)
            ratios = np.divide(
                ratios,
                row_sums,
                out=np.zeros_like(ratios),
                where=row_sums > 1e-12,
            )

        # Final exact projection: uniformly scale down flows crossing any
        # still-overloaded link until every link fits.
        for _ in range(50):
            loads = self._link_loads(
                ratios, volumes, pair_of_flow, tunnel_links, capacities.size,
                catalog.num_pairs, max_tunnels,
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio_over = np.where(
                    capacities > 0, loads / capacities, 0.0
                )
            worst = ratio_over.max() if ratio_over.size else 0.0
            if worst <= 1.0 + 1e-9:
                break
            scale = np.ones(
                (catalog.num_pairs, max_tunnels), dtype=np.float64
            )
            for k in range(catalog.num_pairs):
                for t, links_t in enumerate(tunnel_links[k]):
                    if links_t:
                        over = ratio_over[links_t].max()
                        if over > 1.0:
                            scale[k, t] = 1.0 / over
            ratios = ratios * scale[pair_of_flow]

        satisfied = float((volumes[:, None] * ratios).sum())

        # Aggregate per-(site pair, tunnel) volumes, then realize them on
        # flows by five-tuple hashing — like NCFlow, TEAL decides at the
        # aggregate level and cannot pin individual flows.
        placed = volumes[:, None] * ratios
        per_pair_tunnel = np.zeros((catalog.num_pairs, max_tunnels))
        np.add.at(per_pair_tunnel, pair_of_flow, placed)
        aggregates = SiteAllocation(
            per_pair=[
                per_pair_tunnel[k, : len(catalog.tunnels(k))].copy()
                for k in range(catalog.num_pairs)
            ]
        )
        assignment, _ = hash_realize(topology, demands, aggregates)
        runtime = monotonic() - start
        return TEResult(
            scheme=self.scheme_name,
            assignment=assignment,
            demands=demands,
            satisfied_volume=satisfied,
            runtime_s=runtime,
            site_allocation=aggregates,
            stats={
                "admm_iterations": self.admm_iterations,
                "fractional": True,
                "tensor_entries": int(n_flows * max_tunnels),
            },
        )

    @staticmethod
    def _link_loads(
        ratios: np.ndarray,
        volumes: np.ndarray,
        pair_of_flow: np.ndarray,
        tunnel_links: list[list[list[int]]],
        num_links: int,
        num_pairs: int,
        max_tunnels: int,
    ) -> np.ndarray:
        """Aggregate (flow, tunnel) placements into per-link loads."""
        placed = volumes[:, None] * ratios  # (n_flows, max_tunnels)
        per_pair_tunnel = np.zeros((num_pairs, max_tunnels))
        np.add.at(per_pair_tunnel, pair_of_flow, placed)
        loads = np.zeros(num_links, dtype=np.float64)
        for k in range(num_pairs):
            for t, links_t in enumerate(tunnel_links[k]):
                if links_t and per_pair_tunnel[k, t] > 0:
                    loads[links_t] += per_pair_tunnel[k, t]
        return loads
