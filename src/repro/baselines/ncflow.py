"""NCFlow-style baseline: cluster decomposition of the endpoint LP.

NCFlow (Abuzaid et al., NSDI 2021) "divides the network topology into
multiple disjoint clusters and solves the TE optimization subproblem in
each cluster in parallel, and the results from these clusters are merged to
obtain a global allocation" (paper §6.1).

This reproduction decomposes the endpoint-granular MCF by *cluster pair*:

1. Sites are partitioned into clusters (greedy modularity over the site
   graph).
2. Inter-cluster traffic is restricted to tunnels consistent with the
   *contracted cluster route* (NCFlow routes aggregated flows on the
   cluster graph, losing the site-level path diversity that detours
   through other clusters would offer), and each commodity is limited to
   ``paths_per_commodity`` tunnels — NCFlow's formulation routes one path
   per commodity through the contracted graph, which is its main source
   of lost flow relative to an unrestricted MCF.
3. Every link's capacity is pre-split among cluster-pair bundles in
   proportion to each bundle's demand routed over its shortest tunnels.
4. Each bundle solves an independent endpoint-granular LP on its capacity
   share (these solves are the parallelizable sub-problems).
5. Merging is trivially feasible because capacity shares are disjoint —
   steps 2-3 are exactly where optimality is lost, which is why NCFlow
   trails LP-all and MegaTE in satisfied demand (Figure 10).

Like the original, the sub-problems still scale with the number of
endpoint pairs, so hyper-scale instances exhaust the size cap — the repo's
analogue of the paper's out-of-memory failures (Figure 9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx
import numpy as np

from .. import checks
from ..obs import monotonic
from ..core.exact import solve_max_all_flow
from ..core.formulation import MaxAllFlowProblem
from ..core.types import SiteAllocation, TEResult
from ..topology.contraction import TwoLayerTopology
from ..topology.tunnels import TunnelCatalog
from ..traffic.demand import DemandMatrix
from .hash_te import hash_realize

if TYPE_CHECKING:
    from ..topology.graph import SiteNetwork

__all__ = ["NCFlowTE"]


class NCFlowTE:
    """Clustered decomposition of the endpoint MCF.

    Args:
        num_clusters: Site clusters to form; ``None`` uses ``⌈√|V|⌉``
            (NCFlow's usual operating point).
        paths_per_commodity: Tunnels each site pair may use (NCFlow's
            formulation routes one path per commodity).
        objective_epsilon: The ε of objective (1); ``None`` auto-scales.
    """

    scheme_name = "NCFlow"

    def __init__(
        self,
        num_clusters: int | None = None,
        paths_per_commodity: int = 2,
        objective_epsilon: float | None = None,
    ) -> None:
        if num_clusters is not None:
            checks.in_range("num_clusters", num_clusters, 1, np.inf, "[)")
        checks.in_range("paths_per_commodity", paths_per_commodity, 1, np.inf, "[)")
        self.num_clusters = num_clusters
        self.paths_per_commodity = paths_per_commodity
        self.objective_epsilon = objective_epsilon

    # -- clustering --------------------------------------------------------

    def cluster_sites(self, network: "SiteNetwork") -> dict[str, int]:
        """Partition sites into clusters; returns site -> cluster id."""
        target = self.num_clusters or max(
            1, int(np.ceil(np.sqrt(network.num_sites)))
        )
        graph = network.to_networkx().to_undirected()
        communities = nx.algorithms.community.greedy_modularity_communities(
            graph, cutoff=min(target, network.num_sites),
            best_n=min(target, network.num_sites),
        )
        mapping: dict[str, int] = {}
        for cluster_id, members in enumerate(communities):
            for site in members:
                mapping[site] = cluster_id
        return mapping

    # -- solving -----------------------------------------------------------

    def solve(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        """Decompose, solve bundles, merge.

        Raises:
            ValueError: if a bundle exceeds the exact-solver size cap
                (hyper-scale OOM analogue).
        """
        start = monotonic()
        clusters = self.cluster_sites(topology.network)
        catalog = topology.catalog

        # Group site pairs into cluster-pair bundles.
        bundles: dict[tuple[int, int], list[int]] = {}
        for k, (src, dst) in enumerate(catalog.pairs):
            key = (clusters[src], clusters[dst])
            bundles.setdefault(key, []).append(k)

        allowed_tunnels = self._restrict_to_cluster_routes(
            topology, clusters
        )
        shares = self._capacity_shares(
            topology, demands, bundles, allowed_tunnels
        )

        aggregates = SiteAllocation(
            per_pair=[
                np.zeros(len(catalog.tunnels(k)))
                for k in range(catalog.num_pairs)
            ]
        )
        satisfied = 0.0
        sub_runtimes: list[float] = []
        for bundle_key, pair_ids in bundles.items():
            sub_satisfied, sub_aggregates, sub_time = self._solve_bundle(
                topology,
                demands,
                pair_ids,
                shares[bundle_key],
                allowed_tunnels,
            )
            satisfied += sub_satisfied
            sub_runtimes.append(sub_time)
            for k, agg in zip(pair_ids, sub_aggregates):
                aggregates.per_pair[k] = agg
        # Data-plane realization: aggregated tunnel shares reach individual
        # flows by five-tuple hashing — NCFlow has no per-flow pinning.
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
                "num_clusters": len(set(clusters.values())),
                "num_bundles": len(bundles),
                "sub_lp_seconds": sub_runtimes,
                # Parallel wall-clock = slowest sub-problem (merged cost is
                # negligible); reported for the Fig. 9 runtime comparison.
                "parallel_runtime_s": max(sub_runtimes, default=0.0),
                "fractional": True,
            },
        )

    def _restrict_to_cluster_routes(
        self,
        topology: TwoLayerTopology,
        clusters: dict[str, int],
    ) -> dict[int, list[int]]:
        """Allowed tunnel indices per site pair under cluster routing.

        Inter-cluster traffic must follow the shortest route on the
        contracted cluster graph: tunnels whose site path visits a
        different cluster sequence are dropped (falling back to the
        shortest tunnel when nothing matches, so no pair goes dark).
        Intra-cluster pairs keep tunnels confined to their cluster.
        """
        catalog = topology.catalog
        cluster_graph = nx.Graph()
        cluster_graph.add_nodes_from(set(clusters.values()))
        for link in topology.network.links:
            ca, cb = clusters[link.src], clusters[link.dst]
            if ca == cb:
                continue
            w = link.latency_ms
            if (
                not cluster_graph.has_edge(ca, cb)
                or cluster_graph[ca][cb]["weight"] > w
            ):
                cluster_graph.add_edge(ca, cb, weight=w)

        def cluster_sequence(path: tuple[str, ...]) -> tuple[int, ...]:
            seq: list[int] = []
            for site in path:
                c = clusters[site]
                if not seq or seq[-1] != c:
                    seq.append(c)
            return tuple(seq)

        allowed: dict[int, list[int]] = {}
        for k, (src, dst) in enumerate(catalog.pairs):
            tunnels = catalog.tunnels(k)
            if not tunnels:
                allowed[k] = []
                continue
            ca, cb = clusters[src], clusters[dst]
            if ca == cb:
                keep = [
                    i
                    for i, t in enumerate(tunnels)
                    if all(clusters[s] == ca for s in t.path)
                ]
            else:
                try:
                    route = tuple(
                        nx.shortest_path(
                            cluster_graph, ca, cb, weight="weight"
                        )
                    )
                except nx.NetworkXNoPath:
                    route = ()
                keep = [
                    i
                    for i, t in enumerate(tunnels)
                    if cluster_sequence(t.path) == route
                ]
            keep = keep or [0]  # shortest tunnel as a lifeline
            allowed[k] = keep[: self.paths_per_commodity]
        return allowed

    def _capacity_shares(
        self,
        topology: TwoLayerTopology,
        demands: DemandMatrix,
        bundles: dict[tuple[int, int], list[int]],
        allowed_tunnels: dict[int, list[int]],
    ) -> dict[tuple[int, int], dict[tuple[str, str], float]]:
        """Pre-split link capacity among bundles by shortest-tunnel demand."""
        catalog = topology.catalog
        site_demands = demands.site_demands()
        loads: dict[tuple[int, int], dict[tuple[str, str], float]] = {
            key: {} for key in bundles
        }
        total_load: dict[tuple[str, str], float] = {}
        for key, pair_ids in bundles.items():
            for k in pair_ids:
                tunnels = catalog.tunnels(k)
                if not tunnels or not allowed_tunnels[k]:
                    continue
                for link_key in tunnels[allowed_tunnels[k][0]].links:
                    loads[key][link_key] = (
                        loads[key].get(link_key, 0.0) + site_demands[k]
                    )
                    total_load[link_key] = (
                        total_load.get(link_key, 0.0) + site_demands[k]
                    )
        # Which bundles can reach each link through any allowed tunnel —
        # needed to divide links the demand estimate left unclaimed.
        reachable: dict[tuple[str, str], set[tuple[int, int]]] = {}
        for key, pair_ids in bundles.items():
            for k in pair_ids:
                tunnels = catalog.tunnels(k)
                for t_idx in allowed_tunnels[k]:
                    for link_key in tunnels[t_idx].links:
                        reachable.setdefault(link_key, set()).add(key)

        shares: dict[tuple[int, int], dict[tuple[str, str], float]] = {}
        for key in bundles:
            share: dict[tuple[str, str], float] = {}
            for link in topology.network.links:
                used = total_load.get(link.key, 0.0)
                claimants = reachable.get(link.key, set())
                if used > 0:
                    share[link.key] = (
                        link.capacity
                        * loads[key].get(link.key, 0.0)
                        / used
                    )
                elif claimants:
                    # Unclaimed by the estimate: split equally among the
                    # bundles that can reach it.  Capacity shares must stay
                    # disjoint or the merged solution could overload.
                    share[link.key] = (
                        link.capacity / len(claimants)
                        if key in claimants
                        else 0.0
                    )
                else:
                    share[link.key] = link.capacity
            shares[key] = share
        return shares

    def _solve_bundle(
        self,
        topology: TwoLayerTopology,
        demands: DemandMatrix,
        pair_ids: list[int],
        share: dict[tuple[str, str], float],
        allowed_tunnels: dict[int, list[int]],
    ) -> tuple[float, list[np.ndarray], float]:
        """Endpoint LP for one bundle on its capacity share.

        Returns:
            ``(satisfied_volume, per-pair aggregate tunnel volumes,
            lp_seconds)`` — aggregates are indexed over the *original*
            tunnel lists of each pair.
        """
        from ..topology.graph import Link, SiteNetwork

        base = topology.network
        sub_net = SiteNetwork(name=f"{base.name}-bundle")
        for site in base.sites:
            sub_net.add_site(site)
        for link in base.links:
            sub_net.add_link(
                Link(
                    src=link.src,
                    dst=link.dst,
                    capacity=share[link.key],
                    latency_ms=link.latency_ms,
                    cost_per_gbps=link.cost_per_gbps,
                    availability=link.availability,
                )
            )
        sub_catalog = TunnelCatalog(sub_net)
        tunnel_index_maps: list[list[int]] = []
        for k in pair_ids:
            src, dst = topology.catalog.pairs[k]
            tunnels = topology.catalog.tunnels(k)
            keep = allowed_tunnels[k]
            sub_catalog.add_pair(
                src, dst, [tunnels[i] for i in keep], allow_empty=True
            )
            # Allowed indices are ascending and tunnels were already
            # weight-sorted, so sub index j maps to original keep[j].
            tunnel_index_maps.append(list(keep))
        sub_topology = TwoLayerTopology(
            network=sub_net, catalog=sub_catalog, layout=topology.layout
        )
        sub_demands = DemandMatrix([demands.pair(k) for k in pair_ids])
        problem = MaxAllFlowProblem(
            sub_topology, sub_demands, epsilon=self.objective_epsilon
        )
        t0 = monotonic()
        solution = solve_max_all_flow(problem, relaxed=True)
        elapsed = monotonic() - t0
        aggregates: list[np.ndarray] = []
        for local_k, (k, index_map) in enumerate(
            zip(pair_ids, tunnel_index_maps)
        ):
            n_tunnels = len(topology.catalog.tunnels(k))
            agg = np.zeros(n_tunnels, dtype=np.float64)
            frac = solution.fractions[local_k]
            if frac.size and index_map:
                volumes = demands.pair(k).volumes
                per_sub_tunnel = (volumes[:, None] * frac).sum(axis=0)
                for sub_t, orig_t in enumerate(index_map):
                    agg[orig_t] = per_sub_tunnel[sub_t]
            aggregates.append(agg)
        return solution.satisfied_volume, aggregates, elapsed
