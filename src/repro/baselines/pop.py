"""POP-style baseline: random partitioning of the endpoint problem.

POP (Narayanan et al., SOSP 2021) accelerates granular allocation
problems by splitting the *clients* (here: endpoint-pair demands)
uniformly at random into ``P`` subproblems, giving each subproblem
``1/P`` of every resource, solving them independently, and unioning the
results — feasible by construction, near-optimal when demands are many
and small.

The MegaTE paper rejects POP for its setting (§4.2): "these traffic
flows whose originated endpoints connect to the same sites should be
split into the same sub-problem and the random partitioning in POP could
drop these flows into different sub-problems."  Concretely: with
indivisible flows, a flow can only be placed if it fits in its
subproblem's ``1/P`` capacity slice, so random partitioning degrades as
``P`` grows or flows get lumpy — the effect the partitioning ablation
bench measures against MegaTE's structure-aware two-layer contraction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import checks
from ..obs import monotonic
from ..core.exact import solve_max_all_flow
from ..core.formulation import MaxAllFlowProblem
from ..core.types import SiteAllocation, TEResult
from ..topology.contraction import TwoLayerTopology
from ..topology.graph import Link, SiteNetwork
from ..topology.tunnels import TunnelCatalog
from ..traffic.demand import DemandMatrix, PairDemands
from .hash_te import hash_realize

if TYPE_CHECKING:
    pass

__all__ = ["POPTE"]


class POPTE:
    """Random-partition decomposition of the endpoint MCF.

    Args:
        num_partitions: Subproblems ``P``; each receives ``1/P`` of every
            link's capacity and a uniformly random ``1/P`` of the flows.
        seed: Partitioning seed.
        objective_epsilon: The ε of objective (1); ``None`` auto-scales.
    """

    scheme_name = "POP"

    def __init__(
        self,
        num_partitions: int = 4,
        seed: int = 0,
        objective_epsilon: float | None = None,
    ) -> None:
        checks.in_range("num_partitions", num_partitions, 1, np.inf, "[)")
        self.num_partitions = num_partitions
        self.seed = seed
        self.objective_epsilon = objective_epsilon

    def solve(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        """Partition, solve, union.

        Raises:
            ValueError: if a subproblem exceeds the exact-solver size cap.
        """
        start = monotonic()
        rng = np.random.default_rng(self.seed)
        catalog = topology.catalog

        # Assign every flow a partition.
        partition_of: list[np.ndarray] = [
            rng.integers(0, self.num_partitions, size=pair.num_pairs)
            for pair in demands
        ]

        # A shared 1/P-capacity copy of the network.
        shrunken = SiteNetwork(name=f"{topology.network.name}-pop")
        for site in topology.network.sites:
            shrunken.add_site(site)
        for link in topology.network.links:
            shrunken.add_link(
                Link(
                    src=link.src,
                    dst=link.dst,
                    capacity=link.capacity / self.num_partitions,
                    latency_ms=link.latency_ms,
                    cost_per_gbps=link.cost_per_gbps,
                    availability=link.availability,
                )
            )
        sub_catalog = TunnelCatalog(shrunken)
        for k, (src, dst) in enumerate(catalog.pairs):
            sub_catalog.add_pair(
                src, dst, catalog.tunnels(k), allow_empty=True
            )
        sub_topology = TwoLayerTopology(
            network=shrunken,
            catalog=sub_catalog,
            layout=topology.layout,
        )

        aggregates = SiteAllocation(
            per_pair=[
                np.zeros(len(catalog.tunnels(k)))
                for k in range(catalog.num_pairs)
            ]
        )
        satisfied = 0.0
        sub_runtimes: list[float] = []
        for p in range(self.num_partitions):
            sub_pairs: list[PairDemands] = []
            for k, pair in enumerate(demands):
                mask = partition_of[k] == p
                sub_pairs.append(pair.select(mask))
            sub_demands = DemandMatrix(sub_pairs)
            if sub_demands.total_demand <= 0:
                sub_runtimes.append(0.0)
                continue
            problem = MaxAllFlowProblem(
                sub_topology,
                sub_demands,
                epsilon=self.objective_epsilon,
            )
            t0 = monotonic()
            solution = solve_max_all_flow(problem, relaxed=True)
            sub_runtimes.append(monotonic() - t0)
            satisfied += solution.satisfied_volume
            for k, frac in enumerate(solution.fractions):
                if frac.size == 0:
                    continue
                volumes = sub_demands.pair(k).volumes
                aggregates.per_pair[k][: frac.shape[1]] += (
                    volumes[:, None] * frac
                ).sum(axis=0)

        # Union: capacities were disjoint slices, so the combined
        # aggregate is feasible; realize it on flows by hashing (POP is
        # an aggregate allocator in our data plane, like NCFlow/TEAL).
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
                "num_partitions": self.num_partitions,
                "sub_lp_seconds": sub_runtimes,
                "parallel_runtime_s": max(sub_runtimes, default=0.0),
                "fractional": True,
            },
        )
