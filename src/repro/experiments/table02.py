"""Table 2: the four evaluation topologies and their endpoint scales.

Builds each topology at a configurable fraction of the paper's endpoint
counts and reports sites, fibers, and endpoints attached, alongside the
paper's full-scale numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import checks
from ..topology import WeibullEndpointModel, attach_endpoints, topology_by_name
from .common import PAPER_ENDPOINTS

__all__ = ["TopologyRow", "run"]


@dataclass(frozen=True)
class TopologyRow:
    """One Table 2 row.

    Attributes:
        name: Topology name.
        sites: Router sites.
        fibers: Duplex fibers (directed links / 2).
        endpoints_built: Endpoints attached at the harness scale.
        endpoints_paper: The paper's full-scale endpoint count.
        scale_factor: built / paper.
    """

    name: str
    sites: int
    fibers: int
    endpoints_built: int
    endpoints_paper: int
    scale_factor: float


def run(scale: float = 0.01, seed: int = 0) -> list[TopologyRow]:
    """Build all Table 2 topologies at ``scale`` × the paper's endpoints."""
    checks.in_range("scale", scale, 0, 1, "(]")
    rows: list[TopologyRow] = []
    for name, paper_count in PAPER_ENDPOINTS.items():
        network = topology_by_name(name)
        target = max(network.num_sites, round(paper_count * scale))
        layout = attach_endpoints(
            network,
            model=WeibullEndpointModel(),
            total_endpoints=target,
            seed=seed,
        )
        rows.append(
            TopologyRow(
                name=network.name,
                sites=network.num_sites,
                fibers=network.num_links // 2,
                endpoints_built=layout.num_endpoints,
                endpoints_paper=paper_count,
                scale_factor=layout.num_endpoints / paper_count,
            )
        )
    return rows
