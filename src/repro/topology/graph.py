"""Site-level WAN topology model.

MegaTE's network has two layers (paper §4.2, Figure 5): a densely meshed
*site layer* of WAN router sites interconnected by capacitated links, and an
*endpoint layer* in which each virtual-instance endpoint hangs off exactly
one site.  This module models the first layer.  Endpoint attachment lives in
:mod:`repro.topology.endpoints`.

Links are directed: an undirected WAN fiber is represented as two directed
links with independent capacity accounting, matching how TE tunnels consume
capacity per direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

import networkx as nx

from .. import checks

__all__ = ["Link", "SiteNetwork"]


@dataclass(frozen=True)
class Link:
    """A directed WAN link between two router sites.

    Attributes:
        src: Source site name.
        dst: Destination site name.
        capacity: Usable bandwidth in Gbps.
        latency_ms: One-way propagation latency in milliseconds.
        cost_per_gbps: Monetary cost of carrying 1 Gbps over this link,
            in arbitrary currency units (used by the Figure 17 cost study).
        availability: Probability the link is up in a measurement window
            (used by the Figure 16 availability study).
    """

    src: str
    dst: str
    capacity: float
    latency_ms: float = 1.0
    cost_per_gbps: float = 1.0
    availability: float = 0.9999

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop link at site {self.src!r}")
        for name in ("capacity", "latency_ms", "cost_per_gbps"):
            checks.nonnegative(
                f"{name} on {self.src}->{self.dst}", getattr(self, name)
            )
        checks.fraction("availability", self.availability)

    @property
    def key(self) -> tuple[str, str]:
        """The ``(src, dst)`` pair identifying this directed link."""
        return (self.src, self.dst)


class SiteNetwork:
    """The site layer: router sites plus directed capacitated links.

    This is the graph ``G = (V, E)`` of Table 1.  It supports the operations
    the rest of the system needs: tunnel routing (via a NetworkX view),
    capacity lookup, and failure derivation (removing links).
    """

    def __init__(self, name: str = "wan") -> None:
        self.name = name
        self._sites: dict[str, None] = {}  # insertion-ordered set
        self._links: dict[tuple[str, str], Link] = {}
        self._routing_graph: nx.DiGraph | None = None

    # -- construction -----------------------------------------------------

    def add_site(self, site: str) -> None:
        """Register a router site.  Idempotent."""
        self._sites.setdefault(site, None)
        self._routing_graph = None

    def add_link(self, link: Link) -> None:
        """Add a directed link; both endpoints are auto-registered."""
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.key}")
        self.add_site(link.src)
        self.add_site(link.dst)
        self._links[link.key] = link
        self._routing_graph = None

    def add_duplex_link(
        self,
        a: str,
        b: str,
        capacity: float,
        latency_ms: float = 1.0,
        cost_per_gbps: float = 1.0,
        availability: float = 0.9999,
    ) -> None:
        """Add a bidirectional fiber as two directed links."""
        for src, dst in ((a, b), (b, a)):
            self.add_link(
                Link(
                    src=src,
                    dst=dst,
                    capacity=capacity,
                    latency_ms=latency_ms,
                    cost_per_gbps=cost_per_gbps,
                    availability=availability,
                )
            )

    # -- queries ----------------------------------------------------------

    @property
    def sites(self) -> list[str]:
        """All site names, in insertion order."""
        return list(self._sites)

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    @property
    def links(self) -> list[Link]:
        """All directed links, in insertion order."""
        return list(self._links.values())

    @property
    def num_links(self) -> int:
        return len(self._links)

    def has_site(self, site: str) -> bool:
        return site in self._sites

    def link(self, src: str, dst: str) -> Link:
        """Return the directed link ``src -> dst``.

        Raises:
            KeyError: if no such link exists.
        """
        return self._links[(src, dst)]

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def capacities(self) -> Mapping[tuple[str, str], float]:
        """Capacity of every directed link, keyed by ``(src, dst)``."""
        return {key: link.capacity for key, link in self._links.items()}

    def path_latency_ms(self, path: Iterable[str]) -> float:
        """Sum of link latencies along a site path."""
        hops = list(path)
        return sum(
            self.link(u, v).latency_ms for u, v in zip(hops, hops[1:])
        )

    def path_cost_per_gbps(self, path: Iterable[str]) -> float:
        """Sum of per-Gbps link costs along a site path."""
        hops = list(path)
        return sum(
            self.link(u, v).cost_per_gbps for u, v in zip(hops, hops[1:])
        )

    def path_availability(self, path: Iterable[str]) -> float:
        """Product of link availabilities along a site path."""
        hops = list(path)
        avail = 1.0
        for u, v in zip(hops, hops[1:]):
            avail *= self.link(u, v).availability
        return avail

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links.values())

    def __contains__(self, site: object) -> bool:
        return site in self._sites

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SiteNetwork(name={self.name!r}, sites={self.num_sites}, "
            f"links={self.num_links})"
        )

    # -- derived views ------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """A NetworkX directed graph view for path computations.

        Edge attributes: ``capacity``, ``latency_ms``, ``cost_per_gbps``,
        ``availability``.
        """
        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self._sites)
        for link in self._links.values():
            graph.add_edge(
                link.src,
                link.dst,
                capacity=link.capacity,
                latency_ms=link.latency_ms,
                cost_per_gbps=link.cost_per_gbps,
                availability=link.availability,
            )
        return graph

    def routing_graph(self) -> nx.DiGraph:
        """One shared :meth:`to_networkx` view, built on first use and
        rebuilt after the network changes.  Callers must not mutate it."""
        if self._routing_graph is None:
            self._routing_graph = self.to_networkx()
        return self._routing_graph

    def without_links(
        self, failed: Iterable[tuple[str, str]]
    ) -> "SiteNetwork":
        """A copy of this network with the given directed links removed.

        Used to build failure scenarios (§6.3).  Passing an undirected pair
        twice (both orientations) removes the whole fiber.
        """
        failed_set = set(failed)
        copy = SiteNetwork(name=f"{self.name}-failed")
        for site in self._sites:
            copy.add_site(site)
        for key, link in self._links.items():
            if key not in failed_set:
                copy.add_link(link)
        return copy

    def scaled_capacity(self, factor: float) -> "SiteNetwork":
        """A copy with every link capacity multiplied by ``factor``."""
        checks.nonnegative("factor", factor)
        copy = SiteNetwork(name=self.name)
        for site in self._sites:
            copy.add_site(site)
        for link in self._links.values():
            copy.add_link(replace(link, capacity=link.capacity * factor))
        return copy
