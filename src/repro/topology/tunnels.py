"""TE tunnel (pre-established path) generation.

For each site pair ``k`` the paper pre-establishes a tunnel set ``T_k``
(Table 1); each tunnel ``t`` has a weight ``w_t`` "determined by the network
latency where the higher value means larger network latency".  We generate
tunnels as the k-shortest simple paths by latency and set ``w_t`` to the
path's one-way latency in milliseconds, so tunnels within a set are already
ordered by ascending ``w_t`` as Appendix A.2 assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .. import checks
from ..core.flowtable import csr_offsets
from ..obs import get_tracer
from .graph import SiteNetwork

__all__ = [
    "Tunnel",
    "TunnelCatalog",
    "CatalogArrays",
    "build_tunnels",
]


@dataclass(frozen=True)
class Tunnel:
    """A pre-established path between one site pair.

    Attributes:
        src: Ingress site.
        dst: Egress site.
        path: Site sequence from ``src`` to ``dst`` inclusive.
        weight: Tunnel weight ``w_t`` (one-way latency in ms).
        cost_per_gbps: Monetary cost of the path per Gbps carried.
        availability: End-to-end availability (product over links).
    """

    src: str
    dst: str
    path: tuple[str, ...]
    weight: float
    cost_per_gbps: float = 0.0
    availability: float = 1.0

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a tunnel needs at least two sites")
        if self.path[0] != self.src or self.path[-1] != self.dst:
            raise ValueError("tunnel path must run src -> dst")
        if len(set(self.path)) != len(self.path):
            raise ValueError("tunnel path must be a simple path")

    @property
    def links(self) -> tuple[tuple[str, str], ...]:
        """Directed links this tunnel traverses — the ``L(t, e) = 1`` set."""
        return tuple(zip(self.path, self.path[1:]))

    @property
    def num_hops(self) -> int:
        """Hop count, the simplified latency metric for non-TWAN topologies."""
        return len(self.path) - 1

    def uses_link(self, src: str, dst: str) -> bool:
        """Whether ``L(t, (src, dst)) == 1``."""
        return (src, dst) in self.links


class CatalogArrays:
    """Columnar (CSR) view of one catalog's tunnels and link incidence.

    The flat twin of :class:`TunnelCatalog`, built once and cached: global
    tunnel ids are CSR-sliced by site pair, per-tunnel attributes are flat
    vectors, and the tunnel→link incidence is a second CSR level — which
    is what lets the realization layers (flow simulator, latency, metric
    passes) process a whole interval with ``np.bincount`` / ``reduceat``
    instead of looping per pair and per tunnel in Python.

    Attributes:
        tunnel_offsets: int64 per site pair — pair ``k``'s tunnels are
            global ids ``tunnel_offsets[k]:tunnel_offsets[k + 1]``, in
            catalog (ascending-weight) order.
        weight / num_hops / cost_per_gbps / availability: per global
            tunnel (float64).
        link_offsets: int64 per global tunnel — tunnel ``t`` traverses
            incidence rows ``link_offsets[t]:link_offsets[t + 1]``.
        link_ids: int64 link index per incidence row, in path order.
        row_tunnel: int64 global tunnel id per incidence row.
        link_keys: Directed link key per link index (network order).
        link_index: Key → link index.
        capacity / latency_ms: per link (float64).
    """

    def __init__(self, catalog: "TunnelCatalog") -> None:
        network = catalog.network
        links = network.links
        self.link_keys: list[tuple[str, str]] = [
            link.key for link in links
        ]
        self.link_index: dict[tuple[str, str], int] = {
            key: i for i, key in enumerate(self.link_keys)
        }
        self.capacity = np.array(
            [link.capacity for link in links], dtype=np.float64
        )
        self.latency_ms = np.array(
            [link.latency_ms for link in links], dtype=np.float64
        )

        tunnel_lists = catalog._tunnels
        self.tunnel_offsets = csr_offsets(
            [len(ts) for ts in tunnel_lists]
        )
        num_tunnels = int(self.tunnel_offsets[-1])
        self.num_tunnels = num_tunnels
        self.weight = np.empty(num_tunnels, dtype=np.float64)
        self.num_hops = np.empty(num_tunnels, dtype=np.float64)
        self.cost_per_gbps = np.empty(num_tunnels, dtype=np.float64)
        self.availability = np.empty(num_tunnels, dtype=np.float64)
        link_counts = np.empty(num_tunnels, dtype=np.int64)
        link_ids: list[int] = []
        t = 0
        for tunnel_list in tunnel_lists:
            for tunnel in tunnel_list:
                self.weight[t] = tunnel.weight
                self.num_hops[t] = tunnel.num_hops
                self.cost_per_gbps[t] = tunnel.cost_per_gbps
                self.availability[t] = tunnel.availability
                keys = tunnel.links
                link_counts[t] = len(keys)
                link_ids.extend(self.link_index[k] for k in keys)
                t += 1
        self.link_offsets = csr_offsets(link_counts)
        self.link_ids = np.asarray(link_ids, dtype=np.int64)
        self.row_tunnel = np.repeat(
            np.arange(num_tunnels, dtype=np.int64), link_counts
        )

    @property
    def num_links(self) -> int:
        return self.capacity.size

    def tunnels_per_pair(self) -> np.ndarray:
        """``|T_k|`` per site pair (int64)."""
        return np.diff(self.tunnel_offsets)

    def link_loads(self, per_tunnel_volume: np.ndarray) -> np.ndarray:
        """Per-link load from per-(global-)tunnel carried volume."""
        if self.link_ids.size == 0:
            return np.zeros(self.num_links, dtype=np.float64)
        return np.bincount(
            self.link_ids,
            weights=per_tunnel_volume[self.row_tunnel],
            minlength=self.num_links,
        )

    def min_over_links(self, per_link: np.ndarray) -> np.ndarray:
        """Per-tunnel minimum of a per-link quantity (e.g. delivery)."""
        out = np.ones(self.num_tunnels, dtype=np.float64)
        if self.num_tunnels == 0:
            return out
        # Every tunnel has >= 1 link (paths span >= 2 sites), so each
        # reduceat segment is non-empty.
        np.minimum(
            out,
            np.minimum.reduceat(
                per_link[self.link_ids], self.link_offsets[:-1]
            ),
            out=out,
        )
        return out

    def sum_over_links(self, per_link: np.ndarray) -> np.ndarray:
        """Per-tunnel sum of a per-link quantity (e.g. latency)."""
        if self.num_tunnels == 0:
            return np.zeros(0, dtype=np.float64)
        return np.add.reduceat(
            per_link[self.link_ids], self.link_offsets[:-1]
        )


class TunnelCatalog:
    """Tunnel sets ``{T_k}`` for the site pairs of interest.

    Site pairs are ordered; ``pairs[k]`` is the k-th site pair and
    ``tunnels(k)`` (or ``tunnels_for(src, dst)``) its tunnel list, sorted by
    ascending weight.  :meth:`columnar` exposes the cached CSR view the
    bulk realization passes consume.
    """

    def __init__(self, network: SiteNetwork) -> None:
        self.network = network
        self._pairs: list[tuple[str, str]] = []
        self._index: dict[tuple[str, str], int] = {}
        self._tunnels: list[list[Tunnel]] = []
        self._columnar: CatalogArrays | None = None

    def add_pair(
        self,
        src: str,
        dst: str,
        tunnels: Sequence[Tunnel],
        allow_empty: bool = False,
    ) -> int:
        """Register a site pair and its tunnel set; returns its index ``k``.

        Args:
            src: Ingress site.
            dst: Egress site.
            tunnels: The pair's tunnel set (sorted by weight internally).
            allow_empty: Permit an empty tunnel set — used when projecting
                a catalog onto a failed network leaves a pair unroutable.
        """
        key = (src, dst)
        if key in self._index:
            raise ValueError(f"site pair {key} already registered")
        ordered = sorted(tunnels, key=lambda t: t.weight)
        if not ordered and not allow_empty:
            raise ValueError(f"site pair {key} has no tunnels")
        for tunnel in ordered:
            if (tunnel.src, tunnel.dst) != key:
                raise ValueError("tunnel does not belong to this site pair")
        k = len(self._pairs)
        self._pairs.append(key)
        self._index[key] = k
        self._tunnels.append(list(ordered))
        self._columnar = None  # flat view is stale once pairs change
        return k

    def columnar(self) -> CatalogArrays:
        """The cached CSR view of this catalog (built on first use)."""
        if self._columnar is None:
            self._columnar = CatalogArrays(self)
        return self._columnar

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """Ordered site pairs — the index set ``K``."""
        return list(self._pairs)

    @property
    def num_pairs(self) -> int:
        return len(self._pairs)

    def pair_index(self, src: str, dst: str) -> int:
        """The index ``k`` of a site pair."""
        return self._index[(src, dst)]

    def has_pair(self, src: str, dst: str) -> bool:
        return (src, dst) in self._index

    def tunnels(self, k: int) -> list[Tunnel]:
        """Tunnel set ``T_k`` (ascending weight)."""
        return list(self._tunnels[k])

    def tunnels_for(self, src: str, dst: str) -> list[Tunnel]:
        return self.tunnels(self.pair_index(src, dst))

    def all_tunnels(self) -> Iterator[tuple[int, int, Tunnel]]:
        """Iterate ``(k, t_index, tunnel)`` over every tunnel."""
        for k, tunnel_list in enumerate(self._tunnels):
            for t_index, tunnel in enumerate(tunnel_list):
                yield k, t_index, tunnel

    def restricted_to_network(self, network: SiteNetwork) -> "TunnelCatalog":
        """Drop tunnels using links absent from ``network`` (failures, §6.3).

        Site pairs keep their indices; a pair whose tunnels are all dead is
        retained with an empty tunnel list so demand accounting still sees
        it (its flows simply cannot be placed).
        """
        catalog = TunnelCatalog(network)
        for (src, dst), tunnel_list in zip(self._pairs, self._tunnels):
            alive = [
                t
                for t in tunnel_list
                if all(network.has_link(u, v) for u, v in t.links)
            ]
            catalog.add_pair(src, dst, alive, allow_empty=True)
        return catalog


def _k_shortest_paths(
    graph: nx.DiGraph, src: str, dst: str, k: int
) -> list[list[str]]:
    try:
        paths = nx.shortest_simple_paths(graph, src, dst, weight="latency_ms")
        return list(islice(paths, k))
    except nx.NetworkXNoPath:
        return []


class _LatencyRouter:
    """Shortest ``latency_ms`` paths on one routing graph, searched in C
    wherever the answer cannot depend on who searches.

    Holds a CSR twin of ``graph``'s ``latency_ms`` attribute.  A query
    runs ``scipy.sparse.csgraph.dijkstra`` from the source, walks the
    predecessor chain to a path ``P`` of length ``L = dist[dst]`` and
    certifies it: any other ``src -> dst`` path last joins ``P`` at some
    ``v`` over an in-edge ``(u, v)`` not on ``P``, so it is at least
    ``dist[u] + w(u, v) + (L - dist[v])`` long.  When the smallest such
    bound clears ``L`` by ``1e-9 * max(1, L)`` — about 10^4 times any
    float summation error — ``P`` is the unique shortest path and every
    correct algorithm returns it.  Otherwise (a tie, a near-tie, no
    finite path) the query goes to ``nx.shortest_path`` on ``graph``, so
    ties still break by ``networkx``'s adjacency order.

    :meth:`penalise` scales a path's links on the graph and the CSR
    alike and :meth:`restore` puts the saved values back, so the two stay
    equal bit for bit.  The tree of a source under unpenalised weights is
    kept and shared by all its destinations.

    Attributes:
        trees / certified / deferred: Dijkstra trees computed in C,
            queries answered from one, queries handed to ``networkx``.
    """

    def __init__(self, graph: nx.DiGraph) -> None:
        self.graph = graph
        self._nodes = list(graph)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        # Edge ids follow graph.edges(): grouped by tail, in node order.
        self._edge = {hop: e for e, hop in enumerate(graph.edges())}
        self._attrs = [attrs for _, _, attrs in graph.edges(data=True)]
        tails = [self._index[u] for u, _ in self._edge]
        heads = [self._index[v] for _, v in self._edge]
        self._tail = np.array(tails, dtype=np.intp)
        self._head = np.array(heads, dtype=np.intp)
        num_nodes = len(self._nodes)
        self._csr = sparse.csr_matrix(
            (
                np.array(
                    [attrs["latency_ms"] for attrs in self._attrs],
                    dtype=np.float64,
                ),
                self._head,
                np.searchsorted(self._tail, np.arange(num_nodes + 1)),
            ),
            shape=(num_nodes, num_nodes),
        )
        self._weights = self._csr.data  # penalised in place
        # Per edge (u, v): the other edges into v — where a rival path
        # could leave the tree path's suffix.
        into: list[list[int]] = [[] for _ in self._nodes]
        for e, v in enumerate(heads):
            into[v].append(e)
        self._rivals = [
            np.array([r for r in into[v] if r != e], dtype=np.intp)
            for e, v in enumerate(heads)
        ]
        self._saved: dict[int, float] = {}  # edge id -> unpenalised latency
        self._trees: dict[int, tuple[np.ndarray, list[int]]] = {}
        self.trees = self.certified = self.deferred = 0

    def _tree(self, source: int) -> tuple[np.ndarray, list[int]]:
        """``(dist, pred)`` from ``source`` under the current weights."""
        tree = None if self._saved else self._trees.get(source)
        if tree is None:
            dist, pred = csgraph.dijkstra(
                self._csr, indices=source, return_predecessors=True
            )
            tree = dist, pred.tolist()
            self.trees += 1
            if not self._saved:
                self._trees[source] = tree
        return tree

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """What ``nx.shortest_path(graph, src, dst, "latency_ms")`` returns.

        Raises:
            nx.NetworkXNoPath: ``dst`` is unreachable from ``src``.
        """
        source, node = self._index[src], self._index[dst]
        dist, pred = self._tree(source)
        length = float(dist[node])
        if node != source and math.isfinite(length):
            nodes = self._nodes
            path = [dst]
            while node != source:
                node = pred[node]
                path.append(nodes[node])
            path.reverse()
            rivals = np.concatenate(
                [self._rivals[self._edge[hop]] for hop in zip(path, path[1:])]
            )
            bound = (
                dist[self._tail[rivals]]
                + self._weights[rivals]
                + (length - dist[self._head[rivals]])
            )
            if bound.min(initial=np.inf) > length + 1e-9 * max(1.0, length):
                self.certified += 1
                return path
        self.deferred += 1
        return nx.shortest_path(self.graph, src, dst, weight="latency_ms")

    def penalise(self, path: Sequence[str], factor: float) -> None:
        """Multiply the latency of every link on ``path`` by ``factor``."""
        for hop in zip(path, path[1:]):
            e = self._edge[hop]
            attrs = self._attrs[e]
            self._saved.setdefault(e, attrs["latency_ms"])
            attrs["latency_ms"] *= factor
            self._weights[e] = attrs["latency_ms"]

    def restore(self) -> None:
        """Undo every :meth:`penalise` since the last restore, exactly."""
        for e, latency in self._saved.items():
            self._attrs[e]["latency_ms"] = self._weights[e] = latency
        self._saved.clear()


def _diverse_paths(
    router: _LatencyRouter,
    src: str,
    dst: str,
    k: int,
    penalty: float = 8.0,
) -> list[list[str]]:
    """Penalty-based diverse shortest paths.

    Repeatedly takes the shortest path and multiplies its links' weights
    by ``penalty``, so subsequent paths avoid already-used links when an
    alternative exists.  This mirrors how production TE pre-establishes
    tunnel sets: a handful of genuinely different routes, not k
    near-identical variants of one route (which is what plain k-shortest
    simple paths returns on dense graphs).

    The penalties are applied to the router's graph itself and undone
    before returning (a graph copy per site pair was two thirds of the
    all-pairs catalog build); its weights are unchanged on every exit.
    """
    paths: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    try:
        while len(paths) < k and attempts < 3 * k:
            attempts += 1
            try:
                path = router.shortest_path(src, dst)
            except nx.NetworkXNoPath:
                break
            key = tuple(path)
            if key not in seen:
                seen.add(key)
                paths.append(path)
            router.penalise(path, penalty)
    finally:
        router.restore()
    return paths


def build_tunnels(
    network: SiteNetwork,
    site_pairs: Iterable[tuple[str, str]] | None = None,
    tunnels_per_pair: int = 4,
    diverse: bool = True,
) -> TunnelCatalog:
    """Pre-establish tunnels for the given site pairs.

    Args:
        network: The site layer.
        site_pairs: Ordered site pairs needing tunnels.  ``None`` means all
            ordered pairs of distinct sites (viable only for small networks).
        tunnels_per_pair: ``|T_k|`` upper bound; fewer when the topology
            offers fewer simple paths.
        diverse: Select link-diverse tunnels via penalty-based routing
            (production style); ``False`` uses plain k-shortest simple
            paths.

    Returns:
        A :class:`TunnelCatalog` with tunnels sorted by latency weight.

    Raises:
        ValueError: ``tunnels_per_pair < 1``, a pair naming a site the
            network does not have (checked for every pair before any
            routing), a pair with no path, or a pair of one site.
    """
    checks.in_range("tunnels_per_pair", tunnels_per_pair, 1, math.inf, "[)")
    if site_pairs is None:
        sites = network.sites
        site_pairs = [
            (a, b) for a in sites for b in sites if a != b
        ]
    site_pairs = list(site_pairs)
    for pair in site_pairs:
        if not all(network.has_site(site) for site in pair):
            raise ValueError(f"unknown site in site pair {pair}")
    catalog = TunnelCatalog(network)
    with get_tracer().span(
        "topology.build_tunnels", pairs=len(site_pairs)
    ) as span:
        # One copy for the whole build: the copy's adjacency order is what
        # every per-pair copy used to route on, and shortest-path ties
        # break by that order.
        graph = network.to_networkx().copy()
        router = _LatencyRouter(graph)
        for src, dst in site_pairs:
            if diverse:
                paths = _diverse_paths(router, src, dst, tunnels_per_pair)
            else:
                paths = _k_shortest_paths(graph, src, dst, tunnels_per_pair)
            if not paths:
                raise ValueError(f"no path between {src} and {dst}")
            tunnels = [
                Tunnel(
                    src=src,
                    dst=dst,
                    path=tuple(path),
                    weight=network.path_latency_ms(path),
                    cost_per_gbps=network.path_cost_per_gbps(path),
                    availability=network.path_availability(path),
                )
                for path in paths
            ]
            catalog.add_pair(src, dst, tunnels)
        span.set_attribute("trees", router.trees)
        span.set_attribute("certified", router.certified)
        span.set_attribute("deferred", router.deferred)
    return catalog
