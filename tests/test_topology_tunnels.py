"""Tests for tunnel generation and the tunnel catalog."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.topology import SiteNetwork, b4, build_tunnels, twan
from repro.topology.tunnels import Tunnel, TunnelCatalog, _diverse_paths

from test_property_invariants import random_network


def _net() -> SiteNetwork:
    net = SiteNetwork()
    net.add_duplex_link("a", "b", 10.0, latency_ms=5.0)
    net.add_duplex_link("a", "c", 10.0, latency_ms=2.0)
    net.add_duplex_link("c", "b", 10.0, latency_ms=2.0)
    return net


class TestTunnel:
    def test_links_property(self):
        t = Tunnel("a", "b", path=("a", "c", "b"), weight=4.0)
        assert t.links == (("a", "c"), ("c", "b"))
        assert t.num_hops == 2
        assert t.uses_link("a", "c")
        assert not t.uses_link("a", "b")

    def test_path_must_run_src_to_dst(self):
        with pytest.raises(ValueError):
            Tunnel("a", "b", path=("a", "c"), weight=1.0)

    def test_path_must_be_simple(self):
        with pytest.raises(ValueError):
            Tunnel("a", "b", path=("a", "c", "a", "b"), weight=1.0)

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            Tunnel("a", "a", path=("a",), weight=1.0)


class TestBuildTunnels:
    def test_sorted_by_weight(self):
        catalog = build_tunnels(_net(), [("a", "b")], tunnels_per_pair=2)
        tunnels = catalog.tunnels_for("a", "b")
        assert len(tunnels) == 2
        weights = [t.weight for t in tunnels]
        assert weights == sorted(weights)
        # Shortest is the 4 ms detour a-c-b.
        assert tunnels[0].path == ("a", "c", "b")

    def test_weight_is_path_latency(self):
        catalog = build_tunnels(_net(), [("a", "b")], tunnels_per_pair=2)
        for t in catalog.tunnels_for("a", "b"):
            assert t.weight == pytest.approx(
                _net().path_latency_ms(t.path)
            )

    def test_diverse_paths_are_distinct(self):
        catalog = build_tunnels(
            b4(), [("B4-00", "B4-11")], tunnels_per_pair=4, diverse=True
        )
        tunnels = catalog.tunnels_for("B4-00", "B4-11")
        assert len({t.path for t in tunnels}) == len(tunnels)

    def test_diverse_paths_avoid_link_reuse(self):
        """The first two diverse tunnels should be (mostly) link-disjoint."""
        catalog = build_tunnels(
            b4(), [("B4-00", "B4-11")], tunnels_per_pair=2, diverse=True
        )
        t0, t1 = catalog.tunnels_for("B4-00", "B4-11")
        shared = set(t0.links) & set(t1.links)
        assert len(shared) < min(len(t0.links), len(t1.links))

    def test_non_diverse_k_shortest(self):
        catalog = build_tunnels(
            _net(), [("a", "b")], tunnels_per_pair=5, diverse=False
        )
        # Only 2 simple paths exist.
        assert len(catalog.tunnels_for("a", "b")) == 2

    def test_no_path_raises(self):
        net = SiteNetwork()
        net.add_site("x")
        net.add_site("y")
        net.add_duplex_link("x", "z", 1.0)
        with pytest.raises(ValueError, match="no path"):
            build_tunnels(net, [("x", "y")])

    def test_all_pairs_default(self):
        catalog = build_tunnels(_net(), tunnels_per_pair=1)
        assert catalog.num_pairs == 6  # 3 sites, ordered pairs

    def test_invalid_tunnel_count(self):
        with pytest.raises(ValueError):
            build_tunnels(_net(), [("a", "b")], tunnels_per_pair=0)


class TestCatalog:
    def test_pair_indexing(self):
        catalog = build_tunnels(
            _net(), [("a", "b"), ("b", "a")], tunnels_per_pair=1
        )
        assert catalog.pair_index("a", "b") == 0
        assert catalog.pair_index("b", "a") == 1
        assert catalog.pairs == [("a", "b"), ("b", "a")]
        assert catalog.has_pair("a", "b")
        assert not catalog.has_pair("a", "c")

    def test_duplicate_pair_rejected(self):
        catalog = build_tunnels(_net(), [("a", "b")], tunnels_per_pair=1)
        with pytest.raises(ValueError, match="already"):
            catalog.add_pair(
                "a", "b", catalog.tunnels_for("a", "b")
            )

    def test_empty_tunnels_rejected_by_default(self):
        catalog = TunnelCatalog(_net())
        with pytest.raises(ValueError, match="no tunnels"):
            catalog.add_pair("a", "b", [])

    def test_empty_tunnels_allowed_explicitly(self):
        catalog = TunnelCatalog(_net())
        k = catalog.add_pair("a", "b", [], allow_empty=True)
        assert catalog.tunnels(k) == []

    def test_wrong_pair_tunnel_rejected(self):
        catalog = TunnelCatalog(_net())
        stray = Tunnel("a", "c", path=("a", "c"), weight=2.0)
        with pytest.raises(ValueError, match="belong"):
            catalog.add_pair("a", "b", [stray])

    def test_all_tunnels_iteration(self):
        catalog = build_tunnels(
            _net(), [("a", "b"), ("c", "a")], tunnels_per_pair=2
        )
        entries = list(catalog.all_tunnels())
        assert {k for k, _, _ in entries} == {0, 1}
        for k, t_idx, tunnel in entries:
            assert catalog.tunnels(k)[t_idx] is tunnel

    def test_restricted_to_network_drops_dead_tunnels(self):
        net = _net()
        catalog = build_tunnels(net, [("a", "b")], tunnels_per_pair=2)
        survivor = net.without_links([("a", "c"), ("c", "a")])
        restricted = catalog.restricted_to_network(survivor)
        tunnels = restricted.tunnels_for("a", "b")
        assert len(tunnels) == 1
        assert tunnels[0].path == ("a", "b")
        # Pair indices preserved.
        assert restricted.pairs == catalog.pairs

    def test_restricted_can_leave_pair_empty(self):
        net = _net()
        catalog = build_tunnels(net, [("a", "c")], tunnels_per_pair=2)
        survivor = net.without_links(
            [("a", "c"), ("c", "a"), ("a", "b"), ("b", "a")]
        )
        restricted = catalog.restricted_to_network(survivor)
        assert restricted.tunnels_for("a", "c") == []


def _diverse_paths_copying(graph, src, dst, k, penalty=8.0):
    """The reference ``_diverse_paths`` replaced: one graph copy per pair."""
    working = graph.copy()
    paths, seen, attempts = [], set(), 0
    while len(paths) < k and attempts < 3 * k:
        attempts += 1
        try:
            path = nx.shortest_path(working, src, dst, weight="latency_ms")
        except nx.NetworkXNoPath:
            break
        if tuple(path) not in seen:
            seen.add(tuple(path))
            paths.append(path)
        for u, v in zip(path, path[1:]):
            working[u][v]["latency_ms"] *= penalty
    return paths


def _latencies(graph):
    return {(u, v): d["latency_ms"] for u, v, d in graph.edges(data=True)}


class TestDiversePathsInPlace:
    """Penalising the shared graph and restoring it gives the paths the
    per-pair graph copy gave, and leaves every edge weight as it was."""

    @settings(max_examples=30, deadline=None)
    @given(wan=random_network())
    def test_matches_copying_reference_on_random_wans(self, wan):
        net, sites = wan
        pairs = [(a, b) for a in sites for b in sites if a != b]
        graph = net.to_networkx()
        expected = [_diverse_paths_copying(graph, s, d, 3) for s, d in pairs]
        shared = graph.copy()  # as build_tunnels routes: ties break alike
        before = _latencies(shared)
        assert [_diverse_paths(shared, s, d, 3) for s, d in pairs] == expected
        assert _latencies(shared) == before
        catalog = build_tunnels(net, pairs, tunnels_per_pair=3)
        for k, paths in enumerate(expected):
            assert sorted(t.path for t in catalog.tunnels(k)) == sorted(
                map(tuple, paths)
            )

    def test_matches_copying_reference_on_sampled_twan_pairs(self):
        net = twan()
        graph = net.to_networkx()
        rng = np.random.default_rng(0)
        sites = net.sites
        pairs = [
            (sites[a], sites[b])
            for a, b in rng.integers(0, len(sites), size=(300, 2))
            if a != b
        ]
        expected = [_diverse_paths_copying(graph, s, d, 3) for s, d in pairs]
        shared = graph.copy()
        before = _latencies(shared)
        assert [_diverse_paths(shared, s, d, 3) for s, d in pairs] == expected
        assert _latencies(shared) == before

    def test_weights_restored_when_no_path_is_left(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", latency_ms=1.0)
        graph.add_node("z")
        assert _diverse_paths(graph, "a", "z", 2) == []
        assert _diverse_paths(graph, "a", "b", 3) == [["a", "b"]]
        assert _latencies(graph) == {("a", "b"): 1.0}
