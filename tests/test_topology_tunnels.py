"""Tests for tunnel generation and the tunnel catalog."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import sample_site_pairs
from repro.topology import (
    Link,
    SiteNetwork,
    b4,
    build_tunnels,
    topology_by_name,
    twan,
)
from repro.topology import tunnels as tunnels_module
from repro.topology.tunnels import (
    Tunnel,
    TunnelCatalog,
    _diverse_paths,
    _LatencyRouter,
)

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

    @pytest.mark.parametrize("diverse", [True, False])
    def test_unknown_site_raises_before_any_routing(self, diverse, monkeypatch):
        def routed(*args, **kwargs):
            raise AssertionError("routed before validating every pair")

        monkeypatch.setattr(tunnels_module, "_diverse_paths", routed)
        monkeypatch.setattr(tunnels_module, "_k_shortest_paths", routed)
        pairs = iter([("B4-00", "B4-01"), ("B4-00", "nope")])
        with pytest.raises(ValueError, match=r"\('B4-00', 'nope'\)"):
            build_tunnels(b4(), pairs, diverse=diverse)

    def test_pair_of_one_site_raises(self):
        with pytest.raises(ValueError, match="at least two sites"):
            build_tunnels(_net(), [("a", "a")])

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
    """The ``networkx``-only reference: one graph copy per pair, every
    query an ``nx.shortest_path``."""
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


def _tunnel_rows(net, paths):
    """What ``build_tunnels`` must make of one pair's paths: ascending
    weight (discovery order on ties), with the three path attributes."""
    return sorted(
        (
            (
                tuple(path),
                net.path_latency_ms(path),
                net.path_cost_per_gbps(path),
                net.path_availability(path),
            )
            for path in paths
        ),
        key=lambda row: row[1],
    )


def _built_tunnels(catalog):
    return [
        [
            (t.path, t.weight, t.cost_per_gbps, t.availability)
            for t in catalog.tunnels(k)
        ]
        for k in range(catalog.num_pairs)
    ]


def _weights(router):
    """Every edge weight the router can see: the graph's, then the CSR's."""
    graph_weights = {
        (u, v): d["latency_ms"] for u, v, d in router.graph.edges(data=True)
    }
    return graph_weights, router._csr.data.tolist()


@st.composite
def tie_network(draw):
    """A small WAN built to tie: integer latencies from ``{0, 1, 2}``
    (exact ties, zero-latency links), some one-way links (unreachable
    destinations) and a spur site with a single way in and out (a pair
    whose only path repeats until the attempts run out)."""
    num_sites = draw(st.integers(3, 7))
    sites = [f"s{i}" for i in range(num_sites)]
    net = SiteNetwork(name="ties")
    latency = st.sampled_from([0.0, 1.0, 1.0, 2.0])
    for i in range(num_sites - 1):
        for j in range(i + 1, num_sites - 1):
            kind = draw(st.sampled_from(["none", "duplex", "forward", "back"]))
            if kind == "duplex":
                net.add_duplex_link(sites[i], sites[j], 10.0, draw(latency))
            elif kind != "none":
                a, b = (i, j) if kind == "forward" else (j, i)
                net.add_link(
                    Link(sites[a], sites[b], 10.0, latency_ms=draw(latency))
                )
    net.add_duplex_link(sites[-2], sites[-1], 10.0, draw(latency))
    for site in sites:
        net.add_site(site)
    return net, sites


def _assert_matches_reference(net, pairs, k=3):
    """The router finds the reference's paths in the reference's order and
    leaves every weight as it found it; ``build_tunnels`` turns them into
    the same tunnels, bit for bit.  Returns the router, for its counts."""
    graph = net.to_networkx()
    expected = [_diverse_paths_copying(graph, s, d, k) for s, d in pairs]
    router = _LatencyRouter(graph.copy())  # as build_tunnels routes
    before = _weights(router)
    for (src, dst), paths in zip(pairs, expected):
        assert _diverse_paths(router, src, dst, k) == paths
        assert _weights(router) == before
    reachable = [pair for pair, paths in zip(pairs, expected) if paths]
    catalog = build_tunnels(net, reachable, tunnels_per_pair=k)
    assert catalog.pairs == reachable
    assert _built_tunnels(catalog) == [
        _tunnel_rows(net, paths) for paths in expected if paths
    ]
    for pair, paths in zip(pairs, expected):
        if not paths:
            with pytest.raises(ValueError, match="no path"):
                build_tunnels(net, [pair], tunnels_per_pair=k)
    return router


def _all_pairs(sites):
    return [(a, b) for a in sites for b in sites if a != b]


class TestDiversePathsInPlace:
    """Penalising the shared graph and restoring it gives the paths the
    per-pair graph copy gave — whether a query was certified on the C tree
    or deferred to ``networkx`` — and leaves every edge weight as it was."""

    @settings(max_examples=30, deadline=None)
    @given(wan=st.one_of(random_network(), tie_network()))
    def test_matches_copying_reference_on_random_wans(self, wan):
        net, sites = wan
        _assert_matches_reference(net, _all_pairs(sites))

    def test_matches_copying_reference_on_sampled_twan_pairs(self):
        net = twan()
        rng = np.random.default_rng(0)
        sites = net.sites
        pairs = list(
            dict.fromkeys(
                (sites[a], sites[b])
                for a, b in rng.integers(0, len(sites), size=(300, 2))
                if a != b
            )
        )
        router = _assert_matches_reference(net, pairs)
        # Every TWAN query has a unique answer: none goes to networkx, and
        # a source's unpenalised tree serves all its destinations.
        assert router.deferred == 0
        assert router.trees < router.certified

    def test_weights_restored_when_no_path_is_left(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", latency_ms=1.0)
        graph.add_node("z")
        router = _LatencyRouter(graph)
        assert _diverse_paths(router, "a", "z", 2) == []
        # The only path repeats until the 3k attempts run out.
        assert _diverse_paths(router, "a", "b", 3) == [["a", "b"]]
        assert router.certified == 9
        assert _weights(router) == ({("a", "b"): 1.0}, [1.0])

    def test_weights_restored_when_a_query_raises_mid_pair(self, monkeypatch):
        router = _LatencyRouter(b4().to_networkx().copy())
        before = _weights(router)
        answer = router.shortest_path
        calls = []

        def second_query_fails(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:
                raise RuntimeError("search failed")
            return answer(src, dst)

        monkeypatch.setattr(router, "shortest_path", second_query_fails)
        with pytest.raises(RuntimeError, match="search failed"):
            _diverse_paths(router, "B4-00", "B4-11", 3)
        assert len(calls) == 2  # one path was penalised before the failure
        assert _weights(router) == before

    def test_ties_are_answered_by_networkx(self):
        """On a unit-latency grid every query has a rival of equal length;
        the router must notice and let ``networkx`` break the tie."""
        net = SiteNetwork(name="grid")
        for r in range(4):
            for c in range(4):
                if c < 3:
                    net.add_duplex_link(f"g{r}{c}", f"g{r}{c + 1}", 10.0)
                if r < 3:
                    net.add_duplex_link(f"g{r}{c}", f"g{r + 1}{c}", 10.0)
        router = _assert_matches_reference(net, _all_pairs(net.sites))
        assert router.deferred > 0

    def test_span_reports_the_router_counts(self, tracer):
        build_tunnels(b4(), [("B4-00", "B4-11"), ("B4-00", "B4-05")], 2)
        (span,) = tracer.finished_spans()
        assert span.name == "topology.build_tunnels"
        attrs = span.attributes
        assert attrs["pairs"] == 2
        assert attrs["certified"] + attrs["deferred"] >= 4
        assert 1 <= attrs["trees"] <= attrs["certified"]


@pytest.mark.perf
@pytest.mark.parametrize(
    "name,num_pairs",
    # All of TWAN and B4, samples of the two larger zoo topologies.
    [("twan", 9_900), ("b4", 132), ("deltacom", 3_000), ("cogentco", 3_000)],
)
def test_full_catalog_equals_networkx_reference(
    request, tracer, name, num_pairs
):
    """The all-pairs catalogs the benchmark builds, against the
    ``networkx``-only reference (about a minute; ``pytest -m perf``)."""
    if "perf" not in request.config.getoption("markexpr"):
        pytest.skip("full-catalog identity runs under `pytest -m perf`")
    net = topology_by_name(name)
    pairs = sample_site_pairs(net, num_pairs, seed=42)
    assert len(pairs) == num_pairs
    catalog = build_tunnels(net, pairs, tunnels_per_pair=3)
    (span,) = tracer.finished_spans()
    assert catalog.pairs == pairs
    graph = net.to_networkx()
    assert _built_tunnels(catalog) == [
        _tunnel_rows(net, _diverse_paths_copying(graph, src, dst, 3))
        for src, dst in pairs
    ]
    assert span.attributes["deferred"] == 0
    assert span.attributes["trees"] < span.attributes["certified"]
