"""Tests for the site-level network model."""

from __future__ import annotations

import math

import pytest

from repro.topology import TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.topology.graph import Link, SiteNetwork
from repro.topology.serialization import dump_topology, load_topology


class TestLink:
    def test_valid_link(self):
        link = Link("a", "b", capacity=10.0, latency_ms=2.0)
        assert link.key == ("a", "b")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link("a", "a", capacity=1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", capacity=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", capacity=1.0, latency_ms=-1.0)

    def test_bad_availability_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", capacity=1.0, availability=1.5)

    @pytest.mark.parametrize(
        "field", ["capacity", "latency_ms", "cost_per_gbps"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        """The error names the field and the link, instead of surfacing
        later as a NaN tunnel weight or a scipy error inside an LP."""
        fields = {"capacity": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} on a->b"):
            Link("a", "b", **fields)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost_per_gbps on a->b"):
            Link("a", "b", capacity=1.0, cost_per_gbps=-0.5)

    @pytest.mark.parametrize(
        "field, literal",
        [("latency_ms", "NaN"), ("capacity", "Infinity"),
         ("cost_per_gbps", "-Infinity")],
    )  # fmt: skip
    def test_load_topology_rejects_non_finite_links(
        self, tmp_path, field, literal
    ):
        """``json.load`` accepts ``NaN`` and ``Infinity``; the topology
        file must not."""
        net = SiteNetwork(name="t")
        net.add_duplex_link("a", "b", capacity=10.0)
        net.add_duplex_link("b", "c", capacity=10.0)
        catalog = build_tunnels(net, [("a", "c")], tunnels_per_pair=2)
        topology = TwoLayerTopology(
            network=net,
            catalog=catalog,
            layout=EndpointLayout({"a": 1, "b": 0, "c": 1}),
        )
        path = tmp_path / "topology.json"
        dump_topology(topology, str(path))
        text = path.read_text()
        key = f'"{field}": '
        start = text.index(key) + len(key)
        end = text.index(",", start)
        path.write_text(text[:start] + literal + text[end:])
        with pytest.raises(ValueError, match=f"{field} on a->b"):
            load_topology(str(path))


class TestSiteNetwork:
    def _simple(self) -> SiteNetwork:
        net = SiteNetwork(name="t")
        net.add_duplex_link("a", "b", capacity=10.0, latency_ms=3.0)
        net.add_duplex_link("b", "c", capacity=20.0, latency_ms=4.0)
        return net

    def test_duplex_creates_both_directions(self):
        net = self._simple()
        assert net.has_link("a", "b") and net.has_link("b", "a")
        assert net.num_links == 4

    def test_sites_auto_registered_in_order(self):
        net = self._simple()
        assert net.sites == ["a", "b", "c"]
        assert net.num_sites == 3

    def test_duplicate_link_rejected(self):
        net = self._simple()
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link(Link("a", "b", capacity=1.0))

    def test_link_lookup(self):
        net = self._simple()
        assert net.link("b", "c").capacity == 20.0
        with pytest.raises(KeyError):
            net.link("a", "c")

    def test_contains_and_iter(self):
        net = self._simple()
        assert "a" in net
        assert "z" not in net
        assert len(list(net)) == 4

    def test_path_latency(self):
        net = self._simple()
        assert net.path_latency_ms(["a", "b", "c"]) == pytest.approx(7.0)

    def test_path_availability_is_product(self):
        net = SiteNetwork()
        net.add_duplex_link("a", "b", 1.0, availability=0.99)
        net.add_duplex_link("b", "c", 1.0, availability=0.98)
        assert net.path_availability(["a", "b", "c"]) == pytest.approx(
            0.99 * 0.98
        )

    def test_path_cost(self):
        net = SiteNetwork()
        net.add_duplex_link("a", "b", 1.0, cost_per_gbps=2.0)
        net.add_duplex_link("b", "c", 1.0, cost_per_gbps=3.0)
        assert net.path_cost_per_gbps(["a", "b", "c"]) == pytest.approx(5.0)

    def test_to_networkx(self):
        graph = self._simple().to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 4
        assert graph["a"]["b"]["latency_ms"] == 3.0

    def test_routing_graph_shared_until_the_network_changes(self):
        net = self._simple()
        graph = net.routing_graph()
        assert net.routing_graph() is graph
        net.add_duplex_link("c", "d", capacity=1.0)
        assert net.routing_graph() is not graph
        assert net.routing_graph().has_edge("c", "d")

    def test_without_links(self):
        net = self._simple()
        cut = net.without_links([("a", "b"), ("b", "a")])
        assert not cut.has_link("a", "b")
        assert not cut.has_link("b", "a")
        assert cut.has_link("b", "c")
        # Original untouched.
        assert net.has_link("a", "b")
        # Sites all survive.
        assert cut.sites == net.sites

    def test_scaled_capacity(self):
        net = self._simple()
        doubled = net.scaled_capacity(2.0)
        assert doubled.link("a", "b").capacity == 20.0
        assert net.link("a", "b").capacity == 10.0

    def test_scaled_capacity_negative_rejected(self):
        with pytest.raises(ValueError):
            self._simple().scaled_capacity(-1.0)

    def test_capacities_mapping(self):
        caps = self._simple().capacities()
        assert caps[("a", "b")] == 10.0
        assert len(caps) == 4
