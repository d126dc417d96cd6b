"""Tests for the batched second stage and the packet-level replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MegaTEOptimizer
from repro.simulation import replay_assignment
from repro.simulation.flowsim import simulate


class TestBatchedSecondStage:
    """The batched path is a bit-identical drop-in for the serial one."""

    @pytest.fixture(scope="class")
    def twan_replay(self):
        from repro.experiments.common import build_scenario
        from repro.traffic import DiurnalSequence

        scenario = build_scenario(
            "twan",
            total_endpoints=2_000,
            num_site_pairs=20,
            target_load=1.0,
            seed=7,
        )
        sequence = DiurnalSequence(base=scenario.demands, seed=11)
        return scenario, sequence

    def test_assignment_matches_serial_path(self, twan_replay):
        scenario, sequence = twan_replay
        batched = MegaTEOptimizer(second_stage="batched")
        serial = MegaTEOptimizer(second_stage="serial")
        for interval in range(3):
            demands = sequence.matrix(interval)
            rb = batched.solve(scenario.topology, demands)
            rs = serial.solve(scenario.topology, demands)
            for pb, ps in zip(
                rb.assignment.per_pair, rs.assignment.per_pair
            ):
                np.testing.assert_array_equal(pb, ps)
            assert rb.satisfied_volume == rs.satisfied_volume
            assert (
                rb.stats["satisfied_by_class"]
                == rs.stats["satisfied_by_class"]
            )
            for cb, cs in zip(
                rb.site_allocation.per_pair, rs.site_allocation.per_pair
            ):
                np.testing.assert_array_equal(cb, cs)

    def test_matches_serial_with_trailing_empty_pairs(self):
        """Failure scenarios keep all-tunnels-dead pairs as empty tunnel
        lists (``TunnelCatalog.restricted_to_network``).  The triage must
        still see the last non-empty pair's full tunnel segment — in
        particular when its only positive LP allocation lands on its
        *last* fill-order tunnel, which here is forced by letting class 1
        exhaust the preferred direct link before class 2 is solved."""
        from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
        from repro.topology.endpoints import EndpointLayout
        from repro.traffic import DemandMatrix

        from conftest import make_pair_demands

        net = SiteNetwork(name="trailing-empty")
        net.add_duplex_link("a", "b", capacity=10.0, latency_ms=5.0)
        net.add_duplex_link("a", "r", capacity=100.0, latency_ms=10.0)
        net.add_duplex_link("r", "b", capacity=100.0, latency_ms=10.0)
        net.add_duplex_link("c", "d", capacity=10.0, latency_ms=5.0)
        catalog = build_tunnels(
            net, site_pairs=[("a", "b"), ("c", "d")], tunnels_per_pair=2
        )
        layout = EndpointLayout({"a": 4, "b": 4, "c": 2, "d": 2, "r": 0})
        topology = TwoLayerTopology(
            network=net, catalog=catalog, layout=layout
        ).with_failures([("c", "d")])
        assert topology.catalog.tunnels(1) == []  # trailing pair is dead

        demands = DemandMatrix(
            [
                make_pair_demands([10.0, 3.0, 2.0], qos=[1, 2, 2]),
                make_pair_demands([1.0], qos=[2]),
            ]
        )
        rb = MegaTEOptimizer(second_stage="batched").solve(
            topology, demands
        )
        rs = MegaTEOptimizer(second_stage="serial").solve(
            topology, demands
        )
        # The scenario genuinely exercises the hazard: the serial path
        # places the class-2 flows on the non-preferred long tunnel.
        np.testing.assert_array_equal(
            rs.assignment.per_pair[0], np.array([0, 1, 1])
        )
        for pb, ps in zip(rb.assignment.per_pair, rs.assignment.per_pair):
            np.testing.assert_array_equal(pb, ps)
        assert rb.satisfied_volume == rs.satisfied_volume

    def test_triage_actually_fires(self, twan_replay):
        scenario, sequence = twan_replay
        result = MegaTEOptimizer().solve(
            scenario.topology, sequence.matrix(0)
        )
        assert result.stats["second_stage"] == "batched"
        assert result.stats["num_uncontended_pairs"] > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="second_stage"):
            MegaTEOptimizer(second_stage="gpu")


class TestReplay:
    @pytest.fixture(scope="class")
    def solved(self):
        from repro.experiments.common import build_scenario

        scenario = build_scenario(
            "b4",
            total_endpoints=250,
            num_site_pairs=6,
            target_load=1.0,
            seed=3,
        )
        result = MegaTEOptimizer().solve(
            scenario.topology, scenario.demands
        )
        return scenario, result

    def test_all_assigned_flows_delivered(self, solved):
        scenario, result = solved
        report = replay_assignment(scenario.topology, result)
        assert report.flows_sent == result.assignment.num_assigned()
        assert report.flows_delivered == report.flows_sent
        assert report.drop_reasons == {}

    def test_perfect_path_fidelity(self, solved):
        """Every packet rides exactly the tunnel the optimizer chose."""
        scenario, result = solved
        report = replay_assignment(scenario.topology, result)
        assert report.path_fidelity == 1.0

    def test_latency_consistent_with_flow_level(self, solved):
        """Packet-level latency falls inside the tunnel latency range."""
        scenario, result = solved
        report = replay_assignment(scenario.topology, result)
        weights = [
            t.weight
            for k in range(scenario.topology.catalog.num_pairs)
            for t in scenario.topology.catalog.tunnels(k)
        ]
        assert min(weights) <= report.mean_latency_ms <= max(weights)

    def test_flow_level_simulator_agrees(self, solved):
        """Flow-level delivered volume ~= packet-level delivery rate."""
        scenario, result = solved
        outcome = simulate(scenario.topology, result)
        report = replay_assignment(scenario.topology, result)
        # MegaTE never overloads links, so both views deliver everything.
        assert outcome.delivered_volume == pytest.approx(
            outcome.offered_volume
        )
        assert report.packets_delivered == report.packets_sent

    def test_flow_cap(self, solved):
        scenario, result = solved
        with pytest.raises(ValueError, match="capped"):
            replay_assignment(scenario.topology, result, max_flows=1)

    def test_requires_endpoint_ids(self, tiny_topology):
        from repro.traffic import DemandMatrix

        from conftest import make_pair_demands

        demands = DemandMatrix([make_pair_demands([1.0])])
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        with pytest.raises(ValueError, match="endpoint ids"):
            replay_assignment(tiny_topology, result)
