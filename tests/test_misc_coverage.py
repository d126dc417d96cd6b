"""Coverage for smaller utilities: router counters,
experiment scaffolding, and QoS-aware host behaviours."""

from __future__ import annotations

import pytest

from repro.dataplane import (
    FiveTuple,
    HostStack,
    PROTO_UDP,
    SiteIdCodec,
    WANFabric,
)
from repro.experiments.common import (
    endpoint_sites_of,
    sample_site_pairs,
)
from repro.topology import b4, twan


class TestRouterCounters:
    def test_counters_track_decisions(self):
        network = b4()
        codec = SiteIdCodec(network.sites)
        fabric = WANFabric(network, codec=codec)
        host = HostStack(site="B4-00", codec=codec)
        host.register_instance(1, "172.16.0.1")
        pid = host.spawn_process(1)
        flow = FiveTuple("172.16.0.1", "172.16.9.1", PROTO_UDP, 1, 2)
        host.open_connection(pid, flow)
        host.install_path(1, flow.dst_ip, ("B4-00", "B4-02", "B4-04"))
        for _ in range(3):
            record = fabric.deliver(host.send(flow, 100)[0])
            assert record.delivered
        assert fabric.routers["B4-00"].counters["forward"] == 3
        assert fabric.routers["B4-02"].counters["forward"] == 3
        assert fabric.routers["B4-04"].counters["deliver"] == 3
        assert fabric.routers["B4-04"].counters["drop"] == 0

    def test_drop_counted(self):
        from repro.dataplane.host_stack import WirePacket

        network = b4()
        fabric = WANFabric(network)
        fabric.deliver(WirePacket(data=b"junk", ingress_site="B4-00"))
        assert fabric.routers["B4-00"].counters["drop"] == 1


class TestExperimentScaffolding:
    def test_endpoint_sites_excludes_eco(self):
        sites = endpoint_sites_of(twan(num_regions=3, sites_per_region=3))
        assert sites
        assert not any(s.endswith("-eco") for s in sites)

    def test_endpoint_sites_plain_topology(self):
        network = b4()
        assert endpoint_sites_of(network) == network.sites

    def test_sample_site_pairs_deterministic(self):
        network = b4()
        a = sample_site_pairs(network, 10, seed=5)
        b = sample_site_pairs(network, 10, seed=5)
        assert a == b
        assert len(a) == 10
        assert all(x != y for x, y in a)

    def test_sample_all_pairs_when_few(self):
        network = b4()
        pairs = sample_site_pairs(network, 10_000, seed=0)
        assert len(pairs) == 12 * 11

    def test_build_scenario_reproducible(self):
        from repro.experiments.common import build_scenario

        a = build_scenario(
            "b4", total_endpoints=300, num_site_pairs=8, seed=4
        )
        b = build_scenario(
            "b4", total_endpoints=300, num_site_pairs=8, seed=4
        )
        assert a.demands.total_demand == b.demands.total_demand
        assert a.num_flows == b.num_flows


class TestHostStackMisc:
    def test_flow_volumes_view(self):
        codec = SiteIdCodec(b4().sites)
        host = HostStack(site="B4-00", codec=codec)
        host.register_instance(1, "172.16.0.1")
        pid = host.spawn_process(1)
        flow = FiveTuple("172.16.0.1", "172.16.9.1", PROTO_UDP, 1, 2)
        host.open_connection(pid, flow)
        host.send(flow, 500)
        volumes = host.flow_volumes()
        assert flow in volumes
        assert volumes[flow] > 500

    def test_instance_ip_lookup(self):
        codec = SiteIdCodec(b4().sites)
        host = HostStack(site="B4-00", codec=codec)
        host.register_instance(9, "10.9.9.9")
        assert host.instance_ip(9) == "10.9.9.9"
        with pytest.raises(KeyError):
            host.instance_ip(10)

    def test_vtep_default_mapping(self):
        codec = SiteIdCodec(b4().sites)
        host = HostStack(site="B4-00", codec=codec)
        assert host.vtep_of("172.16.3.7") == "10.255.3.7"
