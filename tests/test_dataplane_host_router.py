"""Tests for the host stack, SR router and end-to-end WAN delivery."""

from __future__ import annotations

import pytest

from repro.dataplane import (
    FiveTuple,
    HostStack,
    PROTO_UDP,
    SiteIdCodec,
    SRHeader,
    VXLANHeader,
    WANFabric,
)
from repro.dataplane.maps import (
    CONTK_MAP,
    ENV_MAP,
    FRAG_MAP,
    INF_MAP,
    TRAFFIC_MAP,
)
from repro.dataplane.packet import (
    ETH_HEADER_LEN,
    EthernetHeader,
    IPV4_HEADER_LEN,
    IPv4Header,
    UDP_HEADER_LEN,
    UDPHeader,
)
from repro.topology import b4


@pytest.fixture()
def codec():
    return SiteIdCodec(b4().sites)


@pytest.fixture()
def host(codec):
    stack = HostStack(site="B4-00", codec=codec)
    stack.register_instance(7, "192.168.0.7")
    return stack


FLOW = FiveTuple("192.168.0.7", "192.168.9.9", PROTO_UDP, 40000, 443)


class TestInstanceIdentification:
    def test_execve_populates_env_map(self, host):
        pid = host.spawn_process(7)
        assert host.maps[ENV_MAP].lookup(pid) == 7

    def test_conntrack_joins_into_inf_map(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        assert host.maps[CONTK_MAP].lookup(FLOW) == pid
        assert host.maps[INF_MAP].lookup(FLOW) == 7

    def test_unknown_instance_spawn_rejected(self, host):
        with pytest.raises(KeyError):
            host.spawn_process(99)

    def test_duplicate_instance_rejected(self, host):
        with pytest.raises(ValueError):
            host.register_instance(7, "192.168.0.8")

    def test_connection_without_execve_no_inf_entry(self, host):
        host.open_connection(55555, FLOW)
        assert host.maps[INF_MAP].lookup(FLOW) is None


class TestFlowCollection:
    def test_traffic_accounted_per_five_tuple(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.send(FLOW, 500)
        host.send(FLOW, 700)
        assert host.maps[TRAFFIC_MAP].lookup(FLOW) > 1200

    def test_collect_flows_joins_and_clears(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.send(FLOW, 500)
        volumes = host.collect_flows()
        assert volumes[7] > 500
        assert host.collect_flows() == {}

    def test_collect_without_clear(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.send(FLOW, 100)
        first = host.collect_flows(clear=False)
        second = host.collect_flows(clear=False)
        assert first == second

    def test_fragmented_traffic_attributed(self, host):
        """Non-first fragments carry no ports; frag_map resolves them."""
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.send(FLOW, 4000)  # 3 fragments at default MTU
        volumes = host.collect_flows()
        assert volumes[7] > 4000
        # frag_map cleaned up after the last fragment.
        assert len(host.maps[FRAG_MAP]) == 0


class TestSRInsertion:
    def test_no_path_no_sr_header(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        packets = host.send(FLOW, 100)
        vxlan = _parse_vxlan(packets[0].data)
        assert not vxlan.has_sr_header

    def test_installed_path_inserts_sr(self, host, codec):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        path = ("B4-00", "B4-02", "B4-04")
        host.install_path(7, FLOW.dst_ip, path)
        packets = host.send(FLOW, 100)
        vxlan, after = _parse_vxlan_and_rest(packets[0].data)
        assert vxlan.has_sr_header
        sr, _ = SRHeader.decode(after)
        assert codec.decode_path(sr.hops) == path
        assert sr.offset == 0

    def test_inner_frame_preserved(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.install_path(7, FLOW.dst_ip, ("B4-00", "B4-01"))
        packets = host.send(FLOW, 64)
        _, after = _parse_vxlan_and_rest(packets[0].data)
        sr, inner = SRHeader.decode(after)
        _, rest = EthernetHeader.decode(inner)
        ip, l4 = IPv4Header.decode(rest)
        assert ip.src == FLOW.src_ip and ip.dst == FLOW.dst_ip
        udp, _ = UDPHeader.decode(l4)
        assert udp.dst_port == FLOW.dst_port

    def test_fragments_all_carry_sr(self, host):
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.install_path(7, FLOW.dst_ip, ("B4-00", "B4-01"))
        packets = host.send(FLOW, 4000)
        assert len(packets) == 3
        for packet in packets:
            vxlan = _parse_vxlan(packet.data)
            assert vxlan.has_sr_header


class TestWANDelivery:
    def test_sr_packet_follows_pinned_path(self, host, codec):
        fabric = WANFabric(b4(), codec=codec)
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        path = ("B4-00", "B4-02", "B4-04", "B4-06")
        host.install_path(7, FLOW.dst_ip, path)
        for packet in host.send(FLOW, 2000):
            record = fabric.deliver(packet)
            assert record.delivered, record.drop_reason
            assert record.site_path == path

    def test_latency_matches_topology(self, host, codec):
        net = b4()
        fabric = WANFabric(net, codec=codec)
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        path = ("B4-00", "B4-01", "B4-03")
        host.install_path(7, FLOW.dst_ip, path)
        record = fabric.deliver(host.send(FLOW, 100)[0])
        assert record.latency_ms == pytest.approx(
            net.path_latency_ms(path)
        )

    def test_dead_link_drops_packet(self, host, codec):
        net = b4().without_links([("B4-00", "B4-02")])
        fabric = WANFabric(net, codec=codec)
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        host.install_path(7, FLOW.dst_ip, ("B4-00", "B4-02", "B4-04"))
        record = fabric.deliver(host.send(FLOW, 100)[0])
        assert not record.delivered
        assert "no link" in record.drop_reason

    def test_non_sr_traffic_needs_vtep_resolver(self, host, codec):
        fabric = WANFabric(b4(), codec=codec)
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        record = fabric.deliver(host.send(FLOW, 100)[0])
        assert not record.delivered
        assert "VTEP" in record.drop_reason

    def test_non_sr_fallback_shortest_path(self, host, codec, monkeypatch):
        net = b4()
        built = []
        to_networkx = net.to_networkx
        monkeypatch.setattr(
            net, "to_networkx", lambda: built.append(1) or to_networkx()
        )
        fabric = WANFabric(
            net, codec=codec, vtep_site_of=lambda ip: "B4-05"
        )
        assert not built  # set-up builds no routing graph
        pid = host.spawn_process(7)
        host.open_connection(pid, FLOW)
        record = fabric.deliver(host.send(FLOW, 100)[0])
        assert record.delivered
        assert record.site_path[0] == "B4-00"
        assert record.site_path[-1] == "B4-05"
        # One routing graph, built on first use, serves every router.
        assert len(built) == 1
        first, second = list(fabric.routers.values())[:2]
        assert first.network.routing_graph() is second.network.routing_graph()
        assert len(built) == 1

    def test_malformed_packet_dropped(self, codec):
        from repro.dataplane.host_stack import WirePacket

        fabric = WANFabric(b4(), codec=codec)
        record = fabric.deliver(
            WirePacket(data=b"garbage", ingress_site="B4-00")
        )
        assert not record.delivered


def _parse_vxlan(data: bytes) -> VXLANHeader:
    return _parse_vxlan_and_rest(data)[0]


def _parse_vxlan_and_rest(data: bytes):
    offset = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN
    return VXLANHeader.decode(data[offset:])
