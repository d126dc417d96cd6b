"""The SR fast paths against their references.

``SRRouter`` reads well-formed SR packets at fixed offsets and leaves
everything else to the decoder path.  ``WANFabric.deliver`` checks a
well-formed SR packet once, at its ingress router, then walks its hop
list.  These tests hold the router to its decoder path, and the fabric to
the router-by-router ``process`` loop, on every packet, well-formed or
mutated; guard that a well-formed delivery builds no header objects and
no ``ForwardingDecision``; and check the SR round trip from install to
reassembly on random WANs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    DeliveryRecord,
    FiveTuple,
    HostStack,
    IPv4Header,
    PROTO_UDP,
    Reassembler,
    SiteIdCodec,
    SRHeader,
    SRRouter,
    UDPHeader,
    WANFabric,
    decapsulate,
)
from repro.dataplane import router as router_module
from repro.dataplane.host_stack import WirePacket
from repro.dataplane.packet import ETH_HEADER_LEN, IPV4_HEADER_LEN
from repro.topology import b4
from repro.topology.tunnels import build_tunnels

from test_property_invariants import random_network

NET = b4()
#: The same site layer with two links down, so some hops are dead.
CUT = NET.without_links([("B4-00", "B4-02"), ("B4-04", "B4-06")])
CODEC = SiteIdCodec(NET.sites)
PATHS = sorted(
    {tunnel.path for _, _, tunnel in build_tunnels(NET).all_tunnels()}
)
FLOW = FiveTuple("192.168.0.7", "192.168.9.9", PROTO_UDP, 40000, 443)

# Byte offsets of the fields the mutations aim at.
_UDP_DST_PORT = ETH_HEADER_LEN + IPV4_HEADER_LEN + 2
_UDP_LENGTH = _UDP_DST_PORT + 2
_VXLAN_FLAGS = ETH_HEADER_LEN + IPV4_HEADER_LEN + 8
_VXLAN_FLAGS_LOW = _VXLAN_FLAGS + 3
_SR_START = ETH_HEADER_LEN + IPV4_HEADER_LEN + 8 + 8
_HOPS_START = _SR_START + 4


def _wire_packets(path: tuple[str, ...], payload: int) -> list[bytes]:
    host = HostStack(site=path[0], codec=CODEC)
    host.register_instance(7, FLOW.src_ip)
    host.open_connection(host.spawn_process(7), FLOW)
    host.install_path(7, FLOW.dst_ip, path)
    return [wire.data for wire in host.send(FLOW, payload)]


def _put(data: bytes, at: int, value: bytes) -> bytes:
    return data[:at] + value + data[at + len(value) :]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    hop_number = data[_SR_START]
    headers_end = _HOPS_START + 4 * hop_number
    kind = draw(
        st.sampled_from(
            [
                "none",
                "flip",
                "truncate",
                "offset",
                "no hops",
                "unknown hop",
                "sr flag",
                "i flag",
                "udp port",
                "udp length",
            ]
        )
    )
    if kind == "flip":
        at = draw(st.integers(0, headers_end - 1))
        mask = draw(st.integers(1, 255))
        return _put(data, at, bytes([data[at] ^ mask]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "offset":
        offset = draw(st.integers(0, hop_number + 1))
        return _put(data, _SR_START + 1, bytes([offset]))
    if kind == "no hops":
        return _put(data, _SR_START, b"\x00")
    if kind == "unknown hop":
        hop = draw(st.integers(0, hop_number - 1))
        site_id = draw(st.integers(len(CODEC), 2**32 - 1))
        return _put(data, _HOPS_START + 4 * hop, site_id.to_bytes(4, "big"))
    if kind == "sr flag":
        return _put(
            data, _VXLAN_FLAGS_LOW, bytes([data[_VXLAN_FLAGS_LOW] & 0xFE])
        )
    if kind == "i flag":
        return _put(data, _VXLAN_FLAGS, bytes([data[_VXLAN_FLAGS] & 0xF7]))
    if kind == "udp port":
        port = draw(st.integers(0, 0xFFFF).filter(lambda p: p != 4789))
        return _put(data, _UDP_DST_PORT, port.to_bytes(2, "big"))
    if kind == "udp length":
        length = draw(st.integers(0, 7))
        return _put(data, _UDP_LENGTH, length.to_bytes(2, "big"))
    return data


def _per_router(fabric: WANFabric, packet: WirePacket):
    """The reference walk: every router runs ``process`` on the bytes the
    last one forwarded.  Returns the record and the bytes at the end."""
    site, data = packet.ingress_site, packet.data
    visited, latency = [site], 0.0
    for _ in range(64):
        decision = fabric.routers[site].process(data)
        data = decision.data
        if decision.action != "forward":
            delivered = decision.action == "deliver"
            return (
                DeliveryRecord(delivered, tuple(visited), latency, decision.reason),
                data,
            )
        latency += fabric.network.link(site, decision.next_site).latency_ms
        site = decision.next_site
        visited.append(site)
    return DeliveryRecord(False, tuple(visited), latency, "hop budget exhausted"), data


def _counters(fabric: WANFabric) -> dict[str, dict[str, int]]:
    return {site: r.counters for site, r in fabric.routers.items()}


def _fabric(network) -> WANFabric:
    return WANFabric(network, codec=CODEC, vtep_site_of=lambda ip: "B4-05")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_path_matches_reference(data):
    path = data.draw(st.sampled_from(PATHS))
    payload = data.draw(st.sampled_from([0, 64, 4000]))
    wires = _wire_packets(path, payload)
    wire = data.draw(_mutated(data.draw(st.sampled_from(wires))))
    network = data.draw(st.sampled_from([NET, CUT]))
    site = data.draw(st.sampled_from(list(path) + NET.sites))
    router = SRRouter(site, CODEC, network, vtep_site_of=lambda ip: "B4-05")

    assert router.process(wire) == router._process_decoded(wire)

    walked, reference = _fabric(network), _fabric(network)
    packet = WirePacket(data=wire, ingress_site=path[0])
    for _ in range(2):
        assert walked.deliver(packet) == _per_router(reference, packet)[0]
    assert _counters(walked) == _counters(reference)


def test_hop_budget_matches_reference():
    """A hop list bouncing between two sites exhausts the 64-hop budget
    on the walk exactly where it does router by router."""
    path = ("B4-00", "B4-01") * 40
    wire = _wire_packets(path, 64)[0]
    walked, reference = _fabric(NET), _fabric(NET)
    packet = WirePacket(data=wire, ingress_site="B4-00")
    record = walked.deliver(packet)
    assert record == _per_router(reference, packet)[0]
    assert record.drop_reason == "hop budget exhausted"
    assert len(record.site_path) == 65
    assert _counters(walked) == _counters(reference)


@pytest.mark.parametrize("path", PATHS[::7])
def test_well_formed_packets_take_the_fast_path(path):
    router = SRRouter(path[0], CODEC, NET)
    for wire in _wire_packets(path, 4000):
        decision = router._process_fast(wire)
        assert decision is not None
        assert decision == router._process_decoded(wire)
        assert decision.action == "forward"
        assert decision.next_site == path[1]


def test_multi_hop_delivery_builds_no_header_objects(monkeypatch):
    """A well-formed SR packet is routed by fixed-offset reads alone: no
    header object and no per-hop ``ForwardingDecision``."""
    path = ("B4-00", "B4-02", "B4-04", "B4-06")
    fabric = WANFabric(NET, codec=CODEC)
    host = HostStack(site=path[0], codec=CODEC)
    host.register_instance(7, FLOW.src_ip)
    host.open_connection(host.spawn_process(7), FLOW)
    host.install_path(7, FLOW.dst_ip, path)
    host.send(FLOW, 64)  # fills the host's VXLAN + SR prefix cache

    def forbidden(*args, **kwargs):
        raise AssertionError("per-hop header object built")

    monkeypatch.setattr(SRHeader, "decode", forbidden)
    monkeypatch.setattr(SRHeader, "encode", forbidden)
    monkeypatch.setattr(IPv4Header, "decode", forbidden)
    monkeypatch.setattr(router_module, "ForwardingDecision", forbidden)
    packets = host.send(FLOW, 4000)
    assert len(packets) == 3
    for packet in packets:
        record = fabric.deliver(packet)
        assert record.delivered, record.drop_reason
        assert record.site_path == path
    assert fabric.routers["B4-02"].counters["forward"] == 3
    assert fabric.routers["B4-06"].counters["deliver"] == 3


@st.composite
def _catalog_path(draw) -> tuple:
    """A random WAN and one tunnel of its catalog."""
    net, sites = draw(random_network())
    src, dst = draw(st.permutations(sites))[:2]
    tunnels = build_tunnels(net, [(src, dst)], tunnels_per_pair=3)
    return net, draw(st.sampled_from(tunnels.tunnels(0))).path


@settings(max_examples=60, deadline=None)
@given(wan=_catalog_path(), payload=st.sampled_from([0, 64, 4000]))
def test_sr_round_trip(wan, payload):
    """install_path -> send -> deliver -> decapsulate + reassemble: the
    packets ride the catalog path with the SR path consumed, and the
    datagram comes back with its five tuple and length."""
    net, path = wan
    codec = SiteIdCodec(net.sites)
    fabric = WANFabric(net, codec=codec)
    host = HostStack(site=path[0], codec=codec)
    host.register_instance(7, FLOW.src_ip)
    host.open_connection(host.spawn_process(7), FLOW)
    host.install_path(7, FLOW.dst_ip, path)
    reassembler = Reassembler()
    datagrams = []
    for packet in host.send(FLOW, payload):
        record = fabric.deliver(packet)
        assert record.delivered, record.drop_reason
        assert record.site_path == path
        assert record.latency_ms == pytest.approx(net.path_latency_ms(path))
        reference, egress_bytes = _per_router(fabric, packet)
        assert reference == record
        inner = decapsulate(egress_bytes)
        assert inner.had_sr_header and inner.sr_path_consumed
        datagram = reassembler.push(inner)
        if datagram is not None:
            datagrams.append(datagram)
    assert [(d.flow, len(d.payload)) for d in datagrams] == [(FLOW, payload)]
    assert reassembler.pending == 0


class TestUnknownSiteId:
    def _packet(self) -> bytes:
        wire = _wire_packets(("B4-00", "B4-02", "B4-04"), 100)[0]
        return _put(wire, _HOPS_START + 4, (999).to_bytes(4, "big"))

    def test_router_drops_with_typed_reason(self):
        router = SRRouter("B4-00", CODEC, NET)
        for decide in (router.process, router._process_decoded):
            decision = decide(self._packet())
            assert decision.action == "drop"
            assert decision.reason == "bad SR: unknown site id 999"

    def test_fabric_reports_drop(self):
        fabric = WANFabric(NET, codec=CODEC)
        record = fabric.deliver(
            WirePacket(data=self._packet(), ingress_site="B4-00")
        )
        assert not record.delivered
        assert record.site_path == ("B4-00",)
        assert record.drop_reason == "bad SR: unknown site id 999"


class TestOuterHeaders:
    def test_outer_headers_decode(self):
        wire = _wire_packets(("B4-00", "B4-01"), 100)[0]
        ip, l4 = IPv4Header.decode(wire[ETH_HEADER_LEN:])
        assert ip.total_length == len(wire) - ETH_HEADER_LEN
        assert ip.src == "10.0.0.1" and ip.dst == "10.255.9.9"
        udp, _ = UDPHeader.decode(l4)
        assert udp.length == len(l4)

    def test_source_port_is_pinned(self):
        """CRC-32 of the packed five tuple, not the per-process ``hash``."""
        wire = _wire_packets(("B4-00", "B4-01"), 100)[0]
        _, l4 = IPv4Header.decode(wire[ETH_HEADER_LEN:])
        udp, _ = UDPHeader.decode(l4)
        assert udp.src_port == 63072  # the same under any PYTHONHASHSEED
