"""The host send path against header objects, and the packet path pinned.

``HostStack.send`` builds its inner and outer IPv4/UDP headers with
precompiled structs.  These tests hold its wire bytes to a reference that
builds every header as an object, guard that a warm send builds none, and
pin one fixed send sequence's wires, delivery records, router counters and
``traffic_map`` to a digest.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    FiveTuple,
    HostStack,
    IPv4Header,
    PROTO_TCP,
    PROTO_UDP,
    SiteIdCodec,
    SRHeader,
    UDPHeader,
    VXLANHeader,
    VXLAN_PORT,
    WANFabric,
)
from repro.dataplane.host_stack import _ETH, _outer_src_port
from repro.dataplane.maps import TRAFFIC_MAP
from repro.dataplane.packet import IPV4_HEADER_LEN, UDP_HEADER_LEN
from repro.topology import b4

NET = b4()
CODEC = SiteIdCodec(NET.sites)
FLOW = FiveTuple("192.168.0.7", "192.168.9.9", PROTO_UDP, 40000, 443)
PATH = ("B4-00", "B4-02", "B4-04", "B4-06")


def _reference_wires(host, flow, payload, ipid, hops) -> list[bytes]:
    """``host.send``'s wires built from header objects: the inner datagram
    fragmented at the MTU, then VXLAN (+ SR) and outer UDP/IPv4 per frame."""
    l4 = UDPHeader(flow.src_port, flow.dst_port, 8 + payload).encode()
    l4 += bytes(payload)
    step = (host.mtu - IPV4_HEADER_LEN) // 8 * 8
    if IPV4_HEADER_LEN + len(l4) <= host.mtu:
        step = len(l4)
    prefix = VXLANHeader(host.vni, has_sr_header=hops is not None).encode()
    prefix += SRHeader(hops).encode() if hops is not None else b""
    wires = []
    for offset in range(0, len(l4), step):
        chunk = l4[offset : offset + step]
        more = IPv4Header.MORE_FRAGMENTS if offset + step < len(l4) else 0
        inner = _ETH + IPv4Header(
            flow.src_ip, flow.dst_ip, flow.protocol, ipid,
            offset // 8 | more, total_length=IPV4_HEADER_LEN + len(chunk),
        ).encode() + chunk
        udp = UDPHeader(_outer_src_port(flow), VXLAN_PORT, 8 + len(prefix) + len(inner))
        outer = IPv4Header(
            host.underlay_ip, host.vtep_of(flow.dst_ip), PROTO_UDP,
            ipid + 1 + len(wires), total_length=IPV4_HEADER_LEN + udp.length,
        )
        wires.append(_ETH + outer.encode() + udp.encode() + prefix + inner)
    return wires


def _host(flows, path=PATH, mtu=1500) -> HostStack:
    host = HostStack(site=path[0], codec=CODEC, mtu=mtu)
    host.register_instance(7, flows[0].src_ip)
    pid = host.spawn_process(7)
    for flow in flows:
        host.open_connection(pid, flow)
        host.install_path(7, flow.dst_ip, path)
    return host


_flows = st.builds(
    FiveTuple,
    src_ip=st.sampled_from(["192.168.0.7", "10.1.2.3"]),
    dst_ip=st.sampled_from(["192.168.9.9", "172.16.4.200"]),
    protocol=st.sampled_from([PROTO_UDP, PROTO_TCP]),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
)


@settings(max_examples=150, deadline=None)
@given(
    sends=st.lists(
        st.tuples(_flows, st.integers(0, 9000)), min_size=1, max_size=6
    ),
    mtu=st.sampled_from([68, 576, 1500, 9000]),
    installed=st.booleans(),
)
def test_send_matches_header_objects(sends, mtu, installed):
    """Wires and ``traffic_map`` equal the header-object reference."""
    flows = [flow for flow, _ in sends]
    host = _host(flows, mtu=mtu)
    if not installed:
        host.maps["path_map"].clear()
    hops = CODEC.encode_path(PATH) if installed else None
    # Outer Ethernet, IPv4, UDP, VXLAN and SR: what traffic_map omits.
    outer_bytes = len(_ETH) + IPV4_HEADER_LEN + UDP_HEADER_LEN + 8
    outer_bytes += 4 + 4 * len(PATH) if installed else 0
    ipid = 1
    expected_bytes: dict[FiveTuple, int] = {}
    for flow, payload in sends:
        wires = [wire.data for wire in host.send(flow, payload)]
        assert wires == _reference_wires(host, flow, payload, ipid, hops)
        ipid += 1 + len(wires)
        expected_bytes[flow] = expected_bytes.get(flow, 0) + sum(
            len(wire) - outer_bytes for wire in wires
        )
    assert dict(host.maps[TRAFFIC_MAP].items()) == expected_bytes


def test_warm_send_builds_no_header_objects(monkeypatch):
    host = _host([FLOW])
    host.send(FLOW, 4000)  # fills the host's VXLAN + SR prefix cache

    def forbidden(*args, **kwargs):
        raise AssertionError("per-packet header object built")

    for cls in (IPv4Header, UDPHeader):
        monkeypatch.setattr(cls, "__init__", forbidden)
    assert len(host.send(FLOW, 4000)) == 3
    assert len(host.send(FLOW, 64)) == 1


# -- the pinned packet path ---------------------------------------------------

#: SHA-256 of the sequence below, as the header-object sender and the
#: router-by-router fabric produced it.
PINNED_DIGEST = (
    "7699dc69cf40a84d4eb59781b8569db0b1c1c943ba3692a22f1c0c737475006a"
)


def _pinned_sequence() -> str:
    """Four flows on B4 (a 3-hop path, a 1-hop path, a path over a cut
    link, no path at all) sending 0 B to 9 000 B; hashes every wire, every
    delivery record, every router's counters and ``traffic_map``."""
    cut = NET.without_links([("B4-02", "B4-04")])
    fabrics = [
        WANFabric(NET, codec=CODEC, vtep_site_of=lambda ip: "B4-06"),
        WANFabric(cut, codec=CODEC),
    ]
    host = HostStack(site="B4-00", codec=CODEC, underlay_ip="10.0.3.1")
    flows = [
        FiveTuple("172.16.0.1", f"172.16.9.{i}", PROTO_UDP, 40000 + i, 443)
        for i in range(4)
    ]
    paths = [PATH, ("B4-00", "B4-01"), ("B4-00", "B4-02", "B4-04"), None]
    for ins_id, (flow, path) in enumerate(zip(flows, paths)):
        host.register_instance(ins_id, f"172.16.0.{ins_id + 1}")
        host.open_connection(host.spawn_process(ins_id), flow)
        if path is not None:
            host.install_path(ins_id, flow.dst_ip, path)
    digest = hashlib.sha256()
    for payload in (0, 64, 1472, 1473, 4000, 9000):
        for flow in flows:
            for wire in host.send(flow, payload):
                digest.update(wire.data)
                for fabric in fabrics:
                    digest.update(repr(fabric.deliver(wire)).encode())
    for fabric in fabrics:
        for site, router in sorted(fabric.routers.items()):
            digest.update(f"{site} {sorted(router.counters.items())}".encode())
    digest.update(repr(sorted(host.maps[TRAFFIC_MAP].items())).encode())
    return digest.hexdigest()


def test_pinned_packet_path():
    assert _pinned_sequence() == PINNED_DIGEST
