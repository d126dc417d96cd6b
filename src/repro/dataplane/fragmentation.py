"""IP fragmentation of oversized datagrams (§5.1).

A datagram larger than the MTU is split into fragments sharing one IP
*identification* (ipid); only the first fragment carries the L4 header, so
only it reveals the ports of the five tuple.  MegaTE's TC program handles
this with ``frag_map`` (ipid -> five tuple); this module produces the
fragments that program must cope with.
"""

from __future__ import annotations

from .. import checks
from .packet import (
    FiveTuple,
    IPV4_HEADER_LEN,
    IPv4Header,
    MAX_UDP_PAYLOAD,
    UDP,
    UDP_HEADER_LEN,
    encode_ipv4_header,
)

__all__ = ["build_udp_fragments"]


def build_udp_fragments(
    flow: FiveTuple,
    payload_length: int,
    ipid: int,
    mtu: int = 1500,
) -> list[bytes]:
    """Build the IP packet(s) of one UDP datagram, fragmenting at the MTU.

    Args:
        flow: The datagram's five tuple (protocol must be UDP).
        payload_length: UDP payload bytes (synthetic zeros).
        ipid: IP identification shared by all fragments.
        mtu: Link MTU in bytes (IP header included).

    Returns:
        Encoded IPv4 packets: a single packet when it fits, otherwise
        fragments with correct offsets and MF flags.
    """
    checks.nonnegative("payload_length", payload_length)
    if payload_length > MAX_UDP_PAYLOAD:
        raise ValueError(
            f"UDP payload limited to {MAX_UDP_PAYLOAD} bytes; split the "
            "transfer into multiple datagrams"
        )
    if mtu < IPV4_HEADER_LEN + 8:
        raise ValueError("mtu too small for IPv4")
    udp_length = UDP_HEADER_LEN + payload_length
    l4_bytes = UDP.pack(
        flow.src_port, flow.dst_port, udp_length, 0
    ) + bytes(payload_length)
    if IPV4_HEADER_LEN + udp_length <= mtu:
        return [
            encode_ipv4_header(
                flow.src_ip,
                flow.dst_ip,
                flow.protocol,
                ipid,
                IPV4_HEADER_LEN + udp_length,
            )
            + l4_bytes
        ]

    # Fragment: payload per fragment must be a multiple of 8 bytes.
    max_payload = (mtu - IPV4_HEADER_LEN) // 8 * 8
    fragments: list[bytes] = []
    for offset in range(0, udp_length, max_payload):
        chunk = l4_bytes[offset : offset + max_payload]
        more = offset + max_payload < udp_length
        header = encode_ipv4_header(
            flow.src_ip,
            flow.dst_ip,
            flow.protocol,
            ipid,
            IPV4_HEADER_LEN + len(chunk),
            flags_fragment=offset // 8
            | (IPv4Header.MORE_FRAGMENTS if more else 0),
        )
        fragments.append(header + chunk)
    return fragments
