"""SR-aware WAN router (§5.2, "Router implementation").

"The router site profiles the packet and analyzes the VXLAN header to
identify if the packet uses MegaTE SR information.  If it is identified as
a MegaTE SR header, the router obtains the hop information from the SR
header and forwards the packet to the specified path."

Packets without the SR flag fall back to conventional destination-based
forwarding (shortest path by latency), which is also what happens to the
traffic of tenants not managed by MegaTE.

A well-formed SR packet takes the fast path: fixed-offset reads of the
outer headers (:func:`read_sr`), hop ids compared as integers, and an
output that is the input with only the 4-byte SR fixed word rewritten.
Everything else falls through to the decoder path, which is also the
reference the fast path is tested against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

from .packet import (
    ETH_HEADER_LEN,
    EthernetHeader,
    IPV4_HEADER_LEN,
    IPv4Header,
    UDP_HEADER_LEN,
    UDPHeader,
    ipv4_header_valid,
)
from .sr_header import SR_FIXED, SiteIdCodec, SRHeader
from .vxlan import VXLAN_HEADER_LEN, VXLANHeader, VXLAN_PORT

if TYPE_CHECKING:
    from ..topology.graph import SiteNetwork

__all__ = ["ForwardingDecision", "SRRouter", "read_sr"]

#: Where the SR header starts: right after outer Ethernet/IPv4/UDP/VXLAN.
_SR_START = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + VXLAN_HEADER_LEN
_HOPS_START = _SR_START + SR_FIXED.size
#: From the outer IPv4 header on: its ten 16-bit words, the UDP destination
#: port and length, VXLAN word 0, then the SR hop number and offset.
_OUTER = struct.Struct("!10H2xHH2xI4xBB")
#: VXLAN word 0 must carry both the I flag and MegaTE's SR flag.
_SR_VXLAN_FLAGS = 0x08000001
#: Hop-list layouts by hop number (at most 255), compiled on first use.
_HOP_LISTS: dict[int, struct.Struct] = {}


def read_sr(data: bytes) -> tuple[tuple[int, ...], int] | None:
    """The hop ids and offset of a well-formed SR packet, else ``None``.

    Makes, at fixed offsets, every check the decoder path makes on a
    packet before it reads the hop ids: IPv4 version and header checksum,
    UDP port and length ≥ 8, the VXLAN I and SR flags, ``hop_number ≥ 1``,
    ``offset ≤ hop_number`` and no truncated hop list.  A router's rewrite
    changes only the SR fixed word, to an offset that stays within the hop
    number, so a packet that passes here passes at every router it visits.
    """
    if len(data) < _HOPS_START:
        return None
    fields = _OUTER.unpack_from(data, ETH_HEADER_LEN)
    dst_port, udp_length, vxlan_word0, hop_number, offset = fields[10:]
    if (
        dst_port != VXLAN_PORT
        or udp_length < UDP_HEADER_LEN
        or vxlan_word0 & _SR_VXLAN_FLAGS != _SR_VXLAN_FLAGS
        or hop_number == 0
        or offset > hop_number
        or len(data) < _HOPS_START + 4 * hop_number
        or not ipv4_header_valid(fields[:10])
    ):
        return None
    hop_list = _HOP_LISTS.get(hop_number)
    if hop_list is None:
        hop_list = _HOP_LISTS[hop_number] = struct.Struct(f"!{hop_number}I")
    return hop_list.unpack_from(data, _HOPS_START), offset


@dataclass(frozen=True)
class ForwardingDecision:
    """A router's verdict on one packet.

    Attributes:
        action: ``"forward"``, ``"deliver"`` or ``"drop"``.
        next_site: The next WAN site (forward only).
        data: The (possibly rewritten) packet bytes.
        reason: Human-readable note for drops.
    """

    action: str
    data: bytes
    next_site: str | None = None
    reason: str = ""


class SRRouter:
    """One WAN router site.

    Args:
        site: The site this router serves.
        codec: Shared site-name/id codec.
        network: The site layer (for fallback shortest-path forwarding and
            link liveness checks).
        vtep_site_of: Optional resolver mapping an outer destination IP to
            its egress site; required only for non-SR fallback traffic.
    """

    def __init__(
        self,
        site: str,
        codec: SiteIdCodec,
        network: "SiteNetwork",
        vtep_site_of=None,
    ) -> None:
        self.site = site
        self.codec = codec
        self.network = network
        self.vtep_site_of = vtep_site_of
        #: This router's own SR hop id (-1: a site the codec lacks).
        self.site_id = codec.id_of(site) if site in codec else -1
        #: Operational counters: packets forwarded/delivered/dropped here.
        self.counters: dict[str, int] = {
            "forward": 0,
            "deliver": 0,
            "drop": 0,
        }

    def process(self, data: bytes) -> ForwardingDecision:
        """Parse one wire packet and decide where it goes.

        SR packets follow their hop list exactly; a hop over a dead link is
        dropped (this is what the recomputation window in §6.3 costs).
        """
        decision = self._process(data)
        self.counters[decision.action] += 1
        return decision

    def _process(self, data: bytes) -> ForwardingDecision:
        return self._process_fast(data) or self._process_decoded(data)

    def _process_fast(self, data: bytes) -> ForwardingDecision | None:
        """The decision for a well-formed SR packet, else ``None``.

        Makes every check :meth:`_process_decoded` makes, reading fixed
        offsets instead of building header objects; any packet it cannot
        vouch for is left to the decoder path.
        """
        sr = read_sr(data)
        if sr is None:
            return None
        hops, offset = sr
        end = len(hops)
        # Consume our own hop(s) if we are the current one.
        while offset < end and hops[offset] == self.site_id:
            offset += 1
        next_site = None
        if offset < end:
            if hops[offset] >= len(self.codec):
                return None
            next_site = self.codec.name_of(hops[offset])
            if not self.network.has_link(self.site, next_site):
                return ForwardingDecision(
                    action="drop",
                    data=data,
                    reason=f"no link {self.site} -> {next_site}",
                )
        # The input with only the SR fixed word rewritten; the reserved
        # field is zeroed, as SRHeader.encode does on the decoder path.
        rewritten = (
            data[:_SR_START]
            + SR_FIXED.pack(end, offset, 0)
            + data[_HOPS_START:]
        )
        if next_site is None:
            return ForwardingDecision(action="deliver", data=rewritten)
        return ForwardingDecision(
            action="forward", next_site=next_site, data=rewritten
        )

    def _process_decoded(self, data: bytes) -> ForwardingDecision:
        """The reference path: decode every header into objects."""
        try:
            eth, rest = EthernetHeader.decode(data)
            ip, l4 = IPv4Header.decode(rest)
            udp, payload = UDPHeader.decode(l4)
        except ValueError as exc:
            return ForwardingDecision(
                action="drop", data=data, reason=f"malformed: {exc}"
            )
        if udp.dst_port != VXLAN_PORT:
            return ForwardingDecision(
                action="drop", data=data, reason="not VXLAN"
            )
        try:
            vxlan, after_vxlan = VXLANHeader.decode(payload)
        except ValueError as exc:
            return ForwardingDecision(
                action="drop", data=data, reason=f"bad VXLAN: {exc}"
            )
        if vxlan.has_sr_header:
            return self._process_sr(data, after_vxlan)
        return self._process_fallback(data, ip)

    def _process_sr(
        self, original: bytes, after_vxlan: bytes
    ) -> ForwardingDecision:
        try:
            sr, _ = SRHeader.decode(after_vxlan)
        except ValueError as exc:
            return ForwardingDecision(
                action="drop", data=original, reason=f"bad SR: {exc}"
            )
        try:
            # Consume our own hop if we are the current one.
            while not sr.exhausted and (
                self.codec.name_of(sr.current_hop) == self.site
            ):
                sr = sr.advanced()
            if sr.exhausted:
                return ForwardingDecision(
                    action="deliver", data=self._rewrite_sr(original, sr)
                )
            next_site = self.codec.name_of(sr.current_hop)
        except KeyError as exc:
            return ForwardingDecision(
                action="drop", data=original, reason=f"bad SR: {exc.args[0]}"
            )
        if not self.network.has_link(self.site, next_site):
            return ForwardingDecision(
                action="drop",
                data=original,
                reason=f"no link {self.site} -> {next_site}",
            )
        return ForwardingDecision(
            action="forward",
            next_site=next_site,
            data=self._rewrite_sr(original, sr),
        )

    def _process_fallback(
        self, original: bytes, ip: IPv4Header
    ) -> ForwardingDecision:
        """Destination-based shortest-path forwarding for non-SR traffic."""
        if self.vtep_site_of is None:
            return ForwardingDecision(
                action="drop",
                data=original,
                reason="no VTEP resolver for non-SR traffic",
            )
        egress = self.vtep_site_of(ip.dst)
        if egress == self.site:
            return ForwardingDecision(action="deliver", data=original)
        try:
            path = nx.shortest_path(
                self.network.routing_graph(),
                self.site,
                egress,
                weight="latency_ms",
            )
        except nx.NetworkXNoPath:
            return ForwardingDecision(
                action="drop", data=original, reason="no route"
            )
        return ForwardingDecision(
            action="forward", next_site=path[1], data=original
        )

    @staticmethod
    def _rewrite_sr(original: bytes, sr: SRHeader) -> bytes:
        """Re-encode the packet with the advanced SR offset in place."""
        old_sr, _ = SRHeader.decode(original[_SR_START:])
        return (
            original[:_SR_START]
            + sr.encode()
            + original[_SR_START + old_sr.encoded_length :]
        )
