"""The eBPF-based end-host networking stack (§5.1-5.2, Figure 6).

A :class:`HostStack` models one end host serving virtual instances.  It
wires three eBPF programs into a :class:`~repro.dataplane.ebpf.Kernel`:

* **execve program** (tracepoint) — records ``pid -> ins_id`` in env_map
  when an instance starts a process.
* **conntrack program** (kprobe) — on a new connection records
  ``five_tuple -> pid`` in contk_map and joins it against env_map to
  populate ``inf_map: five_tuple -> ins_id``.
* **TC egress program** — per outgoing packet: resolves the five tuple
  (via frag_map for non-first fragments), updates traffic_map byte
  counters, looks up the instance's TE path in path_map, and emits the
  VXLAN-encapsulated wire packet with the MegaTE SR header inserted after
  the VXLAN header.

The endpoint agent side (install TE paths, periodically collect
instance-level flow volumes) is exposed as ordinary methods — in
production these are the user-space halves of Figure 6.
"""

from __future__ import annotations

import itertools
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Callable

from .ebpf import EBPFProgram, Hook, Kernel
from .fragmentation import build_udp_fragments
from .maps import (
    CONTK_MAP,
    ENV_MAP,
    FRAG_MAP,
    INF_MAP,
    PATH_MAP,
    TRAFFIC_MAP,
    create_megate_maps,
)
from .packet import (
    ETH_HEADER_LEN,
    EthernetHeader,
    FiveTuple,
    IPV4_WORDS,
    IPv4Header,
    MacAddress,
    PROTO_UDP,
    UDP,
    UDP_HEADER_LEN,
    IPV4_HEADER_LEN,
    encode_ipv4_header,
    ip_to_bytes,
    ipv4_header_valid,
)
from .sr_header import SiteIdCodec, SRHeader
from .vxlan import VXLANHeader, VXLAN_PORT

__all__ = ["HostStack", "WirePacket"]

_HOST_MAC = MacAddress.from_string("02:00:00:00:00:01")
_GW_MAC = MacAddress.from_string("02:00:00:00:00:02")
#: Host -> gateway Ethernet header, on inner frames and outer packets alike.
_ETH = EthernetHeader(dst=_GW_MAC, src=_HOST_MAC).encode()
#: Where an inner frame's IPv4 addresses and L4 ports start.
_SRC_IP = ETH_HEADER_LEN + 12
_DST_IP = _SRC_IP + 4
_L4_START = ETH_HEADER_LEN + IPV4_HEADER_LEN
_PORTS = struct.Struct("!HH")
_FLOW_KEY = struct.Struct("!4s4sBHH")


def _outer_src_port(flow: FiveTuple) -> int:
    """RFC 7348's source port: a hash of the inner headers, here CRC-32 of
    the packed five tuple so it is the same in every process."""
    key = _FLOW_KEY.pack(
        ip_to_bytes(flow.src_ip),
        ip_to_bytes(flow.dst_ip),
        flow.protocol,
        flow.src_port,
        flow.dst_port,
    )
    return 0xC000 | (zlib.crc32(key) & 0x3FFF)


@dataclass(frozen=True)
class WirePacket:
    """One encapsulated packet leaving the host NIC.

    Attributes:
        data: Full encoded bytes (outer Ethernet onward).
        ingress_site: The WAN site the host hands the packet to.
    """

    data: bytes
    ingress_site: str


class HostStack:
    """One end host: instances, kernel, eBPF programs, endpoint agent.

    Args:
        site: The WAN site this host attaches to.
        codec: Shared site-name/id codec for SR headers.
        underlay_ip: The host's VTEP address in the underlay.
        vni: VXLAN network identifier for this tenant segment.
        mtu: MTU applied to instance datagrams before the TC layer.
        vtep_of: Resolves an overlay destination IP to the remote VTEP
            underlay IP (defaults to a deterministic 10.255/16 mapping).
    """

    def __init__(
        self,
        site: str,
        codec: SiteIdCodec,
        underlay_ip: str = "10.0.0.1",
        vni: int = 1,
        mtu: int = 1500,
        vtep_of: Callable[[str], str] | None = None,
    ) -> None:
        self.site = site
        self.codec = codec
        self.underlay_ip = underlay_ip
        self.vni = vni
        self.mtu = mtu
        self.vtep_of = vtep_of or self._default_vtep
        self.kernel = Kernel()
        self.maps = create_megate_maps(self.kernel)
        self._instances: dict[int, str] = {}  # ins_id -> overlay ip
        self._pid_counter = itertools.count(1000)
        self._ipid_counter = itertools.count(1)
        #: VXLAN (+ SR) bytes per hop tuple (``None``: no SR header); at
        #: most one entry per distinct installed path.
        self._vxlan_prefix: dict[tuple[int, ...] | None, bytes] = {}
        self._attach_programs()

    @staticmethod
    def _default_vtep(overlay_dst_ip: str) -> str:
        last_two = overlay_dst_ip.split(".")[-2:]
        return "10.255." + ".".join(last_two)

    # -- eBPF programs -------------------------------------------------------

    def _attach_programs(self) -> None:
        self.kernel.attach(
            EBPFProgram(
                name="megate_execve",
                hook=Hook.SYS_ENTER_EXECVE,
                fn=self._prog_execve,
            )
        )
        self.kernel.attach(
            EBPFProgram(
                name="megate_conntrack",
                hook=Hook.CTNETLINK_CONNTRACK_EVENT,
                fn=self._prog_conntrack,
            )
        )
        self.kernel.attach(
            EBPFProgram(
                name="megate_tc_egress",
                hook=Hook.TC_EGRESS,
                fn=self._prog_tc_egress,
            )
        )

    @staticmethod
    def _prog_execve(ctx: tuple[int, int], maps) -> None:
        """Record (pid -> ins_id) when an instance launches a process."""
        pid, ins_id = ctx
        maps[ENV_MAP].update(pid, ins_id)

    @staticmethod
    def _prog_conntrack(ctx: tuple[int, FiveTuple], maps) -> None:
        """Record (5tuple -> pid) and join env_map into inf_map."""
        pid, flow = ctx
        maps[CONTK_MAP].update(flow, pid)
        ins_id = maps[ENV_MAP].lookup(pid)
        if ins_id is not None:
            maps[INF_MAP].update(flow, ins_id)

    def _prog_tc_egress(self, ctx: bytes, maps) -> bytes | None:
        """Account the packet and encapsulate it with VXLAN (+ SR).

        ``ctx`` is the inner Ethernet frame.  Returns the wire bytes, or
        ``None`` when the frame is unparsable.
        """
        if len(ctx) < _L4_START:
            return None
        words = IPV4_WORDS.unpack_from(ctx, ETH_HEADER_LEN)
        if not ipv4_header_valid(words):
            return None
        identification, flags_fragment = words[2], words[3]

        # Resolve the five tuple, handling fragmentation via frag_map: only
        # a datagram's first fragment (offset 0) carries the ports.
        flow: FiveTuple | None = None
        if not flags_fragment & 0x1FFF:
            if len(ctx) >= _L4_START + UDP_HEADER_LEN:
                src_port, dst_port = _PORTS.unpack_from(ctx, _L4_START)
                flow = FiveTuple(
                    src_ip=socket.inet_ntoa(ctx[_SRC_IP:_DST_IP]),
                    dst_ip=socket.inet_ntoa(ctx[_DST_IP:_L4_START]),
                    protocol=words[4] & 0xFF,
                    src_port=src_port,
                    dst_port=dst_port,
                )
                if flags_fragment & IPv4Header.MORE_FRAGMENTS:
                    maps[FRAG_MAP].update(identification, flow)
        else:
            flow = maps[FRAG_MAP].lookup(identification)
            if flow is not None and not (
                flags_fragment & IPv4Header.MORE_FRAGMENTS
            ):
                maps[FRAG_MAP].delete(identification)
        if flow is None:
            return None

        # Flow accounting: bytes of the whole frame.
        current = maps[TRAFFIC_MAP].lookup(flow) or 0
        maps[TRAFFIC_MAP].update(flow, current + len(ctx))

        # Path lookup: inf_map ⨝ path_map.
        ins_id = maps[INF_MAP].lookup(flow)
        hops = None
        if ins_id is not None:
            hops = maps[PATH_MAP].lookup((ins_id, flow.dst_ip))
            if hops is None:
                hops = maps[PATH_MAP].lookup(ins_id)
        return self._encapsulate(ctx, flow, hops)

    # -- encapsulation -------------------------------------------------------

    def _encapsulate(
        self,
        inner_frame: bytes,
        flow: FiveTuple,
        hops: tuple[int, ...] | None,
    ) -> bytes:
        prefix = self._vxlan_prefix.get(hops)
        if prefix is None:
            prefix = VXLANHeader(
                vni=self.vni, has_sr_header=hops is not None
            ).encode()
            if hops is not None:
                prefix += SRHeader(hops=hops, offset=0).encode()
            self._vxlan_prefix[hops] = prefix
        udp_length = UDP_HEADER_LEN + len(prefix) + len(inner_frame)
        if udp_length > 0xFFFF:
            raise ValueError(f"UDP length {udp_length} outside [8, 65535]")
        outer_ip = encode_ipv4_header(
            self.underlay_ip,
            self.vtep_of(flow.dst_ip),
            PROTO_UDP,
            next(self._ipid_counter) & 0xFFFF,
            IPV4_HEADER_LEN + udp_length,
        )
        return b"".join(
            (
                _ETH,
                outer_ip,
                UDP.pack(_outer_src_port(flow), VXLAN_PORT, udp_length, 0),
                prefix,
                inner_frame,
            )
        )

    # -- instance lifecycle (the virtualization layer) ------------------------

    def register_instance(self, ins_id: int, overlay_ip: str) -> None:
        """Provision a virtual instance (container/VM) on this host."""
        if ins_id in self._instances:
            raise ValueError(f"instance {ins_id} already registered")
        self._instances[ins_id] = overlay_ip

    def instance_ip(self, ins_id: int) -> str:
        return self._instances[ins_id]

    def spawn_process(self, ins_id: int) -> int:
        """An instance launches a process; fires the execve tracepoint."""
        if ins_id not in self._instances:
            raise KeyError(f"unknown instance {ins_id}")
        pid = next(self._pid_counter)
        self.kernel.emit(Hook.SYS_ENTER_EXECVE, (pid, ins_id))
        return pid

    def open_connection(self, pid: int, flow: FiveTuple) -> None:
        """A process opens a connection; fires the conntrack kprobe."""
        self.kernel.emit(Hook.CTNETLINK_CONNTRACK_EVENT, (pid, flow))

    def send(self, flow: FiveTuple, payload_length: int) -> list[WirePacket]:
        """Send one UDP datagram; returns the encapsulated wire packets.

        Datagrams beyond the MTU fragment first, then each fragment
        traverses the TC egress program individually (§5.1).
        """
        ipid = next(self._ipid_counter) & 0xFFFF
        packets = build_udp_fragments(
            flow, payload_length, ipid=ipid, mtu=self.mtu
        )
        out: list[WirePacket] = []
        for ip_packet in packets:
            results = self.kernel.emit(Hook.TC_EGRESS, _ETH + ip_packet)
            for wire in results:
                if wire is not None:
                    out.append(
                        WirePacket(data=wire, ingress_site=self.site)
                    )
        return out

    # -- endpoint agent side ---------------------------------------------------

    def install_path(
        self, ins_id: int, dst_ip: str, path: tuple[str, ...]
    ) -> None:
        """Install a TE path for (instance, destination) into path_map.

        This is what the endpoint agent does after pulling a new TE config
        version from the database.
        """
        self.maps[PATH_MAP].update(
            (ins_id, dst_ip), self.codec.encode_path(path)
        )

    def collect_flows(
        self, clear: bool = True
    ) -> dict[int, int]:
        """Instance-level flow collection: traffic_map ⨝ inf_map.

        Returns:
            Bytes sent per instance id since the last collection — the
            ``(ins_id, volume)`` records the agent ships to the backend.
        """
        volumes: dict[int, int] = {}
        inf = self.maps[INF_MAP]
        for flow, byte_count in self.maps[TRAFFIC_MAP].items():
            ins_id = inf.lookup(flow)
            if ins_id is not None:
                volumes[ins_id] = volumes.get(ins_id, 0) + byte_count
        if clear:
            self.maps[TRAFFIC_MAP].clear()
        return volumes

    def flow_volumes(self) -> dict[FiveTuple, int]:
        """Per-five-tuple byte counters (pre-join view of traffic_map)."""
        return dict(self.maps[TRAFFIC_MAP].items())
