"""Byte-accurate packet codecs: Ethernet, IPv4, UDP.

The data-plane pipeline (Figure 7(a)) operates on real encoded bytes so the
eBPF programs, VXLAN encapsulation, SR insertion and router parsing all
exercise genuine wire formats.  Only the fields the system touches are
modelled; checksums are computed for IPv4 (routers recompute on TTL
decrement) and left zero for UDP (legal over IPv4).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "MacAddress",
    "EthernetHeader",
    "IPv4Header",
    "UDPHeader",
    "FiveTuple",
    "ETHERTYPE_IPV4",
    "PROTO_UDP",
    "PROTO_TCP",
]

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

_ETH_FMT = "!6s6sH"
_IPV4_FMT = "!BBHHHBBH4s4s"
_UDP_FMT = "!HHHH"

_IPV4 = struct.Struct(_IPV4_FMT)
#: A UDP header: source port, destination port, length, checksum.
UDP = struct.Struct(_UDP_FMT)

ETH_HEADER_LEN = struct.calcsize(_ETH_FMT)
IPV4_HEADER_LEN = _IPV4.size
UDP_HEADER_LEN = UDP.size
#: An (option-less) IPv4 header as its ten 16-bit words.
IPV4_WORDS = struct.Struct("!10H")
#: The largest UDP payload one IPv4 datagram can carry.
MAX_UDP_PAYLOAD = 0xFFFF - IPV4_HEADER_LEN - UDP_HEADER_LEN


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit MAC address."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 6:
            raise ValueError("MAC address must be 6 bytes")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.value)


def ip_to_bytes(ip: str) -> bytes:
    return _address(ip)[0]


@lru_cache(maxsize=1 << 16)
def _address(ip: str) -> tuple[bytes, int]:
    """An address's wire bytes and the sum of its two 16-bit words."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {ip!r}")
    raw = bytes(int(p) for p in parts)
    return raw, (raw[0] << 8 | raw[1]) + (raw[2] << 8 | raw[3])


def _bytes_to_ip(data: bytes) -> str:
    return ".".join(str(b) for b in data)


def _ones_complement(total: int) -> int:
    """RFC 791's checksum of 16-bit words summing to ``total``."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones-complement checksum over a header with zeroed field."""
    if len(header) % 2:
        header += b"\x00"
    return _ones_complement(sum(struct.unpack(f"!{len(header) // 2}H", header)))


def ipv4_header_valid(words: tuple[int, ...]) -> bool:
    """The checks :meth:`IPv4Header.decode` makes, on the ten header words
    (:data:`IPV4_WORDS`): version 4 and a matching checksum."""
    checksum = words[5]
    return (
        words[0] >> 12 == 4
        and _ones_complement(sum(words) - checksum) == checksum
    )


def encode_ipv4_header(
    src: str,
    dst: str,
    protocol: int,
    identification: int,
    total_length: int,
    flags_fragment: int = 0,
    ttl: int = 64,
    tos: int = 0,
) -> bytes:
    """An option-less IPv4 header, checksum included, packed in one call:
    the bytes of the equal :class:`IPv4Header`'s :meth:`~IPv4Header.encode`."""
    src_raw, src_sum = _address(src)
    dst_raw, dst_sum = _address(dst)
    checksum = _ones_complement(
        (0x4500 | tos)
        + total_length
        + identification
        + flags_fragment
        + (ttl << 8 | protocol)
        + src_sum
        + dst_sum
    )
    return _IPV4.pack(
        0x45,
        tos,
        total_length,
        identification,
        flags_fragment,
        ttl,
        protocol,
        checksum,
        src_raw,
        dst_raw,
    )


@dataclass(frozen=True)
class EthernetHeader:
    """Ethernet II header."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    def encode(self) -> bytes:
        return struct.pack(
            _ETH_FMT, self.dst.value, self.src.value, self.ethertype
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["EthernetHeader", bytes]:
        if len(data) < ETH_HEADER_LEN:
            raise ValueError("truncated Ethernet header")
        dst, src, ethertype = struct.unpack(
            _ETH_FMT, data[:ETH_HEADER_LEN]
        )
        return (
            cls(dst=MacAddress(dst), src=MacAddress(src), ethertype=ethertype),
            data[ETH_HEADER_LEN:],
        )


@dataclass(frozen=True)
class IPv4Header:
    """IPv4 header (no options).

    ``flags_fragment`` packs the 3 flag bits and 13-bit fragment offset
    (in 8-byte units) as on the wire; ``identification`` is the *ipid* the
    eBPF fragmentation handling keys on (§5.1).
    """

    src: str
    dst: str
    protocol: int = PROTO_UDP
    identification: int = 0
    flags_fragment: int = 0
    ttl: int = 64
    total_length: int = IPV4_HEADER_LEN
    tos: int = 0

    MORE_FRAGMENTS = 0x2000

    @property
    def fragment_offset_bytes(self) -> int:
        """Fragment offset in bytes."""
        return (self.flags_fragment & 0x1FFF) * 8

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags_fragment & self.MORE_FRAGMENTS)

    @property
    def is_fragment(self) -> bool:
        """True for any fragment of a fragmented datagram."""
        return self.more_fragments or self.fragment_offset_bytes > 0

    @property
    def is_first_fragment(self) -> bool:
        return self.more_fragments and self.fragment_offset_bytes == 0

    def encode(self) -> bytes:
        return encode_ipv4_header(
            self.src,
            self.dst,
            self.protocol,
            self.identification,
            self.total_length,
            flags_fragment=self.flags_fragment,
            ttl=self.ttl,
            tos=self.tos,
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["IPv4Header", bytes]:
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack(_IPV4_FMT, data[:IPV4_HEADER_LEN])
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        zeroed = (
            data[:10] + b"\x00\x00" + data[12:IPV4_HEADER_LEN]
        )
        if checksum != ipv4_checksum(zeroed):
            raise ValueError("IPv4 checksum mismatch")
        header = cls(
            src=_bytes_to_ip(src),
            dst=_bytes_to_ip(dst),
            protocol=protocol,
            identification=identification,
            flags_fragment=flags_fragment,
            ttl=ttl,
            total_length=total_length,
            tos=tos,
        )
        return header, data[IPV4_HEADER_LEN:]


@dataclass(frozen=True)
class UDPHeader:
    """UDP header (checksum zero = unused, legal over IPv4)."""

    src_port: int
    dst_port: int
    length: int = UDP_HEADER_LEN

    def __post_init__(self) -> None:
        if not UDP_HEADER_LEN <= self.length <= 0xFFFF:
            raise ValueError(
                f"UDP length {self.length} outside [8, 65535]"
            )

    def encode(self) -> bytes:
        return UDP.pack(self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def decode(cls, data: bytes) -> tuple["UDPHeader", bytes]:
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, _ = struct.unpack(
            _UDP_FMT, data[:UDP_HEADER_LEN]
        )
        return (
            cls(src_port=src_port, dst_port=dst_port, length=length),
            data[UDP_HEADER_LEN:],
        )


@dataclass(frozen=True, order=True)
class FiveTuple:
    """The connection identifier conventional TE hashes on (§1 fn. 1)."""

    src_ip: str
    dst_ip: str
    protocol: int
    src_port: int
    dst_port: int

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"bad port {port}")

    def reversed(self) -> "FiveTuple":
        """The reply direction's five tuple."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )
