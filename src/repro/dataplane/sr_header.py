"""The MegaTE segment-routing header (§5.2, Figure 7(b)).

Inserted by the host's TC-layer eBPF program immediately after the VXLAN
header.  Fields, per the paper: **Hop Number** — total hops; **Hop[]** — the
sequence of next hops (the site-level path); **Offset** — index of the
current hop, advanced by each router.

Wire format used here: one byte hop number, one byte offset, two reserved
bytes, then ``hop_number`` 32-bit site identifiers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = ["SRHeader", "SiteIdCodec"]

#: The fixed word: hop number, offset, reserved.
SR_FIXED = struct.Struct("!BBH")
_FIXED_LEN = SR_FIXED.size
MAX_HOPS = 255


@dataclass(frozen=True)
class SRHeader:
    """A MegaTE SR header.

    Attributes:
        hops: Numeric site ids of the remaining path, ingress to egress.
        offset: Index of the hop the packet must be forwarded to next.
    """

    hops: tuple[int, ...]
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("SR header needs at least one hop")
        if len(self.hops) > MAX_HOPS:
            raise ValueError("too many hops")
        if not 0 <= self.offset <= len(self.hops):
            raise ValueError("offset out of range")
        for hop in self.hops:
            if not 0 <= hop < (1 << 32):
                raise ValueError("hop id must fit in 32 bits")

    @property
    def hop_number(self) -> int:
        return len(self.hops)

    @property
    def exhausted(self) -> bool:
        """All hops consumed — the packet is at its egress site."""
        return self.offset >= len(self.hops)

    @property
    def current_hop(self) -> int:
        """The site id the packet must go to next."""
        if self.exhausted:
            raise IndexError("SR path exhausted")
        return self.hops[self.offset]

    def advanced(self) -> "SRHeader":
        """The header after a router consumed the current hop."""
        if self.exhausted:
            raise IndexError("SR path exhausted")
        return SRHeader(hops=self.hops, offset=self.offset + 1)

    def encode(self) -> bytes:
        return SR_FIXED.pack(
            self.hop_number, self.offset, 0
        ) + struct.pack(f"!{self.hop_number}I", *self.hops)

    @classmethod
    def decode(cls, data: bytes) -> tuple["SRHeader", bytes]:
        if len(data) < _FIXED_LEN:
            raise ValueError("truncated SR header")
        hop_number, offset, _ = SR_FIXED.unpack_from(data)
        body_len = 4 * hop_number
        if len(data) < _FIXED_LEN + body_len:
            raise ValueError("truncated SR hop list")
        hops = struct.unpack(
            f"!{hop_number}I", data[_FIXED_LEN : _FIXED_LEN + body_len]
        )
        return (
            cls(hops=hops, offset=offset),
            data[_FIXED_LEN + body_len :],
        )

    @property
    def encoded_length(self) -> int:
        return _FIXED_LEN + 4 * self.hop_number


class SiteIdCodec:
    """Bidirectional site-name <-> numeric-id mapping for SR headers.

    The control plane distributes paths as site-name tuples; the wire
    carries 32-bit ids.  Both hosts and routers share one codec (in
    production this is the SR label space).
    """

    def __init__(self, sites: list[str]) -> None:
        self._name_to_id = {name: idx for idx, name in enumerate(sites)}
        self._id_to_name = list(sites)
        if len(self._name_to_id) != len(sites):
            raise ValueError("duplicate site names")

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __contains__(self, site: object) -> bool:
        return site in self._name_to_id

    def id_of(self, site: str) -> int:
        return self._name_to_id[site]

    def name_of(self, site_id: int) -> str:
        if not 0 <= site_id < len(self._id_to_name):
            raise KeyError(f"unknown site id {site_id}")
        return self._id_to_name[site_id]

    def encode_path(self, path: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.id_of(site) for site in path)

    def decode_path(self, hops: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.name_of(hop) for hop in hops)
