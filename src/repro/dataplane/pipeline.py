"""End-to-end delivery: host TC egress → WAN routers → egress site.

Glues the host stack and routers into one WAN: a packet emitted by a
:class:`~repro.dataplane.host_stack.HostStack` is walked router by router
until delivery, drop, or hop-budget exhaustion, recording the site path and
accumulated latency.  A well-formed SR packet has its outer headers
checked once, at the ingress router; every router after that does only the
work that depends on the SR offset.  Integration tests use this to prove
the TE-assigned tunnel is exactly the path packets actually take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .router import SRRouter, read_sr
from .sr_header import SiteIdCodec

if TYPE_CHECKING:
    from ..topology.graph import SiteNetwork
    from .host_stack import WirePacket

__all__ = ["DeliveryRecord", "WANFabric"]

_MAX_HOPS = 64


@dataclass(frozen=True)
class DeliveryRecord:
    """Fate of one packet across the WAN.

    Attributes:
        delivered: Whether the packet reached an egress site.
        site_path: Sites visited, ingress first.
        latency_ms: Sum of link latencies along the traversed path.
        drop_reason: Why it was dropped (empty when delivered).
    """

    delivered: bool
    site_path: tuple[str, ...]
    latency_ms: float
    drop_reason: str = ""


class WANFabric:
    """All router sites of a WAN, ready to forward packets.

    Args:
        network: The site layer.
        codec: Shared site codec; defaults to one over ``network.sites``.
        vtep_site_of: Resolver for non-SR fallback traffic.
    """

    def __init__(
        self,
        network: "SiteNetwork",
        codec: SiteIdCodec | None = None,
        vtep_site_of=None,
    ) -> None:
        self.network = network
        self.codec = codec or SiteIdCodec(network.sites)
        self.routers = {
            site: SRRouter(
                site, self.codec, network, vtep_site_of=vtep_site_of
            )
            for site in network.sites
        }

    def deliver(self, packet: "WirePacket") -> DeliveryRecord:
        """Walk one packet from its ingress site to delivery or drop.

        A well-formed SR packet is checked once, at its ingress router
        (:func:`read_sr`).  Each router on its path then does only the
        work that depends on the SR offset, exactly as
        :meth:`SRRouter.process` would on the bytes the last router
        forwarded: it consumes its own hop ids, checks that the next id is
        known and that the link to it is up, and counts its decision.  Any
        other packet goes router by router through ``process``.
        """
        site = packet.ingress_site
        router = self.routers[site]
        sr = read_sr(packet.data)
        if sr is None:
            return self._walk(site, packet.data)
        hops, offset = sr
        end = len(hops)
        known = len(self.codec)
        name_of = self.codec.name_of
        link = self.network.link
        visited = [site]
        latency = 0.0
        for _ in range(_MAX_HOPS):
            while offset < end and hops[offset] == router.site_id:
                offset += 1
            if offset == end:
                router.counters["deliver"] += 1
                return DeliveryRecord(
                    delivered=True,
                    site_path=tuple(visited),
                    latency_ms=latency,
                )
            if hops[offset] >= known:
                router.counters["drop"] += 1
                return DeliveryRecord(
                    delivered=False,
                    site_path=tuple(visited),
                    latency_ms=latency,
                    drop_reason=f"bad SR: unknown site id {hops[offset]}",
                )
            next_site = name_of(hops[offset])
            try:
                latency += link(site, next_site).latency_ms
            except KeyError:
                router.counters["drop"] += 1
                return DeliveryRecord(
                    delivered=False,
                    site_path=tuple(visited),
                    latency_ms=latency,
                    drop_reason=f"no link {site} -> {next_site}",
                )
            router.counters["forward"] += 1
            site = next_site
            router = self.routers[site]
            visited.append(site)
        return DeliveryRecord(
            delivered=False,
            site_path=tuple(visited),
            latency_ms=latency,
            drop_reason="hop budget exhausted",
        )

    def _walk(self, site: str, data: bytes) -> DeliveryRecord:
        """The router-by-router walk from ``site``: each router runs
        :meth:`SRRouter.process` on the bytes the last one forwarded."""
        visited = [site]
        latency = 0.0
        for _ in range(_MAX_HOPS):
            decision = self.routers[site].process(data)
            if decision.action == "deliver":
                return DeliveryRecord(
                    delivered=True,
                    site_path=tuple(visited),
                    latency_ms=latency,
                )
            if decision.action == "drop":
                return DeliveryRecord(
                    delivered=False,
                    site_path=tuple(visited),
                    latency_ms=latency,
                    drop_reason=decision.reason,
                )
            next_site = decision.next_site
            latency += self.network.link(site, next_site).latency_ms
            site = next_site
            data = decision.data
            visited.append(site)
        return DeliveryRecord(
            delivered=False,
            site_path=tuple(visited),
            latency_ms=latency,
            drop_reason="hop budget exhausted",
        )
