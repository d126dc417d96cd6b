"""JSON (de)serialization of topologies, tunnels and endpoint layouts.

Lets users persist and share scenarios — a site network with its
pre-established tunnels and endpoint layout round-trips through a plain
JSON document (no pickle, safe to exchange).
"""

from __future__ import annotations

import json
from typing import Any

from .contraction import TwoLayerTopology
from .endpoints import EndpointLayout
from .graph import Link, SiteNetwork
from .tunnels import Tunnel, TunnelCatalog

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "topology_to_dict",
    "topology_from_dict",
    "dump_topology",
    "load_topology",
]

_FORMAT_VERSION = 1


def network_to_dict(network: SiteNetwork) -> dict[str, Any]:
    """A JSON-safe representation of a site network."""
    return {
        "name": network.name,
        "sites": network.sites,
        "links": [
            {
                "src": link.src,
                "dst": link.dst,
                "capacity": link.capacity,
                "latency_ms": link.latency_ms,
                "cost_per_gbps": link.cost_per_gbps,
                "availability": link.availability,
            }
            for link in network.links
        ],
    }


def network_from_dict(data: dict[str, Any]) -> SiteNetwork:
    """Inverse of :func:`network_to_dict`."""
    network = SiteNetwork(name=data.get("name", "wan"))
    for site in data.get("sites", []):
        network.add_site(site)
    for entry in data.get("links", []):
        network.add_link(
            Link(
                src=entry["src"],
                dst=entry["dst"],
                capacity=entry["capacity"],
                latency_ms=entry.get("latency_ms", 1.0),
                cost_per_gbps=entry.get("cost_per_gbps", 1.0),
                availability=entry.get("availability", 0.9999),
            )
        )
    return network


def topology_to_dict(topology: TwoLayerTopology) -> dict[str, Any]:
    """A JSON-safe representation of a contracted two-layer topology."""
    return {
        "format_version": _FORMAT_VERSION,
        "network": network_to_dict(topology.network),
        "tunnels": [
            {
                "src": src,
                "dst": dst,
                "paths": [
                    list(t.path) for t in topology.catalog.tunnels(k)
                ],
            }
            for k, (src, dst) in enumerate(topology.catalog.pairs)
        ],
        "endpoints": topology.layout.counts_by_site(),
    }


def topology_from_dict(data: dict[str, Any]) -> TwoLayerTopology:
    """Inverse of :func:`topology_to_dict`.

    Tunnel weights/costs/availabilities are recomputed from the restored
    network's link attributes, so the document stays minimal.

    Raises:
        ValueError: on an unknown format version.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported topology format {version!r}")
    network = network_from_dict(data["network"])
    catalog = TunnelCatalog(network)
    for entry in data.get("tunnels", []):
        src, dst = entry["src"], entry["dst"]
        tunnels = [
            Tunnel(
                src=src,
                dst=dst,
                path=tuple(path),
                weight=network.path_latency_ms(path),
                cost_per_gbps=network.path_cost_per_gbps(path),
                availability=network.path_availability(path),
            )
            for path in entry["paths"]
        ]
        catalog.add_pair(src, dst, tunnels, allow_empty=True)
    layout = EndpointLayout(
        {site: int(count) for site, count in data["endpoints"].items()}
    )
    return TwoLayerTopology(network=network, catalog=catalog, layout=layout)


def dump_topology(topology: TwoLayerTopology, path: str) -> None:
    """Write a topology to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(topology_to_dict(topology), handle, indent=1)


def load_topology(path: str) -> TwoLayerTopology:
    """Read a topology from a JSON file.

    Raises:
        OSError: when the file cannot be read.
        ValueError: when it is not JSON, or not a topology document.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return topology_from_dict(data)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed topology document: {exc!r}") from exc
