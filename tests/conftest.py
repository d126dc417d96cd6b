"""Shared fixtures: small, fast topologies and demand matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import get_tracer
from repro.topology import (
    SiteNetwork,
    TwoLayerTopology,
    b4,
    build_tunnels,
    contract,
)
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix, PairDemands, generate_demands


@pytest.fixture()
def tracer():
    """The process-wide tracer, collecting for the length of one test."""
    tracer = get_tracer()
    was = tracer.enabled
    tracer.reset()
    tracer.enabled = True
    yield tracer
    tracer.enabled = was
    tracer.reset()


@pytest.fixture(scope="session")
def b4_network() -> SiteNetwork:
    return b4()


@pytest.fixture(scope="session")
def b4_topology(b4_network) -> TwoLayerTopology:
    """B4 with 12 sampled site pairs, 3 tunnels each, ~600 endpoints."""
    sites = b4_network.sites
    pairs = [
        (sites[i], sites[j])
        for i, j in [
            (0, 5), (0, 9), (1, 7), (2, 10), (3, 11), (4, 8),
            (5, 0), (6, 1), (7, 3), (8, 2), (9, 6), (11, 4),
        ]
    ]
    return contract(
        b4_network,
        site_pairs=pairs,
        tunnels_per_pair=3,
        total_endpoints=600,
        seed=7,
    )


@pytest.fixture(scope="session")
def b4_demands(b4_topology) -> DemandMatrix:
    """A binding demand matrix on the B4 fixture (load slightly over 1)."""
    return generate_demands(
        b4_topology,
        seed=11,
        target_load=1.15,
        pairs_per_endpoint=1.0,
    )


@pytest.fixture()
def tiny_topology() -> TwoLayerTopology:
    """Two sites, two disjoint paths (one short, one long), 8 endpoints."""
    net = SiteNetwork(name="tiny")
    net.add_duplex_link("a", "b", capacity=10.0, latency_ms=5.0)
    net.add_duplex_link("a", "r", capacity=10.0, latency_ms=10.0)
    net.add_duplex_link("r", "b", capacity=10.0, latency_ms=10.0)
    catalog = build_tunnels(
        net, site_pairs=[("a", "b")], tunnels_per_pair=2
    )
    layout = EndpointLayout({"a": 4, "b": 4, "r": 0})
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


def make_pair_demands(
    volumes, qos=None, with_endpoints=False, seed=0
) -> PairDemands:
    """Helper: build PairDemands from plain lists."""
    volumes = np.asarray(volumes, dtype=np.float64)
    if qos is None:
        qos = np.full(volumes.size, 2, dtype=np.int8)
    kwargs = {}
    if with_endpoints:
        # Unique (src, dst) endpoint pairs: a demand d_k^i is *the* demand
        # of one endpoint pair, so pairs must not repeat.
        n = volumes.size
        side = int(np.ceil(np.sqrt(max(n, 1))))
        idx = np.arange(n)
        kwargs["src_endpoints"] = idx % side
        kwargs["dst_endpoints"] = 1000 + idx // side
    return PairDemands(volumes=volumes, qos=np.asarray(qos, dtype=np.int8), **kwargs)


@pytest.fixture()
def tiny_demands() -> DemandMatrix:
    """Demands on the tiny topology: 6 flows totalling 18 Gbps vs 20 Gbps."""
    return DemandMatrix(
        [
            make_pair_demands(
                [5.0, 4.0, 3.0, 3.0, 2.0, 1.0],
                qos=[1, 1, 2, 2, 3, 3],
                with_endpoints=True,
            )
        ]
    )


@pytest.fixture(scope="session")
def twan_6000_scenario() -> tuple[TwoLayerTopology, DemandMatrix]:
    """TWAN with 6 000 site pairs, where every QoS class carries
    4 600–5 900 active pairs and the price-guided stage 1 engages on
    each (≈ 4 s to build, once)."""
    from repro.experiments.common import build_scenario

    scenario = build_scenario(
        "twan",
        total_endpoints=1_000,
        num_site_pairs=6_000,
        target_load=1.6,
        seed=42,
        flat=True,
    )
    return scenario.topology, scenario.demands
