"""Realization audit: a solved epoch, sent through the data plane.

The data-plane half of "is this epoch valid": publish a TWAN solve, let
the sources' agents program their hosts' ``path_map`` through
``on_install``, send every sampled flow as real packets (64 B and
4 000 B, one and three wire packets), and require each delivered packet's
``site_path`` to be the flow's assigned catalog tunnel.  The same packets
then cross a fabric with fibers cut while the agents still hold the old
paths (§6.3's recomputation window): exactly the flows whose tunnel
crosses a cut link drop, each at the first dead hop.

Tier-1 audits 10 000 flows of a 20 000-endpoint solve; ``pytest -m perf``
audits 100 000 flows of a 200 000-endpoint one.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.controlplane import EndpointAgent, TEController, TEDatabase
from repro.core import MegaTEOptimizer
from repro.dataplane import (
    FiveTuple,
    HostStack,
    PROTO_UDP,
    SiteIdCodec,
    WANFabric,
)
from repro.experiments.common import build_scenario


def _ip(endpoint: int) -> str:
    return f"172.{16 + (endpoint >> 16)}.{(endpoint >> 8) & 255}.{endpoint & 255}"


def _audit(total_endpoints: int, num_flows: int) -> None:
    scenario = build_scenario(
        "twan",
        total_endpoints=total_endpoints,
        num_site_pairs=60,
        seed=7,
        flat=True,
    )
    topology = scenario.topology
    result = MegaTEOptimizer().solve(topology, scenario.demands)
    database = TEDatabase(enforce_capacity=False)
    TEController(database).publish(topology, result, now=0.0)

    # Sample assigned flows whose (src, dst) appears once in the table,
    # so each one's published path is its own tunnel.
    table = scenario.demands.table
    pair = table.pair_ids()
    tunnel = result.assignment.assigned_tunnel
    key = table.src_endpoints.astype(np.int64) << 32 | table.dst_endpoints
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    unique = first[counts == 1]
    candidates = unique[tunnel[unique] >= 0]
    assert candidates.size >= num_flows
    rng = np.random.default_rng(0)
    sampled = np.sort(rng.choice(candidates, size=num_flows, replace=False))

    codec = SiteIdCodec(topology.network.sites)
    hosts: dict[str, HostStack] = {}
    agents: dict[int, EndpointAgent] = {}
    flows = []
    for index in sampled.tolist():
        src = int(table.src_endpoints[index])
        dst = int(table.dst_endpoints[index])
        site = topology.layout.site_of(src)
        host = hosts.get(site)
        if host is None:
            host = hosts[site] = HostStack(
                site=site, codec=codec, underlay_ip=f"10.0.{len(hosts)}.1"
            )
        if src not in agents:
            host.register_instance(src, _ip(src))
            agents[src] = EndpointAgent(
                endpoint_id=src,
                on_install=lambda config, host=host: [
                    host.install_path(config.endpoint_id, _ip(d), path)
                    for d, path in config.paths.items()
                ],
            )
        five_tuple = FiveTuple(_ip(src), _ip(dst), PROTO_UDP, 40_000, 443)
        host.open_connection(host.spawn_process(src), five_tuple)
        path = topology.catalog.tunnels(int(pair[index]))[int(tunnel[index])].path
        flows.append((host, five_tuple, path))
    assert all(agent.poll(database, now=1.0) for agent in agents.values())

    # Cut both directions of the fiber the most sampled tunnels cross.
    crossings = Counter(
        frozenset(hop) for _, _, path in flows for hop in zip(path, path[1:])
    )
    a, b = sorted(crossings.most_common(1)[0][0])
    cut = {(a, b), (b, a)}
    healthy = WANFabric(topology.network, codec=codec)
    degraded = WANFabric(topology.network.without_links(cut), codec=codec)

    dropped = 0
    for host, five_tuple, path in flows:
        hops = list(zip(path, path[1:]))
        dead = next((hop for hop in hops if hop in cut), None)
        packets = [
            packet
            for payload in (64, 4000)
            for packet in host.send(five_tuple, payload)
        ]
        assert len(packets) == 4
        for packet in packets:
            record = healthy.deliver(packet)
            assert record.delivered, record.drop_reason
            assert record.site_path == path
            record = degraded.deliver(packet)
            if dead is None:
                assert record.delivered and record.site_path == path
            else:
                assert not record.delivered
                assert record.drop_reason == f"no link {dead[0]} -> {dead[1]}"
                assert record.site_path == path[: hops.index(dead) + 1]
        dropped += dead is not None
    assert 0 < dropped < len(flows)


def test_realization_audit_10k_flows():
    _audit(total_endpoints=20_000, num_flows=10_000)


@pytest.mark.perf
def test_realization_audit_100k_flows(request):
    """The same audit at 10^5 flows (``pytest -m perf``)."""
    if "perf" not in request.config.getoption("markexpr"):
        pytest.skip("the 10^5-flow audit runs under `pytest -m perf`")
    _audit(total_endpoints=200_000, num_flows=100_000)
