"""Memory guard: what the control plane holds per published endpoint.

MegaTE's case against persistent controller connections (§3.2) is that
the control plane's per-endpoint cost is what scales to millions.  This
pins ours on a 20 000-endpoint TWAN scenario: the bytes Python allocates
for one endpoint's agent, its stored config and its install, per
endpoint that publishes.  Packed config rows behind a read-only
``paths`` view, agents keeping the pulled view instead of copying it and
slotted records put it near 680 B on CPython 3.11; a ``dict`` per stored
config and per install with ``__dict__``-backed records takes about
1 320 B.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.controlplane import EndpointAgent, TEController, TEDatabase
from repro.core import FlowAssignment, TEResult
from repro.experiments.common import build_scenario

#: Traced bytes allowed per published endpoint (agent + stored config +
#: install): ~1.5x headroom over the packed layout, below the dict one.
BYTES_PER_ENDPOINT_BOUND = 1_000


def test_bytes_per_published_endpoint():
    scenario = build_scenario(
        "twan", total_endpoints=20_000, num_site_pairs=60, seed=7, flat=True
    )
    table = scenario.demands.table
    # Every flow on its pair's first tunnel: every source publishes.
    result = TEResult(
        scheme="first-tunnel",
        assignment=FlowAssignment.from_flat(
            np.zeros(table.num_flows, dtype=np.int32), table.offsets
        ),
        demands=scenario.demands,
        satisfied_volume=0.0,
        runtime_s=0.0,
    )
    sources = np.unique(table.src_endpoints).tolist()
    database = TEDatabase(enforce_capacity=False)
    controller = TEController(database)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        agents = [EndpointAgent(endpoint_id=e) for e in sources]
        controller.publish(scenario.topology, result)
        installed = sum(agent.poll(database, 1.0) for agent in agents)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    published = controller.last_publish_writes
    assert installed == published == len(agents) > 4_000
    per_endpoint = traced / published
    assert per_endpoint < BYTES_PER_ENDPOINT_BOUND, per_endpoint
