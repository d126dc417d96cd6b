"""Memory guards: what the control plane holds per published endpoint,
and the transient peaks of its two per-flow array layers.

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

from functools import lru_cache

import numpy as np

from repro.controlplane import (
    DemandCollector,
    EndpointAgent,
    FlowRecord,
    TEController,
    TEDatabase,
)
from repro.core import FlowAssignment, TEResult
from repro.core.qos import QoSClass
from repro.experiments.common import build_scenario

#: Traced bytes allowed per published endpoint (agent + stored config +
#: install): ~1.5x headroom over the packed layout, below the dict one.
BYTES_PER_ENDPOINT_BOUND = 1_000

#: Traced peak bytes per flow row of ``DemandCollector.build_matrix``
#: and of one warm ``TEController.publish``: the peaks of the sorted-key
#: drain and the row-level diff the per-endpoint tables replaced (91 and
#: 102 B a row on CPython 3.11, numpy 2.4), plus 10 %.  The tables sit
#: near 71 and 57 B, so a layer that copies its rows a few times more
#: fails here.
BUILD_BYTES_PER_ROW_BOUND = 100
PUBLISH_BYTES_PER_ROW_BOUND = 112


@lru_cache(maxsize=None)
def _scenario():
    return build_scenario(
        "twan", total_endpoints=20_000, num_site_pairs=60, seed=7, flat=True
    )


def _traced_peak(fn, *args):
    """``fn(*args)`` and the traced bytes it peaked at above its start."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _result(demands, assigned) -> TEResult:
    return TEResult(
        scheme="drawn",
        assignment=FlowAssignment.from_flat(assigned, demands.table.offsets),
        demands=demands,
        satisfied_volume=0.0,
        runtime_s=0.0,
    )


def test_transient_bytes_per_flow_row():
    scenario = _scenario()
    topology, table = scenario.topology, scenario.demands.table
    collector = DemandCollector(topology, interval_seconds=300.0)
    sent = np.rint(table.volumes * 1e9 * 300.0 / 8.0).astype(np.int64)
    for record in zip(
        table.src_endpoints.tolist(),
        table.dst_endpoints.tolist(),
        sent.tolist(),
        map(QoSClass, table.qos.tolist()),
    ):
        collector.ingest(FlowRecord(*record))
    demands, build_peak = _traced_peak(collector.build_matrix)
    assert build_peak / table.num_flows < BUILD_BYTES_PER_ROW_BOUND, (
        build_peak / table.num_flows
    )

    rows = demands.table.num_flows
    controller = TEController(TEDatabase(enforce_capacity=False))
    controller.publish(topology, _result(demands, np.zeros(rows, np.int32)))
    # Warm: some flows move to their pair's last tunnel, some go
    # unassigned.
    last = topology.catalog.columnar().tunnels_per_pair() - 1
    moved = np.zeros(rows, dtype=np.int32)
    moved[::50] = np.repeat(last, demands.table.counts)[::50]
    moved[::97] = -1
    _, publish_peak = _traced_peak(
        controller.publish, topology, _result(demands, moved)
    )
    assert controller.last_publish_writes > 100
    assert publish_peak / rows < PUBLISH_BYTES_PER_ROW_BOUND, (
        publish_peak / rows
    )


def test_bytes_per_published_endpoint():
    scenario = _scenario()
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
