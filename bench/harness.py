"""Set-up, one TE epoch, the packet probe and the correctness checks.

Everything here calls the program through its public entry points only
and times those calls from outside; see ``README.md`` for the layer list.
The caller (``run.py``) puts ``src/`` on ``sys.path`` before importing
this module.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from repro.controlplane import (
    DemandCollector,
    EndpointAgent,
    FlowRecord,
    TEController,
    TEDatabase,
    VERSION_KEY,
    spread_offsets,
)
from repro.core import MegaTEOptimizer, check_feasibility
from repro.core.qos import QoSClass
from repro.core.types import StatKey
from repro.dataplane import (
    PROTO_UDP,
    FiveTuple,
    HostStack,
    SiteIdCodec,
    WANFabric,
)
from repro.experiments.common import build_scenario
from repro.obs import get_tracer
from repro.simulation import compute_flow_latencies, simulate
from repro.topology import sample_failure_scenarios
from repro.traffic import DiurnalSequence

from spans import Recorder
from workloads import (
    POLL_WINDOW_S,
    PROBE_FLOWS,
    PROBE_PAYLOADS,
    SCENARIO_SEED,
    TARGET_LOAD,
    TE_INTERVAL_S,
    Scale,
    Workload,
)

__all__ = ["World", "EpochInputs", "EpochRecord", "build_world", "make_inputs", "run_epoch"]

_QOS = {q.value: q for q in QoSClass}
#: Topology variant of epoch ``n`` on a churn workload: index into
#: ``World.topologies`` (healthy, cut A, cut B), switching every 3 epochs.
_CHURN_CYCLE = (0, 1, 0, 2)
_CHURN_PERIOD = 3


@dataclass
class ProbeFlow:
    """One sampled flow the packet probe sends on."""

    table_index: int  # position in the collector-ordered flow table
    site_pair: int
    src: int
    dst: int
    five_tuple: FiveTuple
    host: HostStack
    agent: EndpointAgent


@dataclass
class World:
    """What set-up builds and every epoch reuses."""

    workload: Workload
    scale: Scale
    topologies: list  # TwoLayerTopology per variant
    collectors: list[DemandCollector]  # one per variant
    fabrics: list[WANFabric]  # one per variant
    sequence: DiurnalSequence
    optimizer: MegaTEOptimizer
    database: TEDatabase
    controller: TEController
    agents: list[EndpointAgent]
    poll_offsets: np.ndarray
    probe_flows: list[ProbeFlow]
    flows_per_pair: np.ndarray  # distinct (src, dst) per site pair
    digest: object = field(default_factory=hashlib.sha256)  # chained

    def variant_of(self, epoch: int) -> int:
        if not self.workload.churn:
            return 0
        return _CHURN_CYCLE[(epoch // _CHURN_PERIOD) % len(_CHURN_CYCLE)]


@dataclass
class EpochInputs:
    """Harness-generated inputs of one epoch, built before it is timed."""

    epoch: int
    variant: int
    records: list[FlowRecord]
    poll_times: list[float]
    total_gbps: float  # byte-rounded reference volume


@dataclass
class EpochRecord:
    """What one epoch measured, counted and checked."""

    epoch: int
    variant: int
    traced: bool
    epoch_s: float
    solve_s: float
    satisfied_fraction: float
    delivered_fraction: float
    qos1_latency_ms: float
    packet_us: list[float]  # one per probe round
    counts: dict[str, float]
    solver_phase_s: dict[str, float]
    ssp_batch_phase_s: dict[str, float]
    incremental_solve: bool
    digest: str
    failed_packets: int
    failed_checks: list[str]


def _flow_keys(pair_ids, src, dst, num_endpoints: int) -> np.ndarray:
    """One sortable integer per flow, ordered (site pair, src, dst) — the
    order ``DemandCollector.build_matrix`` emits flows in."""
    m = np.int64(num_endpoints + 1)
    return (pair_ids.astype(np.int64) * m + src) * m + dst


def build_world(
    workload: Workload, scale: Scale, seed: int, rec: Recorder
) -> World:
    """Scenario, topology variants, controller, agent fleet and hosts."""
    with rec.span("topology.build_scenario", always=True):
        scenario = build_scenario(
            "twan",
            total_endpoints=scale.endpoints,
            num_site_pairs=scale.site_pairs,
            target_load=TARGET_LOAD,
            seed=SCENARIO_SEED,
            flat=True,
        )
    healthy = scenario.topology
    topologies = [healthy]
    with rec.span("topology.with_failures", always=True):
        if workload.churn:
            for cut in sample_failure_scenarios(
                healthy.network, 2, num_scenarios=2, seed=SCENARIO_SEED
            ):
                topologies.append(healthy.with_failures(cut.failed_links))

    base = scenario.demands.table
    keys = np.unique(
        _flow_keys(
            base.pair_ids(),
            base.src_endpoints,
            base.dst_endpoints,
            healthy.num_endpoints,
        )
    )
    m = healthy.num_endpoints + 1
    flows_per_pair = np.bincount(
        keys // (m * m), minlength=healthy.catalog.num_pairs
    )

    database = TEDatabase(enforce_capacity=False)
    optimizer = MegaTEOptimizer(
        incremental=workload.incremental,
        delta_threshold=1.5 if workload.incremental else 0.0,
        lp_backend="scipy",
        ssp_backend="numpy",
        shard_workers=0,
    )
    controller = TEController(database, optimizer=optimizer)

    rng = np.random.default_rng(seed)
    sampled = np.sort(
        rng.choice(keys.size, size=min(PROBE_FLOWS, keys.size), replace=False)
    )
    # (table index, site pair, src endpoint, dst endpoint) per sampled flow.
    sampled_flows = list(
        zip(
            sampled.tolist(),
            (keys[sampled] // (m * m)).tolist(),
            (keys[sampled] // m % m).tolist(),
            (keys[sampled] % m).tolist(),
        )
    )
    with rec.span("agent.fleet_build", always=True):
        sources = np.unique(base.src_endpoints).tolist()
        agents = [EndpointAgent(endpoint_id=e) for e in sources]
    with rec.span("dataplane.hosts_build", always=True):
        codec = SiteIdCodec(healthy.network.sites)
        fabrics = [WANFabric(t.network, codec=codec) for t in topologies]
        probe_flows = _build_probe(
            healthy.layout, codec, sampled_flows, dict(zip(sources, agents))
        )

    return World(
        workload=workload,
        scale=scale,
        topologies=topologies,
        collectors=[DemandCollector(t, TE_INTERVAL_S) for t in topologies],
        fabrics=fabrics,
        sequence=DiurnalSequence(base=scenario.demands, seed=seed),
        optimizer=optimizer,
        database=database,
        controller=controller,
        agents=agents,
        poll_offsets=spread_offsets(len(agents), POLL_WINDOW_S, seed=seed),
        probe_flows=probe_flows,
        flows_per_pair=flows_per_pair,
    )


def _build_probe(layout, codec, sampled_flows, agent_of) -> list[ProbeFlow]:
    """Hosts and connections of the sampled flows; the sampled agents'
    ``on_install`` programs their host's ``path_map``."""
    endpoints = sorted({e for _, _, src, dst in sampled_flows for e in (src, dst)})
    ip_of = {
        e: f"172.16.{i // 256}.{i % 256}" for i, e in enumerate(endpoints)
    }
    hosts: dict[str, HostStack] = {}
    flows = []
    for i, (index, site_pair, src, dst) in enumerate(sampled_flows):
        site = layout.site_of(src)
        host = hosts.get(site)
        if host is None:
            host = hosts[site] = HostStack(
                site=site,
                codec=codec,
                underlay_ip=f"10.0.{len(hosts) // 256}.{len(hosts) % 256}",
            )
        agent = agent_of[src]
        if agent.on_install is None:  # first sampled flow of this source
            host.register_instance(src, ip_of[src])
            agent.on_install = _installer(host, ip_of)
        five_tuple = FiveTuple(
            ip_of[src], ip_of[dst], PROTO_UDP, 40_000 + i, 443
        )
        host.open_connection(host.spawn_process(src), five_tuple)
        flows.append(
            ProbeFlow(
                table_index=index,
                site_pair=site_pair,
                src=src,
                dst=dst,
                five_tuple=five_tuple,
                host=host,
                agent=agent,
            )
        )
    return flows


def _installer(host: HostStack, ip_of: dict[int, str]):
    def install(config) -> None:
        for dst, path in config.paths.items():
            ip = ip_of.get(dst)
            if ip is not None:
                host.install_path(config.endpoint_id, ip, path)

    return install


def make_inputs(world: World, epoch: int) -> EpochInputs:
    """Epoch ``epoch``'s flow records and poll schedule, from the seed."""
    table = world.sequence.matrix(epoch).table
    byte_counts = np.rint(table.volumes * 1e9 * TE_INTERVAL_S / 8.0).astype(
        np.int64
    )
    records = [
        FlowRecord(src, dst, sent, _QOS[qos])
        for src, dst, sent, qos in zip(
            table.src_endpoints.tolist(),
            table.dst_endpoints.tolist(),
            byte_counts.tolist(),
            table.qos.tolist(),
        )
    ]
    base_time = TE_INTERVAL_S * epoch + 1.0
    return EpochInputs(
        epoch=epoch,
        variant=world.variant_of(epoch),
        records=records,
        poll_times=(base_time + world.poll_offsets).tolist(),
        total_gbps=float(byte_counts.sum()) * 8.0 / TE_INTERVAL_S / 1e9,
    )


def run_epoch(
    world: World, inputs: EpochInputs, rec: Recorder, traced: bool
) -> EpochRecord:
    """One closed-loop epoch: timed region, then probe, then checks."""
    topology = world.topologies[inputs.variant]
    collector = world.collectors[inputs.variant]
    database = world.database
    controller = world.controller
    agents = world.agents
    queries_before = database.total_queries()

    rec.epoch = inputs.epoch
    # A traced epoch also collects the program's own spans.  Its metrics
    # registry stays off: per-query counters cost the poll loop ~5x.
    rec.tracing = get_tracer().enabled = traced
    gc.collect()
    with rec.span("epoch", always=True) as epoch_span:
        with rec.span("collector.ingest", count=len(inputs.records)):
            ingest = collector.ingest
            for record in inputs.records:
                ingest(record)
        with rec.span("collector.build_matrix"):
            demands = collector.build_matrix()
        with rec.span("twostage.solve", always=True) as solve_span:
            result = world.optimizer.solve(topology, demands)
        with rec.span("controller.publish"):
            version = controller.publish(
                topology, result, now=TE_INTERVAL_S * inputs.epoch
            )
        with rec.span("agent.poll", count=len(agents)):
            installs = 0
            for agent, when in zip(agents, inputs.poll_times):
                installs += agent.poll(database, when)
        with rec.span("flowsim.simulate"):
            outcome = simulate(topology, result)
        with rec.span("latency.compute"):
            latencies = compute_flow_latencies(topology, result)
    rec.tracing = get_tracer().enabled = False

    # -- everything below is outside the timed region ----------------------
    assigned = result.assignment.assigned_tunnel
    world.digest.update(np.ascontiguousarray(assigned).tobytes())
    stats = result.stats
    writes = controller.last_publish_writes
    # A poll failed if the agent counted it failed or is not on the
    # version just published.
    failed_polls = sum(
        a.failed_polls + (a.local_version != version) for a in agents
    )
    counts = {
        "collector.ingest.records": len(inputs.records),
        "collector.unroutable_bytes": collector.unroutable_bytes,
        "controller.publish.flows": int((assigned >= 0).sum()),
        "controller.publish.writes": writes,
        "agent.polls": len(agents),
        "agent.installs": installs,
        # Every agent that installs pulled a config; the ones rewritten
        # this epoch carry the published version, all others an older one.
        "agent.redundant_installs": installs - writes,
        "agent.failed_polls": failed_polls,
        "database.queries": database.total_queries() - queries_before,
        "database.rejected": sum(
            database.stats(s).rejected for s in range(database.num_shards)
        ),
        "database.peak_qps": database.peak_qps(),
        "siteflow.lp_solves": stats[StatKey.LP_SOLVES],
        "siteflow.lp_solves_skipped": stats[StatKey.LP_SOLVES_SKIPPED],
        "batch.uncontended_pairs": stats[StatKey.NUM_UNCONTENDED_PAIRS],
        "fastssp_batch.contended_pairs": stats[StatKey.NUM_CONTENDED_PAIRS],
        "incremental.pairs_delta_patched": stats[StatKey.PAIRS_DELTA_PATCHED],
        "incremental.ssp_state_reused": stats[StatKey.SSP_STATE_REUSED],
    }

    failed_checks = []
    if not check_feasibility(topology, result).feasible:
        failed_checks.append("feasibility")
    table = demands.table
    if not (
        np.array_equal(np.diff(table.offsets), world.flows_per_pair)
        and np.isclose(
            table.volumes.sum(), inputs.total_gbps, rtol=1e-9, atol=0.0
        )
    ):
        failed_checks.append("build_matrix")
    published = inputs.epoch + 1
    if not (
        version == published
        and database.get_version(
            VERSION_KEY, now=TE_INTERVAL_S * inputs.epoch + 1.0 + POLL_WINDOW_S
        )
        == published
    ):
        failed_checks.append("database_version")
    # Expected site path of each sampled flow: its assigned catalog tunnel.
    expected: list[tuple[str, ...] | None] = []
    for flow in world.probe_flows:
        t = int(assigned[flow.table_index])
        located = (
            table.src_endpoints[flow.table_index] == flow.src
            and table.dst_endpoints[flow.table_index] == flow.dst
        )
        if not located:
            failed_checks.append("probe_flow_index")
            expected.append(None)
            continue
        path = topology.catalog.tunnels(flow.site_pair)[t].path if t >= 0 else None
        expected.append(path)
        if path is not None and flow.agent.path_to(flow.dst) != path:
            failed_checks.append("agent_installed_path")

    probe = _run_probe(world, inputs.variant, expected, rec if traced else None)
    counts.update(probe.counts)
    if probe.failed_packets:
        failed_checks.append("probe_delivery")

    return EpochRecord(
        epoch=inputs.epoch,
        variant=inputs.variant,
        traced=traced,
        epoch_s=epoch_span.duration_s,
        solve_s=solve_span.duration_s,
        satisfied_fraction=result.satisfied_fraction,
        delivered_fraction=outcome.delivered_volume / outcome.offered_volume,
        qos1_latency_ms=latencies.volume_weighted_mean(QoSClass.CLASS1),
        packet_us=probe.packet_us,
        counts=counts,
        solver_phase_s=dict(stats[StatKey.PHASE_S]),
        ssp_batch_phase_s=dict(stats[StatKey.SSP_BATCH_PHASE_S]),
        incremental_solve=(
            stats[StatKey.PAIRS_DELTA_PATCHED] > 0
            or stats[StatKey.SSP_STATE_REUSED] > 0
        ),
        digest=world.digest.copy().hexdigest(),
        failed_packets=probe.failed_packets,
        failed_checks=sorted(set(failed_checks)),
    )


@dataclass
class _ProbeOutcome:
    packet_us: list[float]
    counts: dict[str, float]
    failed_packets: int


def _run_probe(
    world: World, variant: int, expected, rec: Recorder | None
) -> _ProbeOutcome:
    """Send the sampled flows' datagrams host TC egress -> egress site.

    Sends and deliveries are batched per round, so the clock is read
    three times a round whether or not the run is traced (``rec`` set).
    """
    fabric = world.fabrics[variant]
    packet_us = []
    packets = drops = mismatches = failed = 0
    send_ns = deliver_ns = 0
    for _ in range(world.scale.probe_rounds):
        t0 = perf_counter_ns()
        sent = [
            [
                wire
                for payload in PROBE_PAYLOADS
                for wire in flow.host.send(flow.five_tuple, payload)
            ]
            for flow in world.probe_flows
        ]
        t1 = perf_counter_ns()
        delivered = [[fabric.deliver(wire) for wire in wires] for wires in sent]
        t2 = perf_counter_ns()
        count = sum(len(wires) for wires in sent)
        packet_us.append((t2 - t0) / 1e3 / count)
        packets += count
        send_ns += t1 - t0
        deliver_ns += t2 - t1
        if rec is not None:
            rec.add("dataplane.host_send", t0, t1, count=count)
            rec.add("dataplane.fabric_deliver", t1, t2, count=count)
        for path, records in zip(expected, delivered):
            for record in records:
                drops += not record.delivered
                if path is None:
                    continue
                wrong = record.delivered and record.site_path != path
                mismatches += wrong
                failed += wrong or not record.delivered
    return _ProbeOutcome(
        packet_us=packet_us,
        counts={
            "dataplane.packets": packets,
            "dataplane.drops": drops,
            "dataplane.path_mismatches": mismatches,
            "dataplane.host_send.busy_s": send_ns / 1e9,
            "dataplane.fabric_deliver.busy_s": deliver_ns / 1e9,
        },
        failed_packets=failed,
    )
