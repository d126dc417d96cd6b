"""Perf smoke test: the interval hot path stays instrumented and fast.

Run just these with ``pytest -m perf``.  The wall-clock bound is
deliberately generous (an order of magnitude above typical) — it exists
to catch catastrophic hot-path regressions in tier-1, not to measure;
real measurement lives in ``benchmarks/test_perf_interval_solve.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import MegaTEOptimizer
from repro.core.twostage import PHASE_KEYS
from repro.experiments import run_interval_replay
from repro.obs import monotonic

pytestmark = pytest.mark.perf

#: Small scenario: 100-site TWAN, modest trace, three intervals.
SMOKE_CONFIG = dict(
    topology_name="twan",
    total_endpoints=2_000,
    num_site_pairs=20,
    target_load=1.0,
    seed=7,
    sequence_seed=11,
    num_intervals=3,
)

#: Generous bound — the replay typically takes well under a second.
WALL_CLOCK_BOUND_S = 30.0


def test_interval_replay_smoke():
    report = run_interval_replay(
        optimizer=MegaTEOptimizer(second_stage="batched"),
        **SMOKE_CONFIG,
    )
    assert report.num_intervals == SMOKE_CONFIG["num_intervals"]
    assert report.total_runtime_s < WALL_CLOCK_BOUND_S
    assert report.satisfied_volume > 0
    assert len(report.assignment_digest) == 64


def test_timing_breakdown_keys_present():
    report = run_interval_replay(optimizer=MegaTEOptimizer(), **SMOKE_CONFIG)
    assert set(report.phase_s) == set(PHASE_KEYS)
    assert all(seconds >= 0.0 for seconds in report.phase_s.values())
    # The phase breakdown accounts for the bulk of stage 1 + stage 2.
    assert report.stage1_lp_s > 0
    assert report.stage2_ssp_s >= 0


def test_result_stats_contract():
    """The stats keys downstream benchmarks read are all present."""
    from repro.experiments.common import build_scenario

    scenario = build_scenario(
        "twan", total_endpoints=1_000, num_site_pairs=10, seed=3
    )
    result = MegaTEOptimizer().solve(scenario.topology, scenario.demands)
    for key in (
        "stage1_lp_s",
        "stage2_ssp_s",
        "fastssp_epsilon",
        "satisfied_by_class",
        "phase_s",
        "second_stage",
        "num_uncontended_pairs",
        "num_contended_pairs",
        "backend",
        "lp_warm_start",
        "lp_solves",
        "lp_solves_skipped",
        "pairs_delta_patched",
        "ssp_state_reused",
        "incremental",
    ):
        assert key in result.stats, key
    assert set(result.stats["phase_s"]) == set(PHASE_KEYS)
    assert {"site_merge", "scatter"} <= set(PHASE_KEYS)
    # Cold solve: everything ran through the full LP, nothing came from
    # carried state.
    assert result.stats["backend"] == "scipy"
    assert result.stats["lp_solves"] > 0
    assert result.stats["lp_solves_skipped"] == 0
    assert result.stats["pairs_delta_patched"] == 0
    assert result.stats["ssp_state_reused"] == 0
    assert result.stats["incremental"] is False


def test_phases_close():
    """Every step of the solve owns a phase: the attributed seconds
    account for (nearly) the whole runtime, glue included."""
    import statistics

    from repro.experiments.common import build_scenario

    scenario = build_scenario(
        "twan", total_endpoints=20_000, num_site_pairs=400, seed=1
    )
    optimizer = MegaTEOptimizer()
    closures = []
    for _ in range(5):
        result = optimizer.solve(scenario.topology, scenario.demands)
        closures.append(
            sum(result.stats["phase_s"].values()) / result.runtime_s
        )
    assert statistics.median(closures) >= 0.95, closures


def test_telemetry_does_not_change_results():
    """Enabling spans + metrics must be pure observation: the replay
    digest with telemetry on is bit-identical to the telemetry-off run.
    """
    baseline = run_interval_replay(
        optimizer=MegaTEOptimizer(second_stage="batched"), **SMOKE_CONFIG
    )
    was = obs.telemetry_enabled()
    try:
        obs.set_enabled(True)
        obs.reset()
        traced = run_interval_replay(
            optimizer=MegaTEOptimizer(second_stage="batched"),
            **SMOKE_CONFIG,
        )
        # The run actually produced telemetry...
        spans = obs.get_tracer().finished_spans()
        names = {span.name for span in spans}
        assert "te.solve" in names
        assert any(n.startswith("te.phase.") for n in names)
        snapshot = obs.get_registry().snapshot()
        assert "megate_solves_total" in snapshot
    finally:
        obs.set_enabled(was)
        obs.reset()
    # ...and observation changed nothing.
    assert traced.assignment_digest == baseline.assignment_digest
    assert traced.satisfied_volume == baseline.satisfied_volume


def test_disabled_telemetry_overhead_within_budget():
    """Disabled-path cost stays <= 2% of the smoke replay.

    Wall-clock A/B runs of the replay are too noisy to resolve a 2%
    delta, so this measures deterministically: time the disabled span
    and metric primitives in a tight loop, multiply by a generous bound
    on how many instrumentation events one replay emits, and compare
    against the replay's measured runtime.
    """
    assert not obs.telemetry_enabled()
    tracer = obs.get_tracer()
    registry = obs.get_registry()

    iterations = 50_000
    t0 = monotonic()
    for _ in range(iterations):
        with tracer.span("overhead.probe"):
            pass
    span_cost_s = (monotonic() - t0) / iterations

    t0 = monotonic()
    for _ in range(iterations):
        if registry.enabled:  # the gate every instrumentation site uses
            registry.counter("overhead_probe_total").inc()
    gate_cost_s = (monotonic() - t0) / iterations

    report = run_interval_replay(
        optimizer=MegaTEOptimizer(second_stage="batched"), **SMOKE_CONFIG
    )
    # Spans per interval: te.interval + te.solve + ~6 phase spans + the
    # realization spans; metric gates are checked once per solve/poll.
    # 100 events per interval is an order of magnitude above actual.
    events_per_interval = 100
    overhead_s = (
        report.num_intervals
        * events_per_interval
        * (span_cost_s + gate_cost_s)
    )
    assert overhead_s <= 0.02 * report.total_runtime_s, (
        f"disabled telemetry overhead {overhead_s * 1e3:.3f} ms exceeds "
        f"2% of replay runtime {report.total_runtime_s * 1e3:.1f} ms "
        f"(span {span_cost_s * 1e9:.0f} ns, gate {gate_cost_s * 1e9:.0f} ns "
        f"per event)"
    )


def test_stage1_guided_path_by_counts(twan_6000_scenario, monkeypatch):
    """The price-guided stage 1 engages where it pays and only there —
    asserted on counts, not time.  On a warm interval at 6 000 TWAN
    pairs the uncongested QoS1 is certified by its carried prices with
    no LP at all, and QoS2 and QoS3 hand the LP at most half of their
    active pairs; a 60-pair scenario is always solved whole."""
    from repro.core import siteflow
    from repro.experiments.common import build_scenario
    from repro.traffic import DiurnalSequence

    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=11)
    optimizer = MegaTEOptimizer()
    optimizer.solve(topology, sequence.matrix(0))

    lp_calls: list[int] = []
    solve_lp = siteflow.solve_lp
    solve_priced = siteflow.SiteFlowSolver.solve_priced

    def counted_lp(*args):
        lp_calls[-1] += 1
        return solve_lp(*args)

    def per_class(self, *args, **kwargs):
        lp_calls.append(0)
        return solve_priced(self, *args, **kwargs)

    monkeypatch.setattr(siteflow, "solve_lp", counted_lp)
    monkeypatch.setattr(siteflow.SiteFlowSolver, "solve_priced", per_class)
    warm = optimizer.solve(topology, sequence.matrix(1))
    monkeypatch.undo()
    assert warm.stats["lp_solves"] == 3
    assert warm.stats["lp_warm_start"] == 3
    records = warm.stats["stage1"]
    assert sorted(records) == [1, 2, 3]
    assert records[1]["outcome"] == "certified"
    assert records[1]["pairs_free"] == records[1]["rounds"] == 0
    assert lp_calls[0] == 0
    for qos, calls in zip((2, 3), lp_calls[1:], strict=True):
        record = records[qos]
        assert record["outcome"] == "guided"
        assert calls == record["rounds"] >= 1
        active = record["pairs_fixed"] + record["pairs_free"]
        assert record["pairs_free"] <= 0.5 * active

    small = build_scenario(
        "twan", total_endpoints=2_000, num_site_pairs=60, seed=7
    )
    optimizer = MegaTEOptimizer()
    for _ in range(2):
        result = optimizer.solve(small.topology, small.demands)
        assert [
            record["outcome"] for record in result.stats["stage1"].values()
        ] == ["whole"] * len(result.stats["stage1"])


def test_stage1_free_sets_stay_half_of_four_per_link(twan_6000_scenario):
    """Stage 1's free sets grow from the instance, not from a per-link
    budget — asserted on counts, not time.  Over a warm diurnal stretch
    at 6 000 TWAN pairs the guided class-solves free at most half of the
    ``max(4 · links, 256)`` pairs a four-per-link budget frees before any
    release, so a budget that grows back fails here."""
    from repro.traffic import DiurnalSequence

    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=11)
    optimizer = MegaTEOptimizer()
    per_solve = max(4 * len(topology.network.links), 256)
    freed = budgeted = 0
    for interval in range(5):
        result = optimizer.solve(topology, sequence.matrix(interval))
        for record in result.stats["stage1"].values():
            if record["outcome"] == "guided":
                assert record["pairs_moved"] <= record["pairs_free"]
                freed += record["pairs_free"]
                budgeted += per_solve
    assert budgeted >= 8 * per_solve
    assert freed <= 0.5 * budgeted


#: Traced-allocation ceiling of one contended fill, per flow.  The fill
#: holds a few numpy columns per flow (the free set, its sorted row and
#: order, masks): about 62 bytes at 2×10^5 flows.  A whole-row Python
#: list costs 32 bytes per flow (a pointer plus a float object); a fill
#: that lists a row's values and their negations, as a Python greedy or
#: reconciliation scan with ``bisect`` skips does, peaks near 123.
FILL_TRACED_BYTES_PER_FLOW = 96


def test_contended_fill_traced_memory():
    """Filling one contended 2×10^5-flow pair allocates numpy columns,
    not whole-row Python lists."""
    import tracemalloc

    import numpy as np

    from repro.core.pairfill import fill_pair

    rng = np.random.default_rng(7)
    volumes = rng.exponential(1.0, 200_000)
    alloc = np.array([0.2, 0.1, 0.05]) * volumes.sum()
    fill_order = np.array([1, 0, 2], dtype=np.int64)
    tracemalloc.start()
    try:
        assigned, _ = fill_pair(volumes, alloc, fill_order, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Contended on every tunnel: most flows stay unassigned.
    assert 0 < np.count_nonzero(assigned >= 0) < volumes.size // 2
    assert peak <= FILL_TRACED_BYTES_PER_FLOW * volumes.size, (
        f"contended fill traced {peak / volumes.size:.0f} B/flow, "
        f"bound {FILL_TRACED_BYTES_PER_FLOW}"
    )


def _python_calls(fn, *args) -> list[str]:
    """The Python-level frames ``fn(*args)`` opens, itself included
    (builtins such as ``int`` or ``dict.get`` open none)."""
    import sys

    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_sync_plane_hot_path_frames():
    """The per-object calls of an epoch open a fixed handful of frames:
    a warm poll (no plan, no retry policy, no registry, key unmoved)
    at most four, its store check at most two, a flow report one.

    A structural count rather than a timing: a frame put back on one of
    these paths fails here, where a timing would drift inside noise."""
    from repro.controlplane import (
        DemandCollector,
        EndpointAgent,
        FlowRecord,
        TEController,
        TEDatabase,
    )
    from repro.experiments.common import build_scenario

    # The frame counts are those of telemetry off; a run with it on
    # (``REPRO_OBS=1``) gets the same counts here.
    was = obs.telemetry_enabled()
    obs.set_enabled(False)
    try:
        scenario = build_scenario(
            "twan", total_endpoints=2_000, num_site_pairs=20, seed=7
        )
        topology, table = scenario.topology, scenario.demands.table
        database = TEDatabase(enforce_capacity=False)
        controller = TEController(database)
        result = MegaTEOptimizer().solve(topology, scenario.demands)
        controller.publish(topology, result, now=0.0)
        agent = EndpointAgent(endpoint_id=int(table.src_endpoints[0]))
        assert agent.poll(database, 1.0)  # installs
        controller.publish(topology, result, now=300.0)
        assert controller.last_publish_writes == 0  # no key moved
        # Open this second's bucket on the agent's shard: the poll is warm.
        database.check_version(agent._config_key, 301.0)

        calls = _python_calls(agent.poll, database, 301.5)
        assert agent.local_version == 2 and agent.failed_polls == 0
        assert len(calls) <= 4, calls
        calls = _python_calls(database.check_version, agent._config_key, 301.5)
        assert len(calls) <= 2, calls

        collector = DemandCollector(topology, interval_seconds=300.0)
        record = FlowRecord(int(table.src_endpoints[0]), int(table.dst_endpoints[0]), 8)
        assert _python_calls(collector.ingest, record) == ["ingest"]
        assert collector.num_flows == 1
    finally:
        obs.set_enabled(was)


def test_drain_and_publish_search_no_flow_rows(monkeypatch):
    """``build_matrix`` and a warm ``publish`` resolve rows by gathers:
    no ``np.searchsorted`` or ``np.isin`` call takes a needle as long as
    the flow rows (endpoint -> site, site pair -> catalog pair and the
    publish diff are tables, searched at most once per endpoint).

    Structural, like the frame guard above: a per-row search put back
    on either layer fails here, where its time would drift in noise."""
    import numpy as np

    from repro.controlplane import (
        DemandCollector,
        FlowRecord,
        TEController,
        TEDatabase,
    )
    from repro.core import FlowAssignment, TEResult
    from repro.core.qos import QoSClass
    from repro.experiments.common import build_scenario

    scenario = build_scenario(
        "twan", total_endpoints=2_000, num_site_pairs=20, seed=7
    )
    topology, table = scenario.topology, scenario.demands.table
    collector = DemandCollector(topology, interval_seconds=300.0)
    for src, dst, qos in zip(
        table.src_endpoints.tolist(),
        table.dst_endpoints.tolist(),
        table.qos.tolist(),
    ):
        collector.ingest(FlowRecord(src, dst, 1_000, QoSClass(qos)))
    controller = TEController(TEDatabase(enforce_capacity=False))
    result = MegaTEOptimizer().solve(topology, scenario.demands)
    controller.publish(topology, result)
    # Warm: every 7th flow moves to its pair's first tunnel or goes
    # unassigned, so endpoints change, appear and disappear.
    assigned = result.assignment.assigned_tunnel.copy()
    assigned[::7] = np.where(assigned[::7] == 0, -1, 0)
    moved = TEResult(
        scheme="moved",
        assignment=FlowAssignment.from_flat(assigned, table.offsets),
        demands=scenario.demands,
        satisfied_volume=0.0,
        runtime_s=0.0,
    )

    needles: list[tuple[str, int]] = []
    searchsorted, isin = np.searchsorted, np.isin

    def counted_searchsorted(a, v, *args, **kwargs):
        needles.append(("searchsorted", np.size(v)))
        return searchsorted(a, v, *args, **kwargs)

    def counted_isin(element, *args, **kwargs):
        needles.append(("isin", np.size(element)))
        return isin(element, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted_searchsorted)
    monkeypatch.setattr(np, "isin", counted_isin)
    # Same-(src, dst) reports merge: fewer flow rows than reports.
    rows = collector.build_matrix().table.num_flows
    controller.publish(topology, moved)
    assert controller.last_publish_writes > 0
    assert needles  # the guard sees the layers' searches
    assert all(size < rows for _, size in needles), (rows, needles)
