"""The benchmark's tables: workloads, scales, and metric names.

This is the one place workload and metric names live.  ``BENCHMARK.json``
repeats the names (the driver reads that file, not this one); the smoke
test checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of the pinned scenario (topology, endpoint layout, base demand
#: matrix, failure cuts) — the same one ``BENCH_interval_solve.json``'s
#: twan-1m / twan-20k trajectories pin.  ``--seed`` drives what changes
#: from run to run *on* that scenario: the per-epoch demand jitter, the
#: agents' poll offsets and the probe's flow sample.  Keeping the
#: scenario fixed keeps the flow count, and so the work per epoch, the
#: same for every seed; without that no timing bound tighter than the
#: seed-to-seed scenario variance (tens of percent) could hold.
SCENARIO_SEED = 42

TE_INTERVAL_S = 300.0
POLL_WINDOW_S = 10.0
TARGET_LOAD = 1.6

#: Probe: flows sampled, datagram sizes sent per flow (the smallest UDP
#: payload worth sending, and one that fragments into three wire packets
#: at the 1500 B MTU).
PROBE_FLOWS = 128
PROBE_PAYLOADS = (64, 4000)

#: A workload stops starting new epochs once its process has run this
#: long, whatever ``--seconds`` asked for: the driver kills a run at 180 s.
HARD_STOP_S = 150.0


@dataclass(frozen=True)
class Scale:
    """Size of one workload at one ``--scale``.

    Attributes:
        endpoints: Endpoint-layer size.
        site_pairs: Demand-carrying site pairs (9 900 = all of TWAN's).
        cycle_s: Wall seconds one warm epoch costs on the reference
            machine *including* its input generation and checks; the
            warm-epoch count of a run is ``round(seconds / cycle_s)``,
            so it repeats exactly between runs and between commits.
            ``None`` (smoke scales) ignores ``--seconds``.
        min_warm_epochs: Floor on that count (a traced run needs at
            least one untraced epoch next to its traced ones), and the
            count itself when ``cycle_s`` is ``None``.
        probe_rounds: Times the whole probe sample is sent per epoch, so
            a probe of a few hundred packets still yields a steady
            per-packet time.
    """

    endpoints: int
    site_pairs: int
    cycle_s: float | None
    min_warm_epochs: int = 2
    probe_rounds: int = 4

    def warm_epochs(self, seconds: float) -> int:
        if self.cycle_s is None:
            return self.min_warm_epochs
        return max(self.min_warm_epochs, round(seconds / self.cycle_s))


#: Smoke scales: one cold epoch plus five warm (enough for the churn
#: workload to cross its first fiber cut at epoch 3), one probe round.
_SMOKE = dict(cycle_s=None, min_warm_epochs=5, probe_rounds=1)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: As in ``BENCHMARK.json``.
        why: One line on what it stresses.
        incremental: Solve through the cross-interval delta-patch path
            (``MegaTEOptimizer(incremental=True, delta_threshold=1.5)``).
        churn: Alternate the topology healthy / cut A / healthy / cut B,
            switching every third epoch.
        scales: ``--scale`` name -> :class:`Scale`.
    """

    name: str
    why: str
    incremental: bool
    churn: bool
    scales: dict[str, Scale]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="twan-1m",
            why=(
                "paper-scale 1M endpoints x 60 pairs: per-flow collector, "
                "publish and agent layers dominate the epoch, solver ~2%"
            ),
            incremental=False,
            churn=False,
            scales={
                "full": Scale(1_000_000, 60, cycle_s=8.0),
                "smoke": Scale(20_000, 60, **_SMOKE),
            },
        ),
        Workload(
            name="twan-allpairs",
            why=(
                "all 9900 site pairs x 1000 endpoints: stage-1 LP dominates "
                "epoch and solve, FastSSP ~1% - the mirror of twan-1m"
            ),
            incremental=False,
            churn=False,
            scales={
                "full": Scale(1_000, 9_900, cycle_s=3.0),
                "smoke": Scale(200, 1_000, **_SMOKE),
            },
        ),
        Workload(
            name="twan-200k-churn",
            why=(
                "incremental solver with a fiber cut or repair every 3rd "
                "epoch: delta-patch, real repins, caches across catalogs"
            ),
            incremental=True,
            churn=True,
            scales={
                "full": Scale(200_000, 60, cycle_s=1.9),
                "smoke": Scale(20_000, 60, **_SMOKE),
            },
        ),
    )
}

def is_traced_epoch(warm_index: int) -> bool:
    """Whether warm epoch ``warm_index`` (1-based) of a ``--trace 1`` run
    records layer spans.  Every second one stays untraced so the same
    process yields the untraced ``epoch_s`` the overhead share is taken
    against; the churn workload flips its topology every third epoch, so
    flips land on both sides.
    """
    return warm_index % 2 == 1


# -- metric tables ----------------------------------------------------------
#
# (name, unit, better).  ``bound`` lives in BENCHMARK.json only: it is the
# driver's gate, chosen from measured spreads, not a property of the code.

END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("epoch_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("packet_us", "us", "lower"),
    ("satisfied_fraction", "ratio", "higher"),
    ("delivered_fraction", "ratio", "higher"),
    ("qos1_latency_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Solver phases read from ``TEResult.stats["phase_s"]``, keyed by the
#: layer (module) that does the work.
SOLVER_PHASE_METRIC = {
    "matrix_build": "twostage.matrix_build.busy_s",
    "lp_solve": "siteflow.lp_solve.busy_s",
    "delta_patch": "incremental.delta_patch.busy_s",
    "triage": "batch.triage.busy_s",
    "contended_ssp": "fastssp_batch.contended_ssp.busy_s",
    "residual_update": "twostage.residual_update.busy_s",
}

SSP_BATCH_PHASES = ("pad", "sort", "cluster", "dp", "mask", "greedy", "extract")

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("collector.ingest.busy_s", "s", "lower"),
    ("collector.ingest.records", "count", "lower"),
    ("collector.ingest.us_per_record", "us", "lower"),
    ("collector.build_matrix.busy_s", "s", "lower"),
    ("collector.unroutable_bytes", "count", "lower"),
    ("controller.publish.busy_s", "s", "lower"),
    ("controller.publish.flows", "count", "lower"),
    ("controller.publish.us_per_flow", "us", "lower"),
    ("controller.publish.writes", "count", "lower"),
    ("controller.publish.write_ratio", "ratio", "lower"),
    ("agent.poll.busy_s", "s", "lower"),
    ("agent.polls", "count", "lower"),
    ("agent.us_per_poll", "us", "lower"),
    ("agent.installs", "count", "lower"),
    ("agent.redundant_install_ratio", "ratio", "lower"),
    ("agent.failed_polls", "count", "lower"),
    ("database.queries", "count", "lower"),
    ("database.rejected", "count", "lower"),
    ("database.peak_qps", "1/s", "lower"),
    ("twostage.solve.busy_s", "s", "lower"),
    ("twostage.self_s", "s", "lower"),
    ("twostage.closure", "ratio", "higher"),
    ("twostage.matrix_build.busy_s", "s", "lower"),
    ("twostage.residual_update.busy_s", "s", "lower"),
    ("siteflow.lp_solve.busy_s", "s", "lower"),
    ("siteflow.lp_solves", "count", "lower"),
    ("siteflow.lp_solves_skipped", "count", "higher"),
    ("batch.triage.busy_s", "s", "lower"),
    ("batch.uncontended_pairs", "count", "higher"),
    ("fastssp_batch.contended_ssp.busy_s", "s", "lower"),
    ("fastssp_batch.contended_pairs", "count", "lower"),
    *(
        (f"fastssp_batch.{phase}.busy_s", "s", "lower")
        for phase in SSP_BATCH_PHASES
    ),
    ("incremental.delta_patch.busy_s", "s", "lower"),
    ("incremental.pairs_delta_patched", "count", "higher"),
    ("incremental.ssp_state_reused", "count", "higher"),
    ("incremental.reuse_ratio", "ratio", "higher"),
    ("flowsim.simulate.busy_s", "s", "lower"),
    ("latency.compute.busy_s", "s", "lower"),
    ("dataplane.packets", "count", "higher"),
    ("dataplane.host_send.busy_s", "s", "lower"),
    ("dataplane.fabric_deliver.busy_s", "s", "lower"),
    ("dataplane.drops", "count", "lower"),
    ("dataplane.path_mismatches", "count", "lower"),
    ("topology.build_scenario.busy_s", "s", "lower"),
    ("topology.with_failures.busy_s", "s", "lower"),
    ("agent.fleet_build.busy_s", "s", "lower"),
    ("harness.inputgen_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.closure", "ratio", "higher"),
    ("harness.trace_overhead_share", "ratio", "lower"),
)

#: Per-layer metrics that are exact counts: equal between two runs of one
#: seed, so ``compare.py`` compares them for equality.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")
