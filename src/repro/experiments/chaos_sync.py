"""Chaos study: sync-plane availability under injected store faults.

Figure 16 shows MegaTE's availability across the rollout under
fair-weather conditions; this study replicates the shape of that claim
with the weather turned bad.  A fleet of retrying endpoint agents polls
a TE database under a fault plan (:mod:`repro.controlplane.faults`) while a
publisher keeps pushing new config versions through the same faulty
store, and a shard-failover pass (detect → re-shard → reconcile) runs on
every tick.  Sweeping the fault intensity yields the availability and
config-staleness CDF versus fault intensity — the degraded-conditions
counterpart of Fig. 16.

The whole simulation is deterministic from its seed: fault schedules,
error coins, retry jitter, and poll offsets all derive from explicit
seeds, and time is the simulation clock.  Invariants are checked *inside*
the loop on every sample (never-newer-than-published, monotone versions,
staleness bound honoured) and surface in the row, so the chaos property
suite and the bench share one harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..controlplane import (
    EndpointAgent,
    FaultPlan,
    FaultyTEDatabase,
    ResumablePublisher,
    RetryPolicy,
    ShardHealthMonitor,
    orchestrate_shard_failover,
    spread_offsets,
)
from ..controlplane.database import TEDatabase
from ..obs import get_registry, get_tracer

__all__ = ["ChaosSyncRow", "ChaosSimResult", "simulate", "run"]


@dataclass(frozen=True)
class ChaosSyncRow:
    """One fault-intensity point of the chaos sweep.

    Attributes:
        intensity: Fault-plan intensity in [0, 1].
        seed: Fault-plan seed.
        num_agents: Fleet size simulated.
        availability: Fraction of agent-tick samples within the
            staleness SLO (the Fig. 16 metric under injected faults).
        poll_success_rate: Polls that reached the database (retries
            included) over polls attempted.
        mean_staleness_s: Mean sampled config staleness.
        p50_staleness_s: Median sampled staleness.
        p99_staleness_s: 99th-percentile sampled staleness.
        max_staleness_s: Worst sampled staleness.
        final_converged_fraction: Agents on the newest published
            version at the horizon.
        publishes: Newest version whose commit was issued.
        failed_polls: Poll slots that exhausted their retry budget.
        retries: Individual retry attempts across the fleet.
        version_regressions: Stale-replica version checks ignored.
        injected_faults: Total injected failures (all classes).
        resharded_keys: Keys migrated off crashed shards.
        invariant_violations: Samples breaking a chaos invariant
            (always 0 unless the sync plane is broken).
    """

    intensity: float
    seed: int
    num_agents: int
    availability: float
    poll_success_rate: float
    mean_staleness_s: float
    p50_staleness_s: float
    p99_staleness_s: float
    max_staleness_s: float
    final_converged_fraction: float
    publishes: int
    failed_polls: int
    retries: int
    version_regressions: int
    injected_faults: int
    resharded_keys: int
    invariant_violations: int


@dataclass
class ChaosSimResult:
    """Full simulation state, for the property suite.

    Attributes:
        row: The summary row.
        agents: The fleet, in its final state.
        database: The TE database, with the run's fault plan attached.
        published_version: Newest version whose commit was issued.
        staleness_samples: Every (agent, tick) staleness sample taken.
        violations: Human-readable invariant violations (empty unless
            the sync plane is broken).
    """

    row: ChaosSyncRow
    agents: list[EndpointAgent]
    database: TEDatabase
    published_version: int
    staleness_samples: np.ndarray
    violations: list[str] = field(default_factory=list)


def simulate(
    intensity: float,
    seed: int = 0,
    num_agents: int = 50,
    num_shards: int = 4,
    horizon_s: float = 600.0,
    publish_period_s: float = 150.0,
    poll_period_s: float = 10.0,
    staleness_slo_s: float | None = None,
    tick_s: float = 1.0,
    manage_failover: bool = True,
) -> ChaosSimResult:
    """Run one seeded chaos simulation and check invariants throughout.

    Args:
        intensity: Fault-plan intensity (0 = fair weather).
        seed: Seed for the fault plan, poll offsets, and retry jitter.
        num_agents: Endpoint fleet size.
        num_shards: TE database shards.
        horizon_s: Simulated duration.
        publish_period_s: Seconds between version publishes.
        poll_period_s: Agent poll period.
        staleness_slo_s: Staleness SLO; defaults to three poll periods.
        tick_s: Simulation tick.
        manage_failover: Run the shard detect/re-shard/reconcile pass
            each tick (the production posture); disable to measure the
            unmanaged store.
    """
    if staleness_slo_s is None:
        staleness_slo_s = 3.0 * poll_period_s
    inner = TEDatabase(
        num_shards=num_shards,
        shard_capacity_qps=1_000_000,
        enforce_capacity=True,
    )
    plan = FaultPlan.generate(
        seed=seed,
        num_shards=num_shards,
        horizon_s=horizon_s,
        intensity=intensity,
    )
    database = FaultyTEDatabase(inner, plan)
    offsets = spread_offsets(num_agents, poll_period_s, seed=seed)
    agents = [
        EndpointAgent(
            endpoint_id=e,
            poll_period_s=poll_period_s,
            poll_offset_s=float(offsets[e]),
            retry_policy=RetryPolicy(
                max_retries=3,
                backoff_base_s=0.2,
                backoff_cap_s=2.0,
                poll_budget_s=poll_period_s / 2.0,
                seed=seed,
            ),
            max_staleness_s=staleness_slo_s,
        )
        for e in range(num_agents)
    ]
    monitor = ShardHealthMonitor(down_after=2, up_after=1)
    publisher = ResumablePublisher(database, num_agents)

    violations: list[str] = []
    prev_versions = [0] * num_agents
    samples: list[float] = []
    fresh_samples = 0
    total_samples = 0
    resharded = 0
    warmup_s = poll_period_s + tick_s

    next_publish = 0.0
    publish_count = 0
    t = 0.0
    while t <= horizon_s:
        if manage_failover:
            report = orchestrate_shard_failover(
                database, t, monitor=monitor
            )
            resharded += report.resharded_keys
        # Publish on schedule, but leave the fleet at least one poll
        # period to converge on the final version before the horizon.
        if (
            t >= next_publish
            and t <= horizon_s - poll_period_s - tick_s
        ):
            publish_count += 1
            publisher.start(publish_count)
            next_publish += publish_period_s
        publisher.pump(t)
        for agent in agents:
            agent.maybe_poll(database, now=t)
        published = publisher.published_version
        for idx, agent in enumerate(agents):
            if agent.local_version > published:
                violations.append(
                    f"t={t:.0f}s agent {idx} at v{agent.local_version} "
                    f"> published v{published}"
                )
            if agent.local_version < prev_versions[idx]:
                violations.append(
                    f"t={t:.0f}s agent {idx} rolled back "
                    f"v{prev_versions[idx]} -> v{agent.local_version}"
                )
            prev_versions[idx] = agent.local_version
            if t < warmup_s:
                continue
            staleness = agent.staleness_s(t)
            samples.append(staleness)
            total_samples += 1
            serving = agent.serving_paths(t)
            if serving is not None:
                fresh_samples += 1
                if staleness > agent.max_staleness_s:
                    violations.append(
                        f"t={t:.0f}s agent {idx} served a config "
                        f"{staleness:.1f}s stale past its "
                        f"{agent.max_staleness_s:.1f}s bound"
                    )
        t += tick_s

    # Every row metric is measured within the horizon — snapshot them
    # before the convergence grace below adds polls/retries/faults.
    failed = sum(a.failed_polls for a in agents)
    total_retries = sum(a.retries for a in agents)
    total_regressions = sum(a.version_regressions for a in agents)
    total_injected = database.injected.total_injected

    # Clear-weather convergence grace.  The claim under test is that the
    # fleet converges on the final version *once the weather clears*:
    # fault windows are capped at the horizon, but per-op error coins
    # and stale-after-crash replicas survive it, so a plan whose
    # windows cover the tail can leave agents behind at exactly
    # ``horizon_s``.  Keep the failover manager and the fleet ticking
    # past the horizon (no new publishes, no metric samples) until the
    # fleet catches up, invariants checked throughout.
    grace_end = horizon_s + 10.0 * poll_period_s
    while t <= grace_end:
        if manage_failover:
            orchestrate_shard_failover(database, t, monitor=monitor)
        publisher.pump(t)
        published = publisher.published_version
        if all(a.local_version == published for a in agents):
            break
        for agent in agents:
            agent.maybe_poll(database, now=t)
        published = publisher.published_version
        for idx, agent in enumerate(agents):
            if agent.local_version > published:
                violations.append(
                    f"t={t:.0f}s agent {idx} at v{agent.local_version} "
                    f"> published v{published}"
                )
            if agent.local_version < prev_versions[idx]:
                violations.append(
                    f"t={t:.0f}s agent {idx} rolled back "
                    f"v{prev_versions[idx]} -> v{agent.local_version}"
                )
            prev_versions[idx] = agent.local_version
        t += tick_s

    published = publisher.published_version
    staleness_arr = np.asarray(samples, dtype=np.float64)
    finite = staleness_arr[np.isfinite(staleness_arr)]
    slots_per_agent = max(
        0, int((horizon_s - 0.0) // poll_period_s) + 1
    )
    total_polls = slots_per_agent * num_agents
    row = ChaosSyncRow(
        intensity=intensity,
        seed=seed,
        num_agents=num_agents,
        availability=(
            fresh_samples / total_samples if total_samples else 1.0
        ),
        poll_success_rate=(
            1.0 - failed / total_polls if total_polls else 1.0
        ),
        mean_staleness_s=(
            float(finite.mean()) if finite.size else float("inf")
        ),
        p50_staleness_s=(
            float(np.percentile(finite, 50))
            if finite.size
            else float("inf")
        ),
        p99_staleness_s=(
            float(np.percentile(finite, 99))
            if finite.size
            else float("inf")
        ),
        max_staleness_s=(
            float(staleness_arr.max())
            if staleness_arr.size
            else 0.0
        ),
        final_converged_fraction=(
            sum(a.local_version == published for a in agents)
            / num_agents
            if num_agents
            else 1.0
        ),
        publishes=published,
        failed_polls=failed,
        retries=total_retries,
        version_regressions=total_regressions,
        injected_faults=total_injected,
        resharded_keys=resharded,
        invariant_violations=len(violations),
    )
    registry = get_registry()
    if registry.enabled:
        labels = {"intensity": f"{intensity:g}"}
        registry.gauge(
            "megate_chaos_availability",
            "Fraction of agent samples within the staleness SLO",
            labelnames=("intensity",),
        ).labels(**labels).set(row.availability)
        registry.gauge(
            "megate_chaos_poll_success_rate",
            "Polls that reached the database over polls attempted",
            labelnames=("intensity",),
        ).labels(**labels).set(row.poll_success_rate)
        registry.gauge(
            "megate_chaos_p99_staleness_seconds",
            "99th-percentile sampled config staleness",
            labelnames=("intensity",),
        ).labels(**labels).set(row.p99_staleness_s)
    return ChaosSimResult(
        row=row,
        agents=agents,
        database=database,
        published_version=published,
        staleness_samples=staleness_arr,
        violations=violations,
    )


def run(
    intensities: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0),
    num_agents: int = 50,
    num_shards: int = 4,
    horizon_s: float = 600.0,
    seed: int = 0,
    **kwargs,
) -> list[ChaosSyncRow]:
    """Sweep fault intensity; one :class:`ChaosSyncRow` per point."""
    tracer = get_tracer()
    rows = []
    for intensity in intensities:
        with tracer.span("chaos.simulate", intensity=intensity):
            rows.append(
                simulate(
                    intensity,
                    seed=seed,
                    num_agents=num_agents,
                    num_shards=num_shards,
                    horizon_s=horizon_s,
                    **kwargs,
                ).row
            )
    return rows
