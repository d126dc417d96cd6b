"""Chaos study: sync-plane availability under injected store faults.

Figure 16 shows MegaTE's availability across the rollout in fair
weather; this study turns the weather bad.  It is the scenario
engine's :class:`~repro.simulation.engine.SyncPlane` without a solver:
retrying agents poll a TE database under a generated fault plan while
a publisher pushes versions through the same store and a shard
failover pass runs every tick (the soak engine drives the same plane
under its event schedule).  Sweeping the fault intensity yields the
availability and staleness CDF versus intensity.

Everything derives from explicit seeds on the simulated clock.  The
plane checks its invariants on every tick (never newer than published,
monotone versions, staleness bound honoured) and the row counts them,
so the chaos property suite and the bench share one harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..controlplane import EndpointAgent, FaultPlan
from ..controlplane.database import TEDatabase
from ..obs import get_registry, get_tracer
from ..simulation.engine import SyncPlane, check_clock

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
    check_clock(
        tick_s=tick_s,
        poll_period_s=poll_period_s,
        publish_period_s=publish_period_s,
    )
    if not 0 < horizon_s < math.inf:
        raise ValueError(
            f"horizon_s must be positive and finite, got {horizon_s!r}"
        )
    plan = FaultPlan.generate(
        seed=seed,
        num_shards=num_shards,
        horizon_s=horizon_s,
        intensity=intensity,
    )
    plane = SyncPlane(
        plan,
        num_agents,
        num_shards,
        poll_period_s,
        tick_s,
        seed,
        staleness_slo_s,
        manage_failover,
    )
    agents, publisher = plane.agents, plane.publisher

    samples: list[float] = []
    fresh_samples = 0
    total_samples = 0
    next_publish = 0.0
    publish_count = 0
    t = 0.0
    while t <= horizon_s:
        # Publish on schedule, but leave the fleet at least one poll
        # period to converge on the final version before the horizon.
        if (
            t >= next_publish
            and t <= horizon_s - poll_period_s - tick_s
        ):
            publish_count += 1
            publisher.start(publish_count)
            next_publish += publish_period_s
        plane.step(t)
        if t >= plane.warmup_s:
            for agent in agents:
                samples.append(agent.staleness_s(t))
                total_samples += 1
                if agent.serving_paths(t) is not None:
                    fresh_samples += 1
        t += tick_s

    # Every row metric is measured within the horizon — snapshot them
    # before the convergence grace below adds polls/retries/faults.
    failed = sum(a.failed_polls for a in agents)
    total_retries = sum(a.retries for a in agents)
    total_regressions = sum(a.version_regressions for a in agents)
    total_injected = plane.database.injected.total_injected
    resharded = plane.resharded_keys

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
        plane.settle(t)
        if plane.converged_fraction() == 1.0:
            break
        plane.poll(t)
        t += tick_s

    published = publisher.published_version
    staleness_arr = np.asarray(samples, dtype=np.float64)
    finite = staleness_arr[np.isfinite(staleness_arr)]
    mean, p50, p99 = (
        (finite.mean(), *np.percentile(finite, [50, 99]))
        if finite.size
        else (math.inf,) * 3
    )
    total_polls = (int(horizon_s // poll_period_s) + 1) * num_agents
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
        mean_staleness_s=float(mean),
        p50_staleness_s=float(p50),
        p99_staleness_s=float(p99),
        max_staleness_s=(
            float(staleness_arr.max()) if staleness_arr.size else 0.0
        ),
        final_converged_fraction=plane.converged_fraction(),
        publishes=published,
        failed_polls=failed,
        retries=total_retries,
        version_regressions=total_regressions,
        injected_faults=total_injected,
        resharded_keys=resharded,
        invariant_violations=len(plane.violations),
    )
    registry = get_registry()
    if registry.enabled:
        for name, help_text, value in (
            ("megate_chaos_availability",
             "Fraction of agent samples within the staleness SLO",
             row.availability),
            ("megate_chaos_poll_success_rate",
             "Polls that reached the database over polls attempted",
             row.poll_success_rate),
            ("megate_chaos_p99_staleness_seconds",
             "99th-percentile sampled config staleness",
             row.p99_staleness_s),
        ):
            registry.gauge(name, help_text, labelnames=("intensity",)).labels(
                intensity=f"{intensity:g}"
            ).set(value)
    return ChaosSimResult(
        row=row,
        agents=agents,
        database=plane.database,
        published_version=published,
        staleness_samples=staleness_arr,
        violations=plane.violations,
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
