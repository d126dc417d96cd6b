"""Failure orchestration: detect → recompute → publish → converge.

Ties the whole control plane together for the §6.3 story, including the
§8 caveat: after a failure the controller recomputes in seconds, but the
*pull-based* fleet only converges over the next poll period, so traffic
on dead tunnels keeps dying until each endpoint learns the new config.
A hybrid plan (persistent connections for the heavy hitters) shrinks the
exposed volume.

The orchestrator produces a loss timeline: volume delivered during
(1) the solver's recomputation window, (2) the convergence window, and
(3) steady state after convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import checks
from ..simulation.failures import surviving_volume
from .database import TEDatabase
from .hybrid import HybridPlan
from .watcher import ShardHealthMonitor

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..topology.failures import FailureScenario
    from ..traffic.demand import DemandMatrix

__all__ = [
    "FailoverTimeline",
    "orchestrate_failover",
    "ShardFailoverReport",
    "orchestrate_shard_failover",
]


@dataclass(frozen=True)
class FailoverTimeline:
    """Delivered-volume phases around one failure event.

    Attributes:
        surviving_fraction: Delivered fraction between failure and the
            controller finishing recomputation (old configs everywhere).
        convergence_fraction: Mean delivered fraction during the
            convergence window (endpoints flip to new configs as they
            poll; pushed endpoints flip instantly).
        steady_fraction: Delivered fraction once every endpoint runs the
            new allocation.
        recompute_seconds: Solver window.
        convergence_seconds: Poll period (pull fleet's worst case).
        effective_fraction: Time-weighted average over a TE interval.
        interval_seconds: The averaging window.
    """

    surviving_fraction: float
    convergence_fraction: float
    steady_fraction: float
    recompute_seconds: float
    convergence_seconds: float
    interval_seconds: float
    effective_fraction: float


def orchestrate_failover(
    topology: "TwoLayerTopology",
    demands: "DemandMatrix",
    solver,
    scenario: "FailureScenario",
    poll_period_s: float = 10.0,
    interval_seconds: float = 300.0,
    hybrid_plan: HybridPlan | None = None,
    endpoint_volumes: np.ndarray | None = None,
    runtime_scale: float = 1.0,
    database_outage_s: float = 0.0,
) -> FailoverTimeline:
    """Walk one failure through recompute + convergence.

    Args:
        topology: Healthy topology.
        demands: The interval's demand matrix.
        solver: TE scheme with ``solve``.
        scenario: Fibers that fail at t = 0.
        poll_period_s: Pull fleet's poll period (convergence window).
        interval_seconds: TE interval for time-weighting.
        hybrid_plan: Optional §8 hybrid plan: the pushed share of traffic
            converges instantly instead of over the poll period.
        endpoint_volumes: Per-endpoint volumes matching the hybrid plan
            (required when ``hybrid_plan`` is given).
        runtime_scale: Maps measured solver runtime to testbed scale.
        database_outage_s: Seconds the TE database stays unreachable
            after the recompute finishes (a correlated sync-plane
            fault): the pulled fleet cannot start converging until the
            store is back, so its stale plateau extends by the outage.
            Pushed endpoints (persistent connections) are unaffected.

    Returns:
        A :class:`FailoverTimeline`.
    """
    checks.nonnegative("database_outage_s", database_outage_s)
    if hybrid_plan is not None and endpoint_volumes is None:
        raise ValueError("hybrid_plan requires endpoint_volumes")
    before = solver.solve(topology, demands)
    failed = set(scenario.failed_links)
    degraded = topology.with_failures(scenario.failed_links)
    after = solver.solve(degraded, demands)

    total = demands.total_demand
    surviving = (
        surviving_volume(topology, before, failed) / total
        if total > 0
        else 1.0
    )
    steady = after.satisfied_fraction

    # Convergence: stale endpoints still deliver `surviving`, updated ones
    # deliver `steady`.  Pull-only: the updated fraction ramps linearly
    # over one poll period -> mean delivered = midpoint.  With a hybrid
    # plan, the pushed volume share flips instantly.
    pushed_share = 0.0
    if hybrid_plan is not None:
        volumes = np.asarray(endpoint_volumes, dtype=np.float64)
        order = np.argsort(-volumes, kind="stable")
        vol_total = float(volumes.sum())
        if vol_total > 0:
            pushed_share = (
                float(volumes[order[: hybrid_plan.pushed_endpoints]].sum())
                / vol_total
            )
    pulled_share = 1.0 - pushed_share
    # Pulled endpoints sit on the stale plateau while the database is
    # down, then ramp linearly to the new config over one poll period;
    # the mean over the whole window blends the two segments.  With no
    # outage this is the plain midpoint ramp.
    pulled_window = database_outage_s + poll_period_s
    if pulled_window > 0:
        pulled_mean = (
            database_outage_s * surviving
            + poll_period_s * (surviving + steady) / 2.0
        ) / pulled_window
    else:
        pulled_mean = steady
    convergence = pushed_share * steady + pulled_share * pulled_mean

    recompute = min(
        after.runtime_s * runtime_scale, interval_seconds
    )
    convergence_window = min(
        pulled_window, max(0.0, interval_seconds - recompute)
    )
    steady_window = max(
        0.0, interval_seconds - recompute - convergence_window
    )
    effective = (
        recompute * surviving
        + convergence_window * convergence
        + steady_window * steady
    ) / interval_seconds
    return FailoverTimeline(
        surviving_fraction=surviving,
        convergence_fraction=convergence,
        steady_fraction=steady,
        recompute_seconds=recompute,
        convergence_seconds=convergence_window,
        interval_seconds=interval_seconds,
        effective_fraction=effective,
    )


@dataclass(frozen=True)
class ShardFailoverReport:
    """What one sync-plane failover pass did.

    Attributes:
        crashed_shards: Shards found down at ``now``.
        resharded_keys: Keys migrated off crashed shards this pass.
        reconciled_shards: Restarted shards brought back to fresh state.
    """

    crashed_shards: tuple[int, ...]
    resharded_keys: int
    reconciled_shards: tuple[int, ...]

    @property
    def acted(self) -> bool:
        return bool(self.resharded_keys or self.reconciled_shards)


def orchestrate_shard_failover(
    database: TEDatabase,
    now: float,
    monitor: ShardHealthMonitor | None = None,
) -> ShardFailoverReport:
    """One detect → re-shard → reconcile pass over the sync plane.

    The data-plane failover above handles fibers; this handles the
    *store* the fleet pulls from.  Each pass probes every shard, feeds
    the hysteresis monitor (when given), migrates keys away from shards
    declared down so agents keep finding their configs, and reconciles
    shards that restarted — restoring authoritative versions over any
    stale-replica state and sending migrated keys home.

    Drive it periodically (each simulation tick, or each probe
    interval) the way :class:`~.watcher.LinkStateMonitor` is driven for
    fibers.

    Args:
        database: The TE database, with its fault plan attached.
        now: Current time.
        monitor: Optional :class:`~.watcher.ShardHealthMonitor`; when
            given, re-sharding waits for its hysteresis to declare a
            shard down (one lost probe does not trigger a migration),
            and probes are fed automatically.

    Returns:
        A :class:`ShardFailoverReport` for this pass.
    """
    unhealthy = database.unhealthy_shards(now)
    if monitor is not None:
        for shard in range(database.num_shards):
            monitor.observe_shard(
                shard, shard not in unhealthy, now=now
            )
        act_on = [
            s for s in monitor.failed_shards() if s in unhealthy
        ]
    else:
        act_on = unhealthy
    moved = database.reshard(now, shards=act_on) if act_on else 0
    reconciled = database.reconcile_restarted(now)
    return ShardFailoverReport(
        crashed_shards=tuple(database.crashed_shards(now)),
        resharded_keys=moved,
        reconciled_shards=tuple(reconciled),
    )
