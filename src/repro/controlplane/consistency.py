"""Eventual-consistency convergence analysis (§3.2, §8).

After the controller publishes version ``v`` at time ``t0``, each endpoint
learns of it at its first polling slot after ``t0``.  With poll offsets
spread uniformly over the window, convergence completes within one poll
period — but is *not* instantaneous, which is the consistency the paper
trades for control-plane scalability.  The discussion section notes the
cost: during the catch-up window after a failure, endpoints still on the
old config keep sending into dead tunnels.

This module computes the convergence-time distribution and the traffic
exposed during catch-up, both analytically and by event simulation over
real :class:`~repro.controlplane.agent.EndpointAgent` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import checks
from .agent import EndpointAgent
from .database import SyncError, TEDatabase

__all__ = [
    "ConvergenceReport",
    "spread_offsets",
    "simulate_convergence",
    "analytic_convergence",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """How a config version propagated to a fleet of agents.

    Attributes:
        update_delays_s: Per-agent delay from publish to install.
        poll_period_s: The fleet's poll period.
    """

    update_delays_s: np.ndarray
    poll_period_s: float

    @property
    def convergence_time_s(self) -> float:
        """Time until the last agent converged."""
        return float(self.update_delays_s.max()) if self.update_delays_s.size else 0.0

    @property
    def mean_delay_s(self) -> float:
        return float(self.update_delays_s.mean()) if self.update_delays_s.size else 0.0

    def fraction_converged_by(self, elapsed_s: float) -> float:
        """Fraction of agents updated within ``elapsed_s`` of publish."""
        if self.update_delays_s.size == 0:
            return 1.0
        return float((self.update_delays_s <= elapsed_s).mean())


def spread_offsets(
    num_agents: int, window_s: float, seed: int = 0
) -> np.ndarray:
    """Uniformly spread poll offsets over the query window.

    This is the paper's load-spreading: "we divide all endpoints into
    several parts, and each part initiates queries asynchronously during a
    specific time period (e.g., 10 seconds)".
    """
    checks.nonnegative("num_agents", num_agents)
    checks.nonnegative("window_s", window_s)
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, window_s, size=num_agents)


def analytic_convergence(
    publish_time: float,
    offsets: np.ndarray,
    poll_period_s: float,
) -> ConvergenceReport:
    """Closed-form per-agent update delays (no database interaction).

    Agent ``a`` polls at ``offset_a + n * period``; its delay is the gap
    from ``publish_time`` to the first such slot not before it.
    """
    checks.positive("poll_period_s", poll_period_s)
    n = np.ceil((publish_time - offsets) / poll_period_s)
    n = np.maximum(n, 0)
    first_slot = offsets + n * poll_period_s
    return ConvergenceReport(
        update_delays_s=first_slot - publish_time,
        poll_period_s=poll_period_s,
    )


def simulate_convergence(
    agents: list[EndpointAgent],
    database: TEDatabase,
    publish_time: float,
    horizon_s: float | None = None,
    tick_s: float = 1.0,
) -> ConvergenceReport:
    """Event-simulate agents polling a real database after a publish.

    Args:
        agents: The agent fleet (their ``local_version`` should predate the
            published version).
        database: Database already holding the new version.
        publish_time: When the controller finished publishing.
        horizon_s: How long to simulate; defaults to one poll period past
            the publish.
        tick_s: Simulation tick.

    Returns:
        A :class:`ConvergenceReport` (agents that never updated get
        ``inf`` delay).

    A failed poll — capacity rejection or an injected fault when the
    database has a :class:`~.faults.FaultPlan` attached — never
    aborts the simulation: the agent simply has not converged yet and
    keeps polling on its schedule (agents with a retry policy handle
    the error themselves; bare agents have it swallowed here).
    """
    if not agents:
        return ConvergenceReport(
            update_delays_s=np.empty(0), poll_period_s=0.0
        )
    period = agents[0].poll_period_s
    horizon = (
        horizon_s
        if horizon_s is not None
        else publish_time + period + tick_s
    )
    delays = np.full(len(agents), np.inf)
    t = publish_time
    while t <= horizon:
        for idx, agent in enumerate(agents):
            if np.isfinite(delays[idx]):
                continue
            try:
                updated = agent.maybe_poll(database, now=t)
            except SyncError:
                updated = False
            if updated:
                delays[idx] = t - publish_time
        t += tick_s
    return ConvergenceReport(update_delays_s=delays, poll_period_s=period)
