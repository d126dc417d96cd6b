"""Scenario engine: the parts the simulated-time drivers share.

The soak engine (:mod:`.soak`), the streaming loop (:mod:`.streaming`),
the interval runner (:mod:`.interval_runner`) and the chaos study
(:mod:`repro.experiments.chaos_sync`) are configurations of these
pieces; nothing here serves only one of them:

* :class:`SyncPlane` (soak, chaos) — the pull-based sync plane of §3.2
  on the simulated clock;
* :class:`CutTopologies` (soak, stream) — cached degraded topologies;
* :class:`EpochLoop` (soak, stream, interval runner) — decide, solve,
  digest, actuate and realize one epoch;
* :func:`owned_registry`, :class:`RunIdentity` and :func:`check_clock`.

Each driver keeps its own event vocabulary, sampling and report.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from ..core.types import TEResult
from ..obs import get_registry
from ..topology.failures import FailureScenario, sample_failure_scenarios
from .flowsim import SimulationOutcome, simulate

__all__ = [
    "NOOP",
    "DELTA",
    "FULL",
    "check_clock",
    "owned_registry",
    "RunIdentity",
    "CutTopologies",
    "SyncPlane",
    "Epoch",
    "EpochLoop",
]

#: Epoch decisions, cheapest first: keep the actuated allocation, solve
#: on the solver's carried state, or drop that state and solve cold.
NOOP = "noop"
DELTA = "delta"
FULL = "full"


def check_clock(**fields: float) -> None:
    """Raise :class:`ValueError` naming the first field that is not
    positive (NaN included); ``inf`` passes, meaning "never"."""
    for name, value in fields.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


@contextmanager
def owned_registry() -> Iterator:
    """Force-enable and reset the metrics registry for one run, and
    restore the caller's enablement on exit; the series stay behind."""
    registry = get_registry()
    prior_enabled = registry.enabled
    registry.enabled = True
    registry.reset()
    try:
        yield registry
    finally:
        registry.enabled = prior_enabled


class RunIdentity:
    """A run report whose :meth:`identity` is its seed-deterministic view."""

    def identity(self) -> dict:
        raise NotImplementedError

    def identity_digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`identity`."""
        payload = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def timeless(records) -> list[dict]:
        """``records`` as dicts without their wall-clock ``runtime_s``."""
        return [
            {k: v for k, v in r.as_dict().items() if k != "runtime_s"}
            for r in records
        ]


class CutTopologies:
    """The healthy topology and one degraded variant per fiber set.

    A cut's fibers are sampled once per ``(num_fibers, scenario_seed)``
    (connected scenarios only).  Variants are cached, so a repeat
    window reuses one object and the per-topology solver cache and the
    incremental engine's revalidation stay effective.
    """

    def __init__(self, healthy) -> None:
        self.healthy = healthy
        self._fibers: dict[tuple[int, int], tuple] = {}
        self._variants: dict[tuple, object] = {(): healthy}

    def fibers(self, num_fibers: int, scenario_seed: int) -> tuple:
        """The fibers one seeded cut fails (none for ``num_fibers <= 0``)."""
        if num_fibers <= 0:
            return ()
        key = (num_fibers, scenario_seed)
        if key not in self._fibers:
            self._fibers[key] = sample_failure_scenarios(
                self.healthy.network,
                num_fibers,
                num_scenarios=1,
                seed=scenario_seed,
            )[0].fibers
        return self._fibers[key]

    def topology(self, fibers):
        """The topology with every fiber in ``fibers`` failed."""
        key = tuple(sorted(fibers))
        if key not in self._variants:
            self._variants[key] = self.healthy.with_failures(
                FailureScenario(key).failed_links
            )
        return self._variants[key]


class SyncPlane:
    """The TE store under ``plan``, its agents, failover and publisher.

    The store has ``num_shards`` shards of 1M qps, capacity enforced;
    the fleet has spread poll offsets and one shared retry policy;
    failover runs through a ``ShardHealthMonitor(2, 1)``.  Drivers start
    publishes on :attr:`publisher`, call :meth:`step` once per tick and
    sample the agents from :attr:`warmup_s` on.  Every poll round checks
    that no agent is newer than published, rolls back, or vouches for a
    config past its staleness bound; :attr:`violations` collects misses.
    """

    def __init__(
        self,
        plan,
        num_agents: int,
        num_shards: int,
        poll_period_s: float,
        tick_s: float,
        seed: int,
        staleness_slo_s: float | None = None,
        manage_failover: bool = True,
    ) -> None:
        # Imported lazily: controlplane.failover imports the simulation
        # package, so a module-level import here would close a cycle.
        from ..controlplane import (
            EndpointAgent,
            FaultyTEDatabase,
            ResumablePublisher,
            RetryPolicy,
            ShardHealthMonitor,
            TEDatabase,
            spread_offsets,
        )

        if staleness_slo_s is None:
            staleness_slo_s = 3.0 * poll_period_s
        self.database = FaultyTEDatabase(
            TEDatabase(num_shards, 1_000_000, enforce_capacity=True), plan
        )
        offsets = spread_offsets(num_agents, poll_period_s, seed=seed)
        retry = RetryPolicy(
            max_retries=3,
            backoff_base_s=0.2,
            backoff_cap_s=2.0,
            poll_budget_s=poll_period_s / 2.0,
            seed=seed,
        )
        self.agents = [
            EndpointAgent(
                endpoint_id=e,
                poll_period_s=poll_period_s,
                poll_offset_s=float(offsets[e]),
                retry_policy=retry,
                max_staleness_s=staleness_slo_s,
            )
            for e in range(num_agents)
        ]
        self.monitor = ShardHealthMonitor(down_after=2, up_after=1)
        self.publisher = ResumablePublisher(self.database, num_agents)
        self.manage_failover = manage_failover
        self.warmup_s = poll_period_s + tick_s
        self.resharded_keys = 0
        self.violations: list[str] = []
        self._versions = [0] * num_agents

    def step(self, t: float) -> None:
        """One tick: failover pass, pump, every poll, invariant checks."""
        self.settle(t)
        self.poll(t)

    def settle(self, t: float) -> None:
        """The failover pass (when managed), then the publisher's pump."""
        if self.manage_failover:
            from ..controlplane import orchestrate_shard_failover

            report = orchestrate_shard_failover(
                self.database, t, monitor=self.monitor
            )
            self.resharded_keys += report.resharded_keys
        self.publisher.pump(t)

    def poll(self, t: float) -> None:
        """Every agent's scheduled poll, then the invariant checks."""
        for agent in self.agents:
            agent.maybe_poll(self.database, now=t)
        published = self.publisher.published_version
        for idx, agent in enumerate(self.agents):
            version, previous = agent.local_version, self._versions[idx]
            self._versions[idx] = version
            if version > published:
                self.violations.append(
                    f"t={t:.0f}s agent {idx} at v{version} "
                    f"> published v{published}"
                )
            if version < previous:
                self.violations.append(
                    f"t={t:.0f}s agent {idx} rolled back "
                    f"v{previous} -> v{version}"
                )
            if agent.serving_paths(t) is not None and agent.is_degraded(t):
                self.violations.append(
                    f"t={t:.0f}s agent {idx} served a config past its "
                    f"{agent.max_staleness_s:.1f}s staleness bound"
                )

    def converged_fraction(self) -> float:
        """Agents on the newest published version (1.0 for no agents)."""
        if not self.agents:
            return 1.0
        published = self.publisher.published_version
        on_it = sum(a.local_version == published for a in self.agents)
        return on_it / len(self.agents)


@dataclass(frozen=True)
class Epoch:
    """One epoch's decision, its solve (None under :data:`NOOP`), the
    actuated allocation on the actual demands, and its realization."""

    decision: str
    solved: TEResult | None
    realized: TEResult
    flow: SimulationOutcome


class EpochLoop:
    """Solve, digest, actuate and realize one epoch at a time.

    ``solver`` is any scheme with ``solve(topology, demands)``; its
    ``reset_incremental_state``, if any, runs before each :data:`FULL`
    solve.  With ``delay_actuation`` a solve serves from the next epoch
    on (the paper's weak coupling), except the first solve and a
    topology change's, which have nothing valid to keep serving.
    :attr:`digest` folds every solve's per-pair assignment, in order.
    """

    def __init__(self, solver, delay_actuation: bool = False) -> None:
        self.solver = solver
        self.delay_actuation = delay_actuation
        self.digest = hashlib.sha256()
        self._epochs = 0
        self._current: TEResult | None = None
        self._pending: TEResult | None = None

    def step(
        self,
        topology,
        solve_on,
        actual,
        decide: Callable[[], str] | None = None,
        topology_changed: bool = False,
    ) -> Epoch:
        """Run one epoch: solve on ``solve_on`` when ``decide`` says so
        (None: every epoch, on carried state; the first epoch and a
        topology change always solve :data:`FULL`), then realize the
        actuated allocation on ``actual``, which must keep its flows."""
        if self._pending is not None:
            self._current, self._pending = self._pending, None
        if self._epochs == 0 or topology_changed:
            decision = FULL
        else:
            decision = DELTA if decide is None else decide()
        if decision not in (NOOP, DELTA, FULL):
            raise ValueError(f"trigger returned unknown decision {decision!r}")
        self._epochs += 1

        solved = None
        if decision != NOOP:
            reset = getattr(self.solver, "reset_incremental_state", None)
            if decision == FULL and reset is not None:
                reset()
            solved = self.solver.solve(topology, solve_on)
            for arr in solved.assignment.per_pair:
                self.digest.update(arr.tobytes())
            if self.delay_actuation and self._current and not topology_changed:
                self._pending = solved
            else:
                self._current = solved

        per_pair = self._current.assignment.per_pair
        for k, count in enumerate(np.diff(actual.table.offsets)):
            if per_pair[k].size != count:
                raise ValueError(
                    "interval matrices must keep flow identities "
                    f"(site pair {k} changed size)"
                )
        realized = replace(self._current, demands=actual)
        return Epoch(decision, solved, realized, simulate(topology, realized))
