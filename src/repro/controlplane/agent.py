"""The endpoint agent: asynchronous, connectionless config pulls.

Each end host runs an agent (§3.2, Figure 4(b)).  On its polling slot the
agent issues one short-connection *version check* to the shard holding
its endpoint's config (:meth:`~.database.TEDatabase.check_version`).  The
answer carries the TE version committed on that shard, which the agent
adopts, and the version of its own config key; only when a new TE version
was committed *and* its key moved does it pull the configuration and
install the new paths into the host's ``path_map`` (the eBPF map the
TC-layer program reads — see :mod:`repro.dataplane`).  Most endpoints
keep their paths from one TE interval to the next, so most polls are that
one query.

Agents are assigned offsets that spread their polls uniformly over the
query window (e.g. 10 s), which is how two database shards absorb millions
of endpoints (§3.2).

Failure handling: a database query can fail — capacity rejection, or any
injected fault from :mod:`repro.controlplane.faults`.  An agent given a
:class:`RetryPolicy` retries with exponential backoff and *deterministic*
jitter (derived from the policy seed and the endpoint id — no global RNG,
so chaos runs replay exactly), under a per-poll wall-time budget.  When
the budget or the retry cap is exhausted the agent degrades gracefully:
it keeps serving its last-known-good config and tracks how stale that
config is, so callers can tell "fresh", "stale but inside the bound", and
"degraded" apart.  A check or a pull that comes back *older* than what
the agent already holds (a shard restored from a lagging replica) never
rolls the agent back: configs are monotone.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

from .. import checks
from ..obs import get_registry
from .controller import EndpointConfig, config_key
from .database import SyncError, TEDatabase
from .faults import deterministic_uniform

__all__ = ["EndpointAgent", "RetryPolicy"]

# The process-wide registry, read once (``owned_registry`` toggles this
# same object).
_registry = get_registry()
_INF = math.inf
_NEG_INF = -math.inf


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        max_retries: Extra attempts after the first failure.
        backoff_base_s: Delay before the first retry.
        backoff_multiplier: Growth factor per retry.
        backoff_cap_s: Upper bound on any single delay.
        jitter: Fractional jitter: each delay is scaled by a factor
            drawn uniformly from ``[1 - jitter, 1 + jitter]``.
        poll_budget_s: Total wall-time budget for one poll, backoff
            included; retries stop once the budget would be exceeded.
        seed: Seed for the jitter draws (combined with the endpoint id
            and attempt number, so a fleet never thunders in lockstep
            yet every run replays bit-for-bit).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 8.0
    jitter: float = 0.1
    poll_budget_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        checks.nonnegative("RetryPolicy.max_retries", self.max_retries)
        checks.nonnegative("RetryPolicy.backoff_base_s", self.backoff_base_s)
        checks.in_range(
            "RetryPolicy.backoff_multiplier", self.backoff_multiplier, 1, _INF, "[)"
        )
        checks.in_range("RetryPolicy.jitter", self.jitter, 0, 1, "[)")
        # inf: no cap on a delay, no budget for a poll.
        checks.nonnegative(
            "RetryPolicy.backoff_cap_s", self.backoff_cap_s, allow_inf=True
        )
        checks.positive(
            "RetryPolicy.poll_budget_s", self.poll_budget_s, allow_inf=True
        )

    def delay_s(self, attempt: int, token: int = 0) -> float:
        """The backoff before retry ``attempt`` (0-based), jittered."""
        raw = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_multiplier**attempt,
        )
        if self.jitter == 0.0:
            return raw
        u = deterministic_uniform(self.seed, token, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * u)


@dataclass(slots=True)
class EndpointAgent:
    """One end host's TE agent.

    Attributes:
        endpoint_id: The endpoint this agent serves.
        poll_period_s: Seconds between version checks.
        poll_offset_s: Phase within the period (spreads load).
        local_version: Newest TE version the agent knows its installed
            config to be current for.
        paths: Installed destination -> site-path mapping (the
            last-known-good config; never cleared on failure).  It is
            the pulled config's own ``paths``, kept, not copied: stored
            configs are immutable.
        on_install: Optional callback invoked with the new
            :class:`EndpointConfig` after an update (e.g. to program the
            data plane's ``path_map``).
        retry_policy: When set, failed polls are retried under the
            policy and never raise; when None (the default) a poll is a
            single attempt and database errors propagate — the
            pre-fault-injection behaviour.
        max_staleness_s: The agent's staleness bound: beyond this many
            seconds without a successful refresh the agent reports
            itself degraded (:meth:`is_degraded`) and
            :meth:`serving_paths` stops vouching for its config.
        last_refresh_s: Time of the last successful version check (the
            moment the agent last *knew* it was as fresh as its shard).
        failed_polls: Polls that exhausted retries (or the single
            attempt, under a policy) without reaching the database.
        retries: Individual retry attempts issued.
        version_regressions: Checks or pulls that came back older than
            what the agent holds (stale replica) and were ignored.
    """

    endpoint_id: int
    poll_period_s: float = 10.0
    poll_offset_s: float = 0.0
    local_version: int = 0
    paths: Mapping[int, tuple[str, ...]] = field(default_factory=dict)
    on_install: Callable[[EndpointConfig], None] | None = None
    retry_policy: RetryPolicy | None = None
    max_staleness_s: float = math.inf
    last_refresh_s: float = field(default=-math.inf, repr=False)
    failed_polls: int = 0
    retries: int = 0
    version_regressions: int = 0
    _last_poll_slot: int = field(default=-1, repr=False)
    _was_degraded: bool = field(default=False, repr=False)
    # Version of the config key as last installed (0: none yet).
    _installed_key_version: int = field(default=0, repr=False)
    _config_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Inline, not repro.checks: the fleet builds a million agents.
        # The sum is NaN or -inf when any schedule field is; only a
        # failure calls the module, which names the field.
        total = self.poll_period_s + self.poll_offset_s + self.max_staleness_s
        if not (total > _NEG_INF and 0 < self.poll_period_s < _INF):
            checks.positive("EndpointAgent.poll_period_s", self.poll_period_s)
            # inf: an agent that never polls, or never goes stale.
            for name in ("poll_offset_s", "max_staleness_s"):
                checks.finite(
                    f"EndpointAgent.{name}", getattr(self, name), allow_inf=True
                )
        # Every poll checks this key.
        self._config_key = config_key(self.endpoint_id)

    def next_poll_time(self, now: float) -> float:
        """The first scheduled poll at or after ``now``."""
        slot = int(
            max(0.0, (now - self.poll_offset_s)) // self.poll_period_s
        )
        t = self.poll_offset_s + slot * self.poll_period_s
        while t < now:
            t += self.poll_period_s
        return t

    # -- freshness -----------------------------------------------------------

    def staleness_s(self, now: float) -> float:
        """Seconds since the agent last confirmed freshness (inf if never)."""
        return now - self.last_refresh_s

    def is_degraded(self, now: float) -> bool:
        """Has the config outlived the agent's staleness bound?"""
        return self.staleness_s(now) > self.max_staleness_s

    def serving_paths(
        self, now: float
    ) -> Mapping[int, tuple[str, ...]] | None:
        """The installed paths, if still within the staleness bound.

        Degraded agents return ``None`` — the last-known-good config is
        still in :attr:`paths` for callers that prefer stale routing to
        no routing, but the agent no longer vouches for it.
        """
        return None if self.is_degraded(now) else self.paths

    # -- polling -------------------------------------------------------------

    def _poll_once(self, database: TEDatabase, now: float) -> str:
        """One check-and-maybe-pull attempt; database errors propagate.

        Returns the poll's outcome: ``"current"`` (nothing committed
        since the last poll), ``"unchanged"`` (a new version, but not
        for this endpoint), ``"installed"`` or ``"regressed"``.
        """
        committed, key_version = database.check_version(self._config_key, now)
        if (
            committed < self.local_version
            or key_version < self._installed_key_version
        ):
            # A shard restored from a stale replica is reporting an old
            # state.  Never roll back: keep last-known-good and do not
            # count this as a refresh (the read is provably stale).
            self.version_regressions += 1
            return "regressed"
        outcome = "current"
        if committed > self.local_version:
            outcome = "unchanged"
            # An endpoint that sources no flows has no config: key
            # version 0, nothing to pull, only the version to track.
            if key_version > self._installed_key_version:
                config, pulled = database.get(self._config_key, now=now)
                if pulled < key_version:
                    self.version_regressions += 1
                    return "regressed"
                self.paths = config.paths
                self._installed_key_version = pulled
                if self.on_install is not None:
                    self.on_install(config)
                outcome = "installed"
            self.local_version = committed
        self.last_refresh_s = now
        return outcome

    def poll(self, database: TEDatabase, now: float) -> bool:
        """Version-check and pull if this endpoint's config moved.

        With no :attr:`retry_policy` this is a single attempt and any
        :class:`~.database.SyncError` propagates.  With a policy, failed
        attempts are retried under backoff within the poll budget; when
        everything fails the agent keeps its last-known-good config and
        returns False (degradation is visible via :meth:`staleness_s` /
        :meth:`is_degraded`, never an exception).

        Returns:
            True when a new configuration was installed.
        """
        policy = self.retry_policy
        if policy is None:
            outcome = self._poll_once(database, now)
            # With no registry and no bound there is nothing to note:
            # an agent with an infinite bound is never degraded.
            if _registry.enabled or self.max_staleness_s != _INF:
                self._note_poll(outcome, now)
            return outcome == "installed"
        deadline = now + policy.poll_budget_s
        t = now
        for attempt in range(policy.max_retries + 1):
            try:
                outcome = self._poll_once(database, t)
                self._note_poll(outcome, t)
                return outcome == "installed"
            except SyncError:
                if attempt >= policy.max_retries:
                    break
                delay = policy.delay_s(attempt, token=self.endpoint_id)
                if t + delay > deadline:
                    break
                t += delay
                self.retries += 1
                if _registry.enabled:
                    _registry.counter(
                        "megate_agent_retries_total",
                        "Endpoint-agent poll retry attempts",
                    ).inc()
        self.failed_polls += 1
        self._note_poll("failed", now)
        return False

    def _note_poll(self, outcome: str, now: float) -> None:
        """Record one completed poll's outcome and freshness metrics."""
        degraded = self.is_degraded(now)
        newly_degraded = degraded and not self._was_degraded
        self._was_degraded = degraded
        registry = _registry
        if not registry.enabled:
            return
        registry.counter(
            "megate_agent_polls_total",
            "Endpoint-agent polls by outcome",
            labelnames=("outcome",),
        ).labels(outcome=outcome).inc()
        if outcome == "installed":
            registry.counter(
                "megate_agent_installs_total",
                "Endpoint configurations installed by agents",
            ).inc()
        staleness = self.staleness_s(now)
        if 0.0 <= staleness < math.inf:
            registry.histogram(
                "megate_agent_staleness_seconds",
                "Seconds since each polling agent last confirmed "
                "freshness (simulated clock)",
            ).observe(staleness)
        if newly_degraded:
            registry.counter(
                "megate_agent_degraded_transitions_total",
                "Agents crossing their staleness bound into degraded",
            ).inc()

    def maybe_poll(self, database: TEDatabase, now: float) -> bool:
        """Poll only when ``now`` lands on a new scheduled slot."""
        slot = int((now - self.poll_offset_s) // self.poll_period_s)
        if now < self.poll_offset_s or slot <= self._last_poll_slot:
            return False
        self._last_poll_slot = slot
        return self.poll(database, now)

    def path_to(self, dst_endpoint: int) -> tuple[str, ...] | None:
        """The installed site path toward a destination endpoint."""
        return self.paths.get(dst_endpoint)
