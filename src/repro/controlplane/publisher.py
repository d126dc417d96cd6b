"""Resumable config publishing through a (possibly faulty) TE store.

:class:`~repro.controlplane.controller.TEController` publishes a version
by writing every endpoint config first and committing the version on
every shard strictly last
(:meth:`~repro.controlplane.database.TEDatabase.commit_version`), so an
agent whose shard reports the new version is guaranteed to find that
shard's new configs.  Under injected store faults a publish can fail
*mid sequence*; :class:`ResumablePublisher` keeps that ordering
invariant while surviving the faults: failed writes stay queued and
resume on the next pump, a commit that reached only some shards is
repeated until it has reached all of them, and a newer publish
supersedes a stalled one.

A partial commit is safe.  A shard that holds the commit holds every
config of that version (they were all written before the first shard was
told), so its agents may move on while the others wait.

Shared by the chaos study (:mod:`repro.experiments.chaos_sync`) and the
soak engine (:mod:`repro.simulation.soak`), which both drive a fleet of
agents against a database under a fault plan on the simulated clock.
"""

from __future__ import annotations

from .controller import EndpointConfig, config_key
from .database import SyncError, TEDatabase

__all__ = ["ResumablePublisher"]


class ResumablePublisher:
    """Writes config versions through a faulty store, resumably.

    Mirrors the controller's write ordering — configs first, the commit
    strictly last — but survives mid-publish faults: failed writes stay
    queued and resume on the next tick.

    Attributes:
        published_version: Newest version whose commit was issued, so
            the newest an agent can have seen.  Shards the commit has
            not reached yet are retried on every pump.
    """

    def __init__(self, database: TEDatabase, num_agents: int) -> None:
        self.database = database
        self.num_agents = num_agents
        self.published_version = 0
        self._target_version = 0
        self._pending: list[int] = []
        self._commit_pending = False

    def start(self, version: int) -> None:
        """Queue a publish (supersedes any still-pending one)."""
        self._target_version = version
        self._pending = list(range(self.num_agents))
        self._commit_pending = True

    def pump(self, now: float, budget: int = 1000) -> None:
        """Push queued writes until one fails or the queue drains."""
        if not self._commit_pending:
            return
        wrote = 0
        while self._pending and wrote < budget:
            endpoint = self._pending[0]
            config = EndpointConfig(
                endpoint_id=endpoint,
                version=self._target_version,
                paths={
                    (endpoint + 1)
                    % self.num_agents: ("siteA", "siteB")
                },
            )
            try:
                self.database.put(
                    config_key(endpoint), config, now=now
                )
            except SyncError:
                return  # resume next tick
            self._pending.pop(0)
            wrote += 1
        if self._pending:
            return
        self.published_version = self._target_version
        try:
            self.database.commit_version(self._target_version, now=now)
        except SyncError:
            return  # the shards it missed are retried next tick
        self._commit_pending = False
