"""The TE database: a sharded, versioned in-memory key-value store.

MegaTE replaces the controller's millions of persistent connections with a
Redis-backed KV store the endpoints *pull* from (§3.2).  The paper's
deployment sustains "up to 160,000 concurrent queries per second using two
shards", scaling linearly with shards, and spreads endpoint queries over a
time window (e.g. 10 s) so the instantaneous load stays within capacity.

This model reproduces those mechanisms: hash sharding, per-second query
accounting against per-shard capacity, and versioned reads enabling the
cheap "is there anything new?" check of the bottom-up control loop.

That check is one value-free query, :meth:`TEDatabase.check_version`,
to the shard holding the asking endpoint's config.  It answers with two
numbers: the TE version the controller last *committed* on that shard
(:meth:`TEDatabase.commit_version` writes it onto every shard, after the
configs) and the version of the endpoint's own config key.  Both come
from one shard, so they cannot disagree about what that shard holds, and
the fleet's checks spread over the shards the way the config keys do —
no key is read by everyone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Hashable

from ..obs import get_registry

__all__ = [
    "ShardStats",
    "SyncError",
    "TEDatabase",
    "QueryRejected",
    "VERSION_KEY",
]

#: The published TE version, for tools and tests:
#: ``get_version(VERSION_KEY)`` answers the version committed on the
#: shard this key hashes to.  Nothing is stored under it.
VERSION_KEY = "te:version"


def _record_query(op: str) -> None:
    """Count one served query in the shared metrics registry."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "megate_tedb_queries_total",
        "TE database queries served, by operation",
        labelnames=("op",),
    ).labels(op=op).inc()

#: Queries per second one shard sustains (two shards -> 160k, §3.2).
SHARD_CAPACITY_QPS = 80_000


class SyncError(RuntimeError):
    """Base class for every sync-plane query failure.

    Agents and other database callers that want to survive *any* store
    failure — capacity rejection or an injected fault from
    :mod:`repro.controlplane.faults` — catch this one type.
    """


class QueryRejected(SyncError):
    """Raised when a shard's per-second query capacity is exhausted."""


@dataclass
class ShardStats:
    """Counters for one shard.

    Attributes:
        queries: Total queries served.
        rejected: Queries rejected for capacity.
        peak_qps: Highest observed per-second load.
    """

    queries: int = 0
    rejected: int = 0
    peak_qps: int = 0


@dataclass
class _VersionedValue:
    value: Any
    version: int


class TEDatabase:
    """Sharded versioned KV store with per-second capacity accounting.

    Args:
        num_shards: Shard count (paper deployment: 2).
        shard_capacity_qps: Per-shard sustainable queries per second.
        enforce_capacity: When True, queries beyond a shard's per-second
            capacity raise :class:`QueryRejected`; when False they are
            only counted (useful for offline load studies).

    Time is explicit: every operation takes a ``now`` timestamp (seconds),
    so simulations control the clock.
    """

    def __init__(
        self,
        num_shards: int = 2,
        shard_capacity_qps: int = SHARD_CAPACITY_QPS,
        enforce_capacity: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if shard_capacity_qps < 1:
            raise ValueError("shard capacity must be positive")
        self.num_shards = num_shards
        self.shard_capacity_qps = shard_capacity_qps
        self.enforce_capacity = enforce_capacity
        self._data: list[dict[Hashable, _VersionedValue]] = [
            {} for _ in range(num_shards)
        ]
        # The TE version last committed on each shard: shard state, not
        # a key, so re-sharding never has a copy of it to re-home.
        self._committed = [0] * num_shards
        self._stats = [ShardStats() for _ in range(num_shards)]
        self._second_load: list[dict[int, int]] = [
            {} for _ in range(num_shards)
        ]

    # -- internals ----------------------------------------------------------

    def shard_of(self, key: Hashable) -> int:
        """Deterministic shard assignment by key hash.

        String and bytes keys hash via CRC-32 rather than ``hash()``,
        whose per-process salt (``PYTHONHASHSEED``) would give every
        run a different key-to-shard layout — chaos runs and the CI
        seed matrix need layouts that replay across processes.
        """
        if isinstance(key, str):
            h = zlib.crc32(key.encode("utf-8"))
        elif isinstance(key, bytes):
            h = zlib.crc32(key)
        else:
            h = hash(key)
        return h % self.num_shards

    def _account(self, shard: int, now: float) -> None:
        second = int(now)
        loads = self._second_load[shard]
        attempted = loads.get(second, 0) + 1
        stats = self._stats[shard]
        if self.enforce_capacity and attempted > self.shard_capacity_qps:
            # The shard never served this query: count the rejection but
            # leave the served-load counters (and peak_qps) untouched.
            stats.rejected += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "megate_tedb_rejected_total",
                    "TE database queries rejected for shard capacity",
                ).inc()
            raise QueryRejected(
                f"shard {shard} over capacity at t={second}s"
            )
        loads[second] = attempted
        stats.peak_qps = max(stats.peak_qps, attempted)
        stats.queries += 1

    # -- API ----------------------------------------------------------------

    def put(self, key: Hashable, value: Any, now: float = 0.0) -> int:
        """Store a value; returns the new monotonically increasing version."""
        shard = self.shard_of(key)
        self._account(shard, now)
        _record_query("put")
        existing = self._data[shard].get(key)
        version = (existing.version + 1) if existing else 1
        self._data[shard][key] = _VersionedValue(value=value, version=version)
        return version

    def get(self, key: Hashable, now: float = 0.0) -> tuple[Any, int]:
        """Read ``(value, version)``.

        Raises:
            KeyError: for an unknown key.
            QueryRejected: when the shard is over capacity this second.
        """
        shard = self.shard_of(key)
        self._account(shard, now)
        _record_query("get")
        stored = self._data[shard][key]
        return stored.value, stored.version

    def get_version(self, key: Hashable, now: float = 0.0) -> int:
        """Read only a key's version (0 for unknown keys).

        For :data:`VERSION_KEY` this is the TE version committed on the
        shard that key hashes to.
        """
        if key == VERSION_KEY:
            return self.check_version(key, now=now)[0]
        shard = self.shard_of(key)
        self._account(shard, now)
        _record_query("get_version")
        stored = self._data[shard].get(key)
        return stored.version if stored else 0

    def check_version(
        self, key: Hashable, now: float = 0.0
    ) -> tuple[int, int]:
        """The agents' freshness check: one query, no value.

        Returns ``(committed, key_version)`` from the shard holding
        ``key``: the TE version last committed there, and the version
        of ``key`` itself (0 when the shard holds no such key).
        """
        shard = self.shard_of(key)
        self._account(shard, now)
        _record_query("check_version")
        stored = self._data[shard].get(key)
        return self._committed[shard], stored.version if stored else 0

    def commit_version(self, version: int, now: float = 0.0) -> None:
        """Mark TE version ``version`` committed on every shard.

        The publish step that follows the config writes: one write per
        shard, carrying the version number itself, so repeating it after
        a failure changes nothing on the shards it already reached.
        Every shard is tried before the first failure is raised.

        Raises:
            QueryRejected: when some shard was over capacity; the
                others hold the commit.
        """
        failure = None
        for shard in range(self.num_shards):
            try:
                self.commit_to_shard(shard, version, now=now)
            except SyncError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure

    # -- shard-addressed API -------------------------------------------------
    #
    # The plain API above routes every key through ``shard_of``.  Wrappers
    # that need to re-home keys (the fault-injection layer's re-sharding,
    # :func:`repro.controlplane.failover.orchestrate_shard_failover`)
    # address shards explicitly instead.  Semantics are identical to the
    # plain API when ``shard == shard_of(key)``.

    def account(self, shard: int, now: float) -> None:
        """Charge one query to ``shard``'s per-second capacity bucket.

        Raises:
            QueryRejected: when the shard is over capacity this second.
        """
        self._account(shard, now)

    def write_to_shard(
        self,
        shard: int,
        key: Hashable,
        value: Any,
        now: float = 0.0,
        version: int | None = None,
        account: bool = True,
    ) -> int:
        """Store ``key`` on an explicit shard.

        Args:
            version: Explicit version to store (replica restores and key
                migrations preserve versions); defaults to incrementing
                the shard's current entry.
            account: Charge the write against shard capacity.  Internal
                replica-side restores run out of band and pass False.
        """
        if account:
            self._account(shard, now)
        if version is None:
            existing = self._data[shard].get(key)
            version = (existing.version + 1) if existing else 1
        self._data[shard][key] = _VersionedValue(value=value, version=version)
        return version

    def read_from_shard(
        self, shard: int, key: Hashable, now: float = 0.0
    ) -> tuple[Any, int]:
        """Read ``(value, version)`` from an explicit shard."""
        self._account(shard, now)
        stored = self._data[shard][key]
        return stored.value, stored.version

    def version_from_shard(
        self, shard: int, key: Hashable, now: float = 0.0
    ) -> int:
        """Read only the version from an explicit shard (0 if absent)."""
        self._account(shard, now)
        stored = self._data[shard].get(key)
        return stored.version if stored else 0

    def commit_to_shard(
        self,
        shard: int,
        version: int,
        now: float = 0.0,
        account: bool = True,
    ) -> None:
        """Record ``version`` as committed on one shard (never lowers it)."""
        if account:
            self._account(shard, now)
            _record_query("commit_version")
        if version > self._committed[shard]:
            self._committed[shard] = version

    def committed_version(self, shard: int) -> int:
        """The TE version committed on ``shard`` (no capacity charge)."""
        return self._committed[shard]

    def shard_keys(self, shard: int) -> list[Hashable]:
        """Keys currently stored on ``shard`` (no capacity charge)."""
        return list(self._data[shard])

    def drop_from_shard(self, shard: int, key: Hashable) -> None:
        """Remove a key from an explicit shard (no capacity charge)."""
        self._data[shard].pop(key, None)

    # -- introspection -------------------------------------------------------

    @property
    def total_capacity_qps(self) -> int:
        """Aggregate sustainable qps — linear in shards (§3.2)."""
        return self.num_shards * self.shard_capacity_qps

    def stats(self, shard: int) -> ShardStats:
        return self._stats[shard]

    def total_queries(self) -> int:
        return sum(s.queries for s in self._stats)

    def peak_qps(self) -> int:
        """Highest single-shard per-second load observed."""
        return max((s.peak_qps for s in self._stats), default=0)

    def reset_load_accounting(self) -> None:
        """Clear per-second counters (keep data) between experiments."""
        self._second_load = [{} for _ in range(self.num_shards)]
        self._stats = [ShardStats() for _ in range(self.num_shards)]
