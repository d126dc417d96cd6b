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
from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

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


def _record_query(op: str, count: int = 1) -> None:
    """Count ``count`` served queries in the shared metrics registry."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "megate_tedb_queries_total",
        "TE database queries served, by operation",
        labelnames=("op",),
    ).labels(op=op).inc(count)

#: Queries per second one shard sustains (two shards -> 160k, §3.2).
SHARD_CAPACITY_QPS = 80_000


class SyncError(RuntimeError):
    """Base class for every sync-plane query failure.

    Agents and other database callers that want to survive *any* store
    failure — capacity rejection or an injected fault from
    :mod:`repro.controlplane.faults` — catch this one type.

    Attributes:
        stored: When raised by a ``put_many``, the versions of the keys
            it stored before failing — a prefix of its ``keys``.
    """

    stored: Sequence[int] = ()


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


@dataclass(slots=True)
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
            raise self._reject(shard, second)
        loads[second] = attempted
        stats.peak_qps = max(stats.peak_qps, attempted)
        stats.queries += 1

    def _reject(self, shard: int, second: int) -> QueryRejected:
        """Count one query ``shard`` refused for capacity; the error to raise.

        The shard never served it: the served-load counters (and
        peak_qps) stay untouched.
        """
        self._stats[shard].rejected += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "megate_tedb_rejected_total",
                "TE database queries rejected for shard capacity",
            ).inc()
        return QueryRejected(f"shard {shard} over capacity at t={second}s")

    # -- API ----------------------------------------------------------------

    def put(self, key: Hashable, value: Any, now: float = 0.0) -> int:
        """Store a value; returns the new monotonically increasing version.

        The store keeps ``value`` itself, not a copy, and hands that same
        object to every reader: a stored value must not be mutated.
        """
        return self.put_many((key,), (value,), now=now)[0]

    def put_many(
        self,
        keys: Sequence[Hashable],
        values: Sequence[Any],
        now: float = 0.0,
    ) -> list[int]:
        """Store ``values[i]`` under ``keys[i]``, in order, in one call.

        Exactly :meth:`put` once per key — the same versions (a key
        listed twice is written twice), query counts, per-second loads
        and ``peak_qps`` — for the cost of one pass.  Returns the new
        versions.

        Raises:
            QueryRejected: under ``enforce_capacity``, for the first key
                whose shard is over capacity this second.  The keys
                before it are stored (their versions are the error's
                ``stored``); it and the rest are not tried.
            ValueError: when ``keys`` and ``values`` differ in length.
        """
        if len(keys) != len(values):
            raise ValueError("put_many needs one value per key")
        shards = [self.shard_of(key) for key in keys]
        second = int(now)
        accepted = len(shards)
        if self.enforce_capacity:
            room = [
                self.shard_capacity_qps - loads.get(second, 0)
                for loads in self._second_load
            ]
            for i, shard in enumerate(shards):
                room[shard] -= 1
                if room[shard] < 0:
                    accepted = i
                    break
        served = shards[:accepted]
        for shard, count in Counter(served).items():
            # A shard's load only grows within the call, so its peak is
            # where the call leaves it.
            loads = self._second_load[shard]
            load = loads[second] = loads.get(second, 0) + count
            stats = self._stats[shard]
            stats.peak_qps = max(stats.peak_qps, load)
            stats.queries += count
        if accepted:
            _record_query("put", accepted)
        versions = []
        for key, value, shard in zip(keys, values, served):
            data = self._data[shard]
            existing = data.get(key)
            version = (existing.version + 1) if existing else 1
            data[key] = _VersionedValue(value=value, version=version)
            versions.append(version)
        if accepted < len(shards):
            error = self._reject(shards[accepted], second)
            error.stored = versions
            raise error
        return versions

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
