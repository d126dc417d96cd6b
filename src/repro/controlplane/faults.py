"""Deterministic fault injection for the bottom-up sync plane.

The paper's availability story (§3.2, Figs. 14/16) rests on endpoints
pulling versioned configs from a sharded KV store — which only holds up
in production if the loop survives the store misbehaving.  This module
makes the misbehaviour a first-class, *seeded* input:

* a :class:`FaultPlan` describes, per shard, crash/restart windows,
  latency inflation, transient read/write error rates, partition
  windows, and stale-replica lag;
* a :class:`FaultyTEDatabase` wraps a :class:`~.database.TEDatabase`
  behind the same ``put`` / ``put_many`` / ``get`` / ``get_version`` /
  ``check_version`` / ``commit_version`` interface, so every existing
  caller (agents, controller, benches) runs under faults without
  modification;
* with a null plan the wrapper is behaviour-identical to the inner
  database.

Everything is deterministic: fault windows are fixed numbers, error
draws come from a counter-indexed hash of the plan seed (no global RNG,
no wall clock), and time is the caller-supplied ``now`` — so any chaos
run replays bit-for-bit from its seed.

Fault evaluation order for one operation on shard ``s`` at time ``t``:

1. **partition** — ``s`` unreachable during a partition window: the
   query never reaches the shard (:class:`ShardPartitioned`, no
   capacity charge);
2. **crash** — ``t`` inside a crash window: :class:`ShardUnavailable`
   (no capacity charge, the shard is down);
3. **capacity** — the query reaches the shard and is charged against
   its per-second budget (may raise
   :class:`~.database.QueryRejected`);
4. **timeout** — injected latency above the wrapper's per-op timeout:
   :class:`ShardTimeout` (charged — the shard did the work, the caller
   gave up);
5. **transient error** — seeded per-op coin against the shard's
   read/write error rate: :class:`TransientShardError` (charged);
6. **staleness** — during a stale window, or after a crash until the
   shard is reconciled, reads serve the lagged replica view (values may
   be old, versions may run *backwards*).

What a shard's committed version vouches for — every config write the
controller issued for that version or an older one is readable there —
survives all of it, because a lagged view answers the committed version
from the same cutoff as the keys: a stale window shows the commit log as
of its cutoff; a restarted shard vouches only for what its replica had
until :meth:`FaultyTEDatabase.reconcile` catches it up; and a key
evacuated by :meth:`FaultyTEDatabase.reshard` answers with its crashed
home's replica-visible commit until it is rewritten or sent home.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .database import (
    VERSION_KEY,
    ShardStats,
    SyncError,
    TEDatabase,
    _record_query,
)

__all__ = [
    "FaultWindow",
    "ShardFaults",
    "FaultPlan",
    "FaultStats",
    "FaultyTEDatabase",
    "ShardUnavailable",
    "ShardPartitioned",
    "ShardTimeout",
    "TransientShardError",
    "deterministic_uniform",
    "wrap_database",
]

#: Default per-operation timeout budget (seconds): injected latency at or
#: above this makes the caller give up on the query.
DEFAULT_OP_TIMEOUT_S = 1.0

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer — a stable, fast 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def deterministic_uniform(seed: int, *tokens: int) -> float:
    """A uniform draw in ``[0, 1)`` fully determined by its arguments.

    Unlike ``random.Random`` there is no hidden stream state: the same
    ``(seed, tokens)`` always yields the same number, independent of
    call order, process, or ``PYTHONHASHSEED`` — the backbone of seeded
    fault coins and of the agents' deterministic retry jitter.
    """
    h = _mix64(seed & _MASK64)
    for token in tokens:
        h = _mix64(h ^ (token & _MASK64))
    return h / 2.0**64


class ShardUnavailable(SyncError):
    """The shard is crashed (inside a :class:`FaultWindow`)."""


class ShardPartitioned(SyncError):
    """The shard is unreachable during a network partition window."""


class ShardTimeout(SyncError):
    """Injected latency exceeded the per-operation timeout budget."""


class TransientShardError(SyncError):
    """A seeded transient read/write failure (retry may succeed)."""


@dataclass(frozen=True)
class FaultWindow:
    """A half-open time window ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window must not end before it starts")

    def contains(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class ShardFaults:
    """One shard's fault schedule.

    Attributes:
        crash_windows: Windows during which the shard is down; every
            query raises :class:`ShardUnavailable`.  After a crash
            window ends the shard restarts from a replica lagging
            ``stale_lag_s`` behind the crash start, so reads serve old
            values (versions can go backwards) until the shard is
            reconciled.
        extra_latency_s: Injected latency added to every operation; at
            or above the wrapper's per-op timeout this turns every query
            into a :class:`ShardTimeout`.  (Sub-timeout latency is
            currently absorbed — the model is a pass/timeout gate.)
        latency_windows: When non-empty, the latency inflation applies
            only inside these windows (a slow shard, not a dead one);
            empty means the inflation holds for the whole run.
        read_error_rate: Probability a read fails transiently.
        write_error_rate: Probability a write fails transiently.
        stale_lag_s: Replica lag in seconds (crash restores and stale
            windows serve state as of ``now - stale_lag_s``).
        stale_windows: Windows during which reads are served by the
            lagged replica even without a crash.
    """

    crash_windows: tuple[FaultWindow, ...] = ()
    extra_latency_s: float = 0.0
    latency_windows: tuple[FaultWindow, ...] = ()
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    stale_lag_s: float = 0.0
    stale_windows: tuple[FaultWindow, ...] = ()

    def latency_at(self, now: float) -> float:
        """Injected latency in effect at ``now``."""
        if self.extra_latency_s <= 0.0:
            return 0.0
        if not self.latency_windows:
            return self.extra_latency_s
        if any(w.contains(now) for w in self.latency_windows):
            return self.extra_latency_s
        return 0.0

    def is_null(self) -> bool:
        return (
            not self.crash_windows
            and self.extra_latency_s == 0.0
            and self.read_error_rate == 0.0
            and self.write_error_rate == 0.0
            and self.stale_lag_s == 0.0
            and not self.stale_windows
        )


_NULL_SHARD_FAULTS = ShardFaults()


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one chaos run.

    Attributes:
        seed: Seed for the per-operation error coins (and for
            :meth:`generate`, the schedule itself).
        shards: Per-shard fault schedules (shards not listed are
            fault-free).
        partitions: ``(window, unreachable shard ids)`` pairs — during
            the window, queries to those shards raise
            :class:`ShardPartitioned`.
    """

    seed: int = 0
    shards: Mapping[int, ShardFaults] = field(default_factory=dict)
    partitions: tuple[tuple[FaultWindow, frozenset[int]], ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The null plan: a wrapped database behaves identically."""
        return cls()

    def is_null(self) -> bool:
        return not self.partitions and all(
            f.is_null() for f in self.shards.values()
        )

    def shard(self, shard: int) -> ShardFaults:
        return self.shards.get(shard, _NULL_SHARD_FAULTS)

    def partitioned(self, shard: int, now: float) -> bool:
        return any(
            window.contains(now) and shard in unreachable
            for window, unreachable in self.partitions
        )

    def crashed(self, shard: int, now: float) -> bool:
        return any(
            w.contains(now) for w in self.shard(shard).crash_windows
        )

    def last_crash_before(
        self, shard: int, now: float
    ) -> FaultWindow | None:
        """The most recent crash window that ended at or before ``now``."""
        ended = [
            w for w in self.shard(shard).crash_windows if w.end <= now
        ]
        return max(ended, key=lambda w: w.end) if ended else None

    @classmethod
    def generate(
        cls,
        seed: int,
        num_shards: int,
        horizon_s: float,
        intensity: float = 0.5,
    ) -> "FaultPlan":
        """Draw a random plan of the given intensity, deterministically.

        ``intensity`` in ``[0, 1]`` scales both how *likely* each fault
        class is per shard and how *severe* it is (window length, error
        rate, lag).  Intensity 0 returns the null plan.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if intensity == 0.0:
            return cls(seed=seed)
        rng = np.random.default_rng(seed)
        shards: dict[int, ShardFaults] = {}
        for shard in range(num_shards):
            faults = ShardFaults()
            if rng.uniform() < 0.6 * intensity:
                start = rng.uniform(0.1, 0.6) * horizon_s
                length = rng.uniform(0.05, 0.25) * horizon_s * intensity
                faults = replace(
                    faults,
                    crash_windows=(
                        FaultWindow(start, min(start + length, horizon_s)),
                    ),
                )
            if rng.uniform() < 0.5 * intensity:
                start = rng.uniform(0.0, 0.7) * horizon_s
                length = rng.uniform(0.05, 0.3) * horizon_s * intensity
                faults = replace(
                    faults,
                    extra_latency_s=float(
                        rng.uniform(0.0, 2.0) * intensity
                    ),
                    latency_windows=(
                        FaultWindow(start, min(start + length, horizon_s)),
                    ),
                )
            if rng.uniform() < 0.7 * intensity:
                faults = replace(
                    faults,
                    read_error_rate=float(
                        rng.uniform(0.0, 0.5) * intensity
                    ),
                    write_error_rate=float(
                        rng.uniform(0.0, 0.3) * intensity
                    ),
                )
            if rng.uniform() < 0.4 * intensity:
                start = rng.uniform(0.0, 0.8) * horizon_s
                length = rng.uniform(0.05, 0.3) * horizon_s
                faults = replace(
                    faults,
                    stale_lag_s=float(rng.uniform(5.0, 60.0) * intensity),
                    stale_windows=(
                        FaultWindow(start, min(start + length, horizon_s)),
                    ),
                )
            elif faults.crash_windows and rng.uniform() < 0.5:
                # Crash restores alone can also come up stale.
                faults = replace(
                    faults,
                    stale_lag_s=float(rng.uniform(5.0, 30.0) * intensity),
                )
            if not faults.is_null():
                shards[shard] = faults
        partitions: list[tuple[FaultWindow, frozenset[int]]] = []
        if num_shards > 1 and rng.uniform() < 0.3 * intensity:
            start = rng.uniform(0.0, 0.7) * horizon_s
            length = rng.uniform(0.05, 0.2) * horizon_s
            cut = rng.choice(
                num_shards,
                size=max(1, num_shards // 2),
                replace=False,
            )
            partitions.append(
                (
                    FaultWindow(start, min(start + length, horizon_s)),
                    frozenset(int(s) for s in cut),
                )
            )
        return cls(seed=seed, shards=shards, partitions=tuple(partitions))


@dataclass
class FaultStats:
    """Counts of injected failures, by class.

    Attributes:
        unavailable: Queries dropped on crashed shards.
        partitioned: Queries dropped during partition windows.
        timeouts: Queries abandoned to injected latency.
        read_errors: Transient read failures injected.
        write_errors: Transient write failures injected.
        stale_reads: Reads served from a lagged replica view.
        resharded_keys: Keys migrated away from crashed shards.
        reconciled_keys: Keys restored to fresh state on reconcile.
    """

    unavailable: int = 0
    partitioned: int = 0
    timeouts: int = 0
    read_errors: int = 0
    write_errors: int = 0
    stale_reads: int = 0
    resharded_keys: int = 0
    reconciled_keys: int = 0

    @property
    def total_injected(self) -> int:
        return (
            self.unavailable
            + self.partitioned
            + self.timeouts
            + self.read_errors
            + self.write_errors
        )


@dataclass
class _LogEntry:
    time: float
    version: int
    value: Any


class FaultyTEDatabase:
    """A :class:`TEDatabase` seen through a seeded fault plan.

    Drop-in for the inner database: same ``put`` / ``put_many`` /
    ``get`` / ``get_version`` / ``check_version`` / ``commit_version``
    signatures
    plus the introspection surface, so agents, the controller, and the
    benches run under faults unchanged.
    With :meth:`FaultPlan.none` the wrapper delegates straight through
    and is behaviour-identical.

    Beyond injection, the wrapper supports the recovery actions the
    failover orchestrator drives:

    * :meth:`reshard` migrates keys homed on currently-crashed shards
      to the next live shard (replica-side restore, no capacity
      charge) and routes subsequent queries there;
    * :meth:`reconcile` runs when a shard restarts: re-applies the
      newest logged value for every key homed there (clearing
      stale-replica version regressions) and returns migrated keys to
      their home shard.

    Args:
        inner: The wrapped database.
        plan: The fault schedule.
        timeout_s: Per-operation timeout budget; injected latency at or
            above it raises :class:`ShardTimeout`.
    """

    def __init__(
        self,
        inner: TEDatabase,
        plan: FaultPlan | None = None,
        timeout_s: float = DEFAULT_OP_TIMEOUT_S,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        self.inner = inner
        self.plan = plan or FaultPlan.none()
        self.timeout_s = timeout_s
        self.injected = FaultStats()
        #: Write log: key -> [(time, version, value)] in time order.
        #: This is the model's stand-in for the replication stream —
        #: stale reads and crash restores are views into it.
        self._log: dict[Hashable, list[_LogEntry]] = {}
        #: Commit log: per shard, the commits that landed there.
        self._commits: list[list[_LogEntry]] = [
            [] for _ in range(inner.num_shards)
        ]
        #: Keys routed away from their hash-home shard by reshard().
        self._overrides: dict[Hashable, int] = {}
        #: Home shard -> the oldest replica cutoff its evacuated keys
        #: were restored from (cleared when the shard is reconciled).
        self._evacuation_cutoff: dict[int, float] = {}
        #: Shard -> time of the last reconcile (clears crash staleness).
        self._reconciled_at: dict[int, float] = {}
        self._op_counter = 0

    # -- passthrough surface -------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.inner.num_shards

    @property
    def shard_capacity_qps(self) -> int:
        return self.inner.shard_capacity_qps

    @property
    def enforce_capacity(self) -> bool:
        return self.inner.enforce_capacity

    @property
    def total_capacity_qps(self) -> int:
        return self.inner.total_capacity_qps

    def stats(self, shard: int) -> ShardStats:
        return self.inner.stats(shard)

    def total_queries(self) -> int:
        return self.inner.total_queries()

    def peak_qps(self) -> int:
        return self.inner.peak_qps()

    def reset_load_accounting(self) -> None:
        self.inner.reset_load_accounting()

    def committed_version(self, shard: int) -> int:
        return self.inner.committed_version(shard)

    # -- fault checks --------------------------------------------------------

    def shard_of(self, key: Hashable) -> int:
        """Effective shard: the hash home unless resharded away."""
        home = self.inner.shard_of(key)
        return self._overrides.get(key, home)

    def shard_down(self, shard: int, now: float) -> bool:
        """Is the shard crashed at ``now``?  (Partition ≠ down.)"""
        return self.plan.crashed(shard, now)

    def shard_reachable(self, shard: int, now: float) -> bool:
        """Can a query reach the shard at ``now``?"""
        return not (
            self.plan.partitioned(shard, now)
            or self.plan.crashed(shard, now)
        )

    def shard_healthy(self, shard: int, now: float) -> bool:
        """Reachable and answering within the timeout budget at ``now``.

        This is what a health probe sees: crashed, partitioned, and
        timing-out shards all look dead from the outside.
        """
        return (
            self.shard_reachable(shard, now)
            and self.plan.shard(shard).latency_at(now) < self.timeout_s
        )

    def crashed_shards(self, now: float) -> list[int]:
        return [
            s for s in range(self.num_shards) if self.shard_down(s, now)
        ]

    def unhealthy_shards(self, now: float) -> list[int]:
        return [
            s
            for s in range(self.num_shards)
            if not self.shard_healthy(s, now)
        ]

    def _check_faults(self, shard: int, now: float, op: str) -> None:
        """Run the injection gauntlet; raises or returns normally."""
        plan = self.plan
        write = op in ("put", "commit_version")
        if plan.partitioned(shard, now):
            self.injected.partitioned += 1
            raise ShardPartitioned(
                f"shard {shard} unreachable (partition) at t={now:.3f}s"
            )
        faults = plan.shard(shard)
        if any(w.contains(now) for w in faults.crash_windows):
            self.injected.unavailable += 1
            raise ShardUnavailable(
                f"shard {shard} crashed at t={now:.3f}s"
            )
        # The query reached the shard: charge capacity.
        self.inner.account(shard, now)
        _record_query(op)
        latency = faults.latency_at(now)
        if latency >= self.timeout_s:
            self.injected.timeouts += 1
            raise ShardTimeout(
                f"shard {shard} latency {latency:.3f}s "
                f"exceeds the {self.timeout_s:.3f}s budget"
            )
        rate = (
            faults.write_error_rate if write else faults.read_error_rate
        )
        if rate > 0.0:
            self._op_counter += 1
            coin = deterministic_uniform(
                plan.seed, shard, self._op_counter
            )
            if coin < rate:
                if write:
                    self.injected.write_errors += 1
                    raise TransientShardError(
                        f"transient write error on shard {shard} "
                        f"at t={now:.3f}s"
                    )
                self.injected.read_errors += 1
                raise TransientShardError(
                    f"transient read error on shard {shard} "
                    f"at t={now:.3f}s"
                )

    def _stale_view(
        self, shard: int, now: float
    ) -> tuple[float, float | None] | None:
        """The lagged replica view, if the shard is serving one.

        Returns ``(cutoff, restart)``: writes at or before ``cutoff``
        are visible, plus (when ``restart`` is not None) writes at or
        after ``restart`` — i.e. everything accepted since the shard
        came back.  ``None`` means the shard serves fresh state.
        """
        faults = self.plan.shard(shard)
        if faults.stale_lag_s <= 0.0:
            return None
        if any(w.contains(now) for w in faults.stale_windows):
            return now - faults.stale_lag_s, None
        crash = self.plan.last_crash_before(shard, now)
        if crash is not None and (
            self._reconciled_at.get(shard, float("-inf")) < crash.end
        ):
            return crash.start - faults.stale_lag_s, crash.end
        return None

    def _stale_entry(
        self,
        key: Hashable,
        cutoff: float,
        restart: float | None,
    ) -> _LogEntry | None:
        """Newest log entry of ``key`` visible under a lagged replica view."""
        return self._visible(self._log.get(key), cutoff, restart)

    @staticmethod
    def _visible(
        entries: list[_LogEntry] | None,
        cutoff: float,
        restart: float | None,
    ) -> _LogEntry | None:
        """Newest of ``entries`` written at or before ``cutoff`` or, when
        ``restart`` is given, at or after it."""
        if not entries:
            return None
        if restart is not None:
            for entry in reversed(entries):
                if entry.time >= restart:
                    return entry
                if entry.time <= cutoff:
                    return entry
            return None
        idx = bisect.bisect_right(
            [e.time for e in entries], cutoff
        )
        return entries[idx - 1] if idx else None

    # -- the TEDatabase interface --------------------------------------------

    def put(self, key: Hashable, value: Any, now: float = 0.0) -> int:
        """Store a value; returns the stored version.

        Raises:
            SyncError: any injected fault or capacity rejection.
        """
        return self.put_many((key,), (value,), now=now)[0]

    def put_many(
        self,
        keys: Sequence[Hashable],
        values: Sequence[Any],
        now: float = 0.0,
    ) -> list[int]:
        """Store ``values[i]`` under ``keys[i]``, in order; the versions.

        :meth:`put` once per key: under the null plan one
        :meth:`TEDatabase.put_many`, otherwise each key through the
        injection gauntlet in turn, stopping at the first failure.

        Raises:
            SyncError: any injected fault or capacity rejection; its
                ``stored`` lists the versions of the keys stored before
                it.
        """
        if len(keys) != len(values):
            raise ValueError("put_many needs one value per key")
        if self.plan.is_null() and not self._overrides:
            try:
                versions = self.inner.put_many(keys, values, now=now)
            except SyncError as exc:
                self._log_puts(keys, values, exc.stored, now)
                raise
            self._log_puts(keys, values, versions, now)
            return versions
        versions = []
        for key, value in zip(keys, values):
            try:
                versions.append(self._put_through_faults(key, value, now))
            except SyncError as exc:
                exc.stored = versions
                raise
        return versions

    def _log_puts(
        self,
        keys: Sequence[Hashable],
        values: Sequence[Any],
        versions: Sequence[int],
        now: float,
    ) -> None:
        """Append stored writes to the write log (``versions`` may cover
        only a prefix of ``keys``)."""
        for key, value, version in zip(keys, values, versions):
            self._log.setdefault(key, []).append(
                _LogEntry(time=now, version=version, value=value)
            )

    def _put_through_faults(self, key: Hashable, value: Any, now: float) -> int:
        """One write through the injection gauntlet, logged; its version."""
        shard = self.shard_of(key)
        self._check_faults(shard, now, "put")
        # Version numbers come from the write log, not the physical
        # copy: a key re-homed from a stale replica carries an old
        # version, and deriving the next version from it would hand
        # out numbers the key has already used.
        entries = self._log.get(key)
        logged = entries[-1].version if entries else 0
        stored = self.inner._data[shard].get(key)
        current = stored.version if stored else 0
        version = max(logged, current) + 1
        self.inner.write_to_shard(
            shard, key, value, now=now, version=version, account=False
        )
        self._log_puts((key,), (value,), (version,), now)
        return version

    def get(self, key: Hashable, now: float = 0.0) -> tuple[Any, int]:
        """Read ``(value, version)`` — possibly a lagged replica view.

        Raises:
            KeyError: unknown key (in the visible view).
            SyncError: any injected fault or capacity rejection.
        """
        if self.plan.is_null() and not self._overrides:
            return self.inner.get(key, now=now)
        shard = self.shard_of(key)
        self._check_faults(shard, now, "get")
        view = self._stale_view(shard, now)
        if view is not None:
            self.injected.stale_reads += 1
            entry = self._stale_entry(key, *view)
            if entry is None:
                raise KeyError(key)
            return entry.value, entry.version
        stored = self.inner._data[shard][key]
        return stored.value, stored.version

    def get_version(self, key: Hashable, now: float = 0.0) -> int:
        """Read only the version (0 for unseen keys).

        Raises:
            SyncError: any injected fault or capacity rejection.
        """
        if key == VERSION_KEY:
            return self.check_version(key, now=now)[0]
        if self.plan.is_null() and not self._overrides:
            return self.inner.get_version(key, now=now)
        shard = self.shard_of(key)
        self._check_faults(shard, now, "get_version")
        return self._versions_on(shard, key, now)[1]

    def check_version(
        self, key: Hashable, now: float = 0.0
    ) -> tuple[int, int]:
        """``(committed, key_version)`` from the shard answering for
        ``key`` — both through the same, possibly lagged, view.

        Raises:
            SyncError: any injected fault or capacity rejection.
        """
        if self.plan.is_null() and not self._overrides:
            return self.inner.check_version(key, now=now)
        shard = self.shard_of(key)
        self._check_faults(shard, now, "check_version")
        committed, key_version = self._versions_on(shard, key, now)
        if key in self._overrides and (
            key_version != self._log[key][-1].version
        ):
            # An evacuated key not rewritten since: the copy is what
            # its crashed home's replica had, so only the commits that
            # replica had seen vouch for it.
            home = self.inner.shard_of(key)
            seen = self._visible(
                self._commits[home], self._evacuation_cutoff[home], None
            )
            committed = min(committed, seen.version if seen else 0)
        return committed, key_version

    def _versions_on(
        self, shard: int, key: Hashable, now: float
    ) -> tuple[int, int]:
        """``(committed, version of key)`` as ``shard`` serves them."""
        view = self._stale_view(shard, now)
        if view is None:
            stored = self.inner._data[shard].get(key)
            return (
                self.inner.committed_version(shard),
                stored.version if stored else 0,
            )
        self.injected.stale_reads += 1
        # The commit is read at the cutoff alone: a restarted shard may
        # have lost config writes a later commit would vouch for.
        commit = self._visible(self._commits[shard], view[0], None)
        entry = self._stale_entry(key, *view)
        return (
            commit.version if commit else 0,
            entry.version if entry else 0,
        )

    def commit_version(self, version: int, now: float = 0.0) -> None:
        """Mark ``version`` committed on every shard that can be reached.

        Raises:
            SyncError: the first injected fault or capacity rejection,
                after every shard was tried.
        """
        null = self.plan.is_null()
        failure = None
        for shard in range(self.num_shards):
            try:
                if not null:
                    self._check_faults(shard, now, "commit_version")
                self.inner.commit_to_shard(
                    shard, version, now=now, account=null
                )
            except SyncError as exc:
                failure = failure or exc
                continue
            self._commits[shard].append(
                _LogEntry(time=now, version=version, value=None)
            )
        if failure is not None:
            raise failure

    # -- recovery actions ----------------------------------------------------

    def _next_healthy_shard(self, home: int, now: float) -> int | None:
        for step in range(1, self.num_shards):
            candidate = (home + step) % self.num_shards
            if self.shard_healthy(candidate, now):
                return candidate
        return None

    def reshard(
        self, now: float, shards: Iterable[int] | None = None
    ) -> int:
        """Migrate keys away from unhealthy shards.

        For each key physically stored on an unhealthy shard, the
        newest replica-visible value is written to the next healthy
        shard, versions preserved, and subsequent queries for the key
        are routed there.  For a crashed shard the replica view is the
        write log up to ``crash_start - stale_lag_s``; for a shard that
        is merely unreachable or slow (partition, latency) the replica
        is fully caught up.  Replica-side restores run out of band (no
        capacity charge).

        Args:
            shards: Explicit shards to evacuate (e.g. the set a
                :class:`~.watcher.ShardHealthMonitor` declared down);
                defaults to every currently-unhealthy shard.

        Returns:
            Number of keys migrated.
        """
        evacuate = (
            list(shards)
            if shards is not None
            else self.unhealthy_shards(now)
        )
        moved = 0
        for shard in evacuate:
            faults = self.plan.shard(shard)
            crash = next(
                (
                    w
                    for w in faults.crash_windows
                    if w.contains(now)
                ),
                None,
            )
            cutoff = (
                crash.start - faults.stale_lag_s
                if crash is not None
                else now
            )
            target = self._next_healthy_shard(shard, now)
            if target is None:
                continue  # every shard is down; nothing to move to
            for key in self.inner.shard_keys(shard):
                if self.shard_of(key) != shard:
                    # A leftover physical copy (e.g. from an earlier
                    # migration); routing no longer points here, so
                    # there is nothing to evacuate.
                    continue
                entry = self._stale_entry(key, cutoff, None)
                if entry is None:
                    continue  # nothing replicated before the crash
                self.inner.write_to_shard(
                    target,
                    key,
                    entry.value,
                    now=now,
                    version=entry.version,
                    account=False,
                )
                self._overrides[key] = target
                home = self.inner.shard_of(key)
                self._evacuation_cutoff[home] = min(
                    cutoff, self._evacuation_cutoff.get(home, cutoff)
                )
                moved += 1
        self.injected.resharded_keys += moved
        return moved

    def reconcile(self, shard: int, now: float) -> int:
        """Bring a restarted shard back to fresh, authoritative state.

        Re-applies the newest logged value for every key homed on the
        shard (clearing any stale-replica version regression), returns
        keys that were resharded away, and marks the shard caught up so
        reads stop serving the lagged view.

        Returns:
            Number of keys restored.
        """
        restored = 0
        for key, entries in self._log.items():
            if self.inner.shard_of(key) != shard:
                continue
            newest = entries[-1]
            current = self.inner._data[shard].get(key)
            if current is None or current.version != newest.version:
                self.inner.write_to_shard(
                    shard,
                    key,
                    newest.value,
                    now=now,
                    version=newest.version,
                    account=False,
                )
                restored += 1
            if key in self._overrides:
                target = self._overrides.pop(key)
                if target != shard:
                    self.inner.drop_from_shard(target, key)
        # Sweep leftover copies of keys that belong elsewhere (left by
        # evacuations into this shard that have since been reversed).
        for key in self.inner.shard_keys(shard):
            if (
                self.inner.shard_of(key) != shard
                and self._overrides.get(key) != shard
            ):
                self.inner.drop_from_shard(shard, key)
        self._evacuation_cutoff.pop(shard, None)
        self._reconciled_at[shard] = now
        self.injected.reconciled_keys += restored
        return restored

    def reconcile_restarted(self, now: float) -> list[int]:
        """Reconcile every shard that recovered since its last reconcile.

        Covers crash restarts (stale-replica state to clear) and shards
        that went merely unhealthy (partitioned, slow) while their keys
        were evacuated — once healthy again, migrated keys come home.
        """
        done = []
        override_homes = {
            self.inner.shard_of(key) for key in self._overrides
        }
        for shard in range(self.num_shards):
            if not self.shard_healthy(shard, now):
                continue
            crash = self.plan.last_crash_before(shard, now)
            needs_crash_heal = crash is not None and (
                self._reconciled_at.get(shard, float("-inf"))
                < crash.end
            )
            if needs_crash_heal or shard in override_homes:
                self.reconcile(shard, now)
                done.append(shard)
        return done


def wrap_database(
    database: TEDatabase | FaultyTEDatabase,
    plan: FaultPlan | None = None,
    timeout_s: float = DEFAULT_OP_TIMEOUT_S,
) -> FaultyTEDatabase:
    """Wrap a database in a fault plan (idempotent on wrappers)."""
    if isinstance(database, FaultyTEDatabase):
        if plan is not None:
            database.plan = plan
        return database
    return FaultyTEDatabase(database, plan=plan, timeout_s=timeout_s)
