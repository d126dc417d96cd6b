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

Faults are a hook this one store consults (:mod:`.faults`): an attached
:class:`~.faults.FaultPlan` admits or fails every query, and may serve
it from a lagged replica — a view into the per-key history and
per-shard commit log the store keeps, trimmed to what a view can still
ask for, only while a plan is attached.  Without one, each query costs
one ``is None`` test more than a plain store.

A query's accounting is one per-second bucket on its shard
(:meth:`TEDatabase._charge`); a shard's ``queries`` and ``peak_qps`` are
derived from those buckets when read.  Buckets more than
:data:`LOAD_WINDOW_S` behind the newest second charged on their shard
are folded into per-shard totals, so a long-lived store keeps a bounded
number of them.
"""

from __future__ import annotations

import heapq
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Sequence

from .. import checks
from ..obs import get_registry

# The process-wide registry, read once: the same object every
# ``get_registry()`` returns and ``owned_registry`` toggles.
_registry = get_registry()

if TYPE_CHECKING:
    from .faults import FaultPlan

__all__ = [
    "FaultStats",
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

#: Default per-operation timeout budget (seconds): injected latency at or
#: above this makes the caller give up on the query.
DEFAULT_OP_TIMEOUT_S = 1.0


#: Queries per second one shard sustains (two shards -> 160k, §3.2).
SHARD_CAPACITY_QPS = 80_000

#: Seconds of per-second load a shard keeps behind the newest second
#: charged on it.  Older buckets are folded into the shard's totals; a
#: query for a second that far back is checked as its second's only
#: query (:meth:`TEDatabase._charge`).
LOAD_WINDOW_S = 3_600


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
    """Counters for one shard, as :meth:`TEDatabase.stats` reads them.

    Attributes:
        queries: Total queries served.
        rejected: Queries rejected for capacity.
        peak_qps: Highest observed per-second load.
    """

    queries: int = 0
    rejected: int = 0
    peak_qps: int = 0


@dataclass
class FaultStats:
    """What a fault plan did to the store, by class: queries failed
    (the first five, summed by :attr:`total_injected`), reads served
    from a lagged replica, keys re-sharded and keys reconciled."""

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
        failed = self.unavailable + self.partitioned + self.timeouts
        return failed + self.read_errors + self.write_errors


@dataclass(slots=True)
class _VersionedValue:
    value: Any
    version: int


_time = itemgetter(0)


def _newest(
    log: list[tuple] | None, cutoff: float, restart: float | None = None
) -> tuple | None:
    """Newest entry of a time-ordered log written at or before ``cutoff``
    or, when ``restart`` is given, at or after it."""
    if not log:
        return None
    if restart is not None and log[-1][0] >= restart:
        return log[-1]
    idx = bisect_right(log, cutoff, key=_time)
    return log[idx - 1] if idx else None


def _hash(key: Hashable) -> int:
    """A key's shard hash.

    String and bytes keys hash via CRC-32 rather than ``hash()``, whose
    per-process salt (``PYTHONHASHSEED``) would give every run a
    different key-to-shard layout — chaos runs and the CI seed matrix
    need layouts that replay across processes.
    """
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    return hash(key)


class TEDatabase:
    """Sharded versioned KV store with per-second capacity accounting.

    Args:
        num_shards: Shard count (paper deployment: 2).
        shard_capacity_qps: Per-shard sustainable queries per second.
        enforce_capacity: When True, queries beyond a shard's per-second
            capacity raise :class:`QueryRejected`; when False they are
            only counted (useful for offline load studies).

    Time is explicit: every operation takes a ``now`` timestamp (seconds),
    so simulations control the clock.  Under a fault plan it must not run
    backwards past a write — no operation earlier than a ``put`` or
    ``commit_version`` already served (reads may run ahead, as agents'
    retries do): the history is trimmed on that.

    Each query charges one per-second bucket of its shard; the shard's
    ``queries`` and ``peak_qps`` are derived from the buckets when
    :meth:`stats`, :meth:`total_queries` or :meth:`peak_qps` read them.
    A bucket more than :data:`LOAD_WINDOW_S` behind the newest second
    charged on its shard is folded into the shard's totals, which keeps
    those reads exact.  A query for a second already folded finds no
    bucket: it is admitted as the only query of its second, counts in
    ``queries``, and counts 1 toward ``peak_qps``.

    On a store with no plan and no routes, a ``str`` key's
    :meth:`check_version` (the one query of a warm poll) finds the shard
    and charges it itself; every other query goes through the routed,
    planned lookup.

    Attributes:
        plan: The :class:`~.faults.FaultPlan` attached by
            :func:`~.faults.FaultyTEDatabase`, or None.
        timeout_s: Per-operation budget the plan's latency is held to.
        injected: What the plan did to this store.
    """

    def __init__(
        self,
        num_shards: int = 2,
        shard_capacity_qps: int = SHARD_CAPACITY_QPS,
        enforce_capacity: bool = True,
    ) -> None:
        checks.in_range("num_shards", num_shards, 1, math.inf, "[)")
        # inf: no shard ever rejects for load.
        checks.in_range(
            "shard_capacity_qps", shard_capacity_qps, 1, math.inf, "[)",
            allow_inf=True,
        )
        self.num_shards = num_shards
        self.shard_capacity_qps = shard_capacity_qps
        self.enforce_capacity = enforce_capacity
        self._data: list[dict[Hashable, _VersionedValue]] = [
            {} for _ in range(num_shards)
        ]
        # The TE version last committed on each shard: shard state, not
        # a key, so re-sharding never has a copy of it to re-home.
        self._committed = [0] * num_shards
        self.reset_load_accounting()
        self.plan: FaultPlan | None = None
        self.timeout_s = DEFAULT_OP_TIMEOUT_S
        self.injected = FaultStats()
        self._hook: FaultPlan | None = None  # None under the null plan
        self._op_counter = 0  # the plan's coin draws
        # Key -> [(time, stored)] and shard -> [(time, version)] of its
        # commits, time-ordered: the replication stream lagged views read.
        self._history: dict[Hashable, list[tuple[float, _VersionedValue]]] = {}
        self._commits: list[list[tuple[float, int]]] = [
            [] for _ in range(num_shards)
        ]
        # The trim floor, and the write time it was computed for.
        self._floor = (math.nan, -math.inf)
        # Per hash home reshard() routed away, the shard answering for
        # it and its oldest replica cutoff; keys moved or first written
        # there since, to (their shard, their hash home); per shard, its
        # last reconcile.  Every override's home is routed.
        self._routes: dict[int, int] = {}
        self._evacuated: dict[int, float] = {}
        self._overrides: dict[Hashable, tuple[int, int]] = {}
        self._reconciled_at: dict[int, float] = {}

    def _attach(self, plan: FaultPlan, timeout_s: float) -> None:
        """Consult ``plan`` from now on (:mod:`.faults` calls this)."""
        checks.positive("timeout_s", timeout_s, allow_inf=True)  # never
        self.plan, self.timeout_s = plan, timeout_s
        self._hook = None if plan.is_null() else plan
        if self._hook is None:
            self._history = {}
            self._commits = [[] for _ in range(self.num_shards)]
        self._floor = (math.nan, -math.inf)

    @property
    def inner(self) -> TEDatabase:
        """The store a plan is attached to: this one."""
        return self

    # -- internals ----------------------------------------------------------

    def shard_of(self, key: Hashable) -> int:
        """The shard answering for ``key``: its hash home, unless
        :meth:`reshard` moved the key or routed the home away."""
        # _hash inlined: every query comes through here.
        if isinstance(key, str):
            h = zlib.crc32(key.encode("utf-8"))
        elif isinstance(key, bytes):
            h = zlib.crc32(key)
        else:
            h = hash(key)
        home = h % self.num_shards
        if self._routes:
            moved = self._overrides.get(key)
            return self._routes.get(home, home) if moved is None else moved[0]
        return home

    def _charge(self, shard: int, now: float, op: str) -> None:
        """Charge one ``op`` query to ``shard``'s capacity this second;
        over capacity, count it rejected and raise :class:`QueryRejected`."""
        second = int(now)  # NaN or inf raises: per-query, so not repro.checks
        loads = self._second_load[shard]
        attempted = loads.get(second, 0) + 1
        if attempted > self.shard_capacity_qps and self.enforce_capacity:
            self._rejected[shard] += 1
            if _registry.enabled:
                _registry.counter(
                    "megate_tedb_rejected_total",
                    "TE database queries rejected for shard capacity",
                ).inc()
            raise QueryRejected(f"shard {shard} over capacity at t={second}s")
        loads[second] = attempted
        if attempted == 1:
            self._open_second(shard, second)
        if _registry.enabled:
            _registry.counter(
                "megate_tedb_queries_total",
                "TE database queries served, by operation",
                labelnames=("op",),
            ).labels(op=op).inc()

    def _open_second(self, shard: int, second: int) -> None:
        """Track ``shard``'s new bucket for ``second``, and fold every
        bucket now more than :data:`LOAD_WINDOW_S` behind the newest."""
        opened = self._opened[shard]
        heapq.heappush(opened, second)
        newest = self._newest_second[shard] = max(
            self._newest_second[shard], second
        )
        loads = self._second_load[shard]
        while opened[0] < newest - LOAD_WINDOW_S:
            load = loads.pop(heapq.heappop(opened))
            self._folded_queries[shard] += load
            self._folded_peak[shard] = max(self._folded_peak[shard], load)

    def _admit(self, shard: int, now: float, op: str) -> None:
        """Charge one ``op`` query, through the plan's gauntlet if any."""
        if self._hook is None:
            self._charge(shard, now, op)
        else:
            self._hook.admit(self, shard, now, op)

    def _lookup(self, key: Hashable, now: float, op: str) -> tuple[int, Any]:
        """One ``op`` query for ``key``: ``(committed, stored key)`` as
        its shard serves them — live, or both through the same lagged
        view."""
        shard = self.shard_of(key)
        if self._hook is None:
            self._charge(shard, now, op)
            return self._committed[shard], self._data[shard].get(key)
        self._hook.admit(self, shard, now, op)
        committed, stored = self._committed[shard], self._data[shard].get(key)
        view = self._hook.view(shard, now)
        if view is not None and (
            view[1] is None
            or self._reconciled_at.get(shard, -math.inf) < view[1]
        ):
            self.injected.stale_reads += 1
            # The commit is read at the cutoff alone: a restarted shard
            # may have lost config writes a later commit would vouch for.
            commit = _newest(self._commits[shard], view[0])
            committed = commit[1] if commit else 0
            entry = _newest(self._history.get(key), *view)
            stored = entry[1] if entry else None
        log = self._history.get(key)
        version = stored.version if stored else 0
        if self._routes and log and version != log[-1][1].version:
            moved = self._overrides.get(key)
            home = moved[1] if moved else _hash(key) % self.num_shards
            if moved or home != shard:
                # A key of a routed home not rewritten since: the copy
                # (or its absence) is what the crashed home's replica
                # had, so only the commits that replica had seen vouch
                # for it.
                seen = _newest(self._commits[home], self._evacuated[home])
                committed = min(committed, seen[1] if seen else 0)
        return committed, stored

    def _append(self, log: list[tuple], entry: tuple, now: float) -> None:
        """Append to a time-ordered log and drop every entry older than
        the newest one at or before the floor: the oldest cutoff a view
        can still ask for once nothing is earlier than ``now``."""
        if self._floor[0] != now:
            reconciled = self._reconciled_at
            cutoffs = [
                self._hook.oldest_cutoff(s, now, reconciled.get(s, -math.inf))
                for s in range(self.num_shards)
            ]
            self._floor = now, min(cutoffs + list(self._evacuated.values()))
        log.append(entry)
        stale = bisect_right(log, self._floor[1], key=_time) - 1
        if stale > 0:
            del log[:stale]

    def _pin(self, key: Hashable, shard: int) -> None:
        """Override a key first written on the shard its home is routed
        to, so that :meth:`reconcile` sends it home."""
        home = _hash(key) % self.num_shards
        if home != shard and key not in self._overrides:
            self._overrides[key] = (shard, home)

    def _newest_stored(self, key: Hashable, shard: int) -> _VersionedValue:
        """The key's newest write: the history's, else ``shard``'s copy."""
        log = self._history.get(key)
        return log[-1][1] if log else self._data[shard][key]

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
        """:meth:`put` each ``values[i]`` under ``keys[i]``, in order;
        returns the new versions.

        Raises:
            SyncError: for the first key its shard rejects for capacity,
                or the plan fails.  The keys before it are stored (their
                versions are the error's ``stored``); the rest are not.
            ValueError: when ``keys`` and ``values`` differ in length.
        """
        if len(keys) != len(values):
            raise ValueError("put_many needs one value per key")
        versions: list[int] = []
        try:
            for key, value in zip(keys, values):
                shard = self.shard_of(key)
                self._admit(shard, now, "put")
                data = self._data[shard]
                existing = data.get(key)
                if existing is None and self._routes:
                    self._pin(key, shard)
                version = (existing.version + 1) if existing else 1
                log = None
                if self._hook is not None:
                    log = self._history.setdefault(key, [])
                    if log and log[-1][1].version >= version:
                        # A copy restored from a stale replica carries an
                        # old version; never hand out a used one again.
                        version = log[-1][1].version + 1
                stored = data[key] = _VersionedValue(value, version)
                if log is not None:
                    self._append(log, (now, stored), now)
                versions.append(version)
        except SyncError as exc:
            exc.stored = versions
            raise
        return versions

    def get(self, key: Hashable, now: float = 0.0) -> tuple[Any, int]:
        """Read ``(value, version)`` — under a plan, maybe a lagged one.

        Raises:
            KeyError: for a key the shard does not (visibly) hold.
            SyncError: when the shard rejects or the plan fails the query.
        """
        stored = self._lookup(key, now, "get")[1]
        if stored is None:
            raise KeyError(key)
        return stored.value, stored.version

    def get_version(self, key: Hashable, now: float = 0.0) -> int:
        """Read only a key's version (0 for unknown keys).

        For :data:`VERSION_KEY` this is the TE version committed on the
        shard that key hashes to.
        """
        if key == VERSION_KEY:
            return self.check_version(key, now=now)[0]
        stored = self._lookup(key, now, "get_version")[1]
        return stored.version if stored else 0

    def check_version(
        self, key: Hashable, now: float = 0.0
    ) -> tuple[int, int]:
        """The agents' freshness check: one query, no value.

        Returns ``(committed, key_version)`` from the shard answering
        for ``key``: the TE version last committed there, and the
        version of ``key`` itself (0 when the shard holds no such key).
        """
        if self._hook is None and not self._routes and isinstance(key, str):
            # shard_of and _lookup's plan-less branch, one frame up.
            shard = zlib.crc32(key.encode()) % self.num_shards
            self._charge(shard, now, "check_version")
            stored = self._data[shard].get(key)
            return self._committed[shard], stored.version if stored else 0
        committed, stored = self._lookup(key, now, "check_version")
        return committed, stored.version if stored else 0

    def commit_version(self, version: int, now: float = 0.0) -> None:
        """Mark TE version ``version`` committed on every shard.

        The publish step that follows the config writes: one write per
        shard, carrying the version number itself, so repeating it after
        a failure changes nothing on the shards it already reached.
        Every shard is tried before the first failure is raised
        (:class:`SyncError`); the others hold the commit.
        """
        failure = None
        for shard in range(self.num_shards):
            try:
                self._admit(shard, now, "commit_version")
            except SyncError as exc:
                failure = failure or exc
                continue
            self._committed[shard] = max(self._committed[shard], version)
            log = self._commits[shard]
            # A repeat of the last logged version changes no view.
            if self._hook is not None and (not log or log[-1][1] != version):
                self._append(log, (now, version), now)
        if failure is not None:
            raise failure

    def committed_version(self, shard: int) -> int:
        """The TE version committed on ``shard`` (no capacity charge)."""
        return self._committed[shard]

    # -- health and recovery -------------------------------------------------

    def unhealthy_shards(self, now: float) -> list[int]:
        """The shards a health probe finds unreachable or answering past
        the timeout at ``now``."""
        hook = self._hook
        return [
            s
            for s in range(self.num_shards)
            if hook is not None and not hook.healthy(s, now, self.timeout_s)
        ]

    def crashed_shards(self, now: float) -> list[int]:
        hook = self._hook
        return [s for s in range(self.num_shards) if hook and hook.crashed(s, now)]

    def reshard(
        self, now: float, shards: Iterable[int] | None = None
    ) -> int:
        """Move the keys ``shards`` (default: every unhealthy shard)
        answer for to the next healthy shard, out of band and versions
        preserved, and route their queries there — those of keys they
        have yet to hold too; returns how many keys moved.

        A crashed shard's keys move as its replica had them — the
        history up to ``crash_start - stale_lag_s``; a shard that is
        merely unreachable or slow hands over each key's newest write.
        """
        down = self.unhealthy_shards(now)
        moved = 0
        for shard in down if shards is None else shards:
            cutoff = self._hook and self._hook.crash_cutoff(shard, now)
            restored = now if cutoff is None else cutoff
            ring = [(shard + i) % self.num_shards for i in range(1, self.num_shards)]
            target = next((s for s in ring if s not in down), None)
            if target is None:
                continue  # every shard is down; nothing to move to
            if shard not in self._routes:
                # Its keys left behind (never written, or lost with the
                # crash) answer with what its replica had.
                self._evacuated[shard] = min(
                    restored, self._evacuated.get(shard, restored)
                )
            for key in list(self._data[shard]):
                if self.shard_of(key) != shard:
                    continue  # a leftover copy: routing points elsewhere
                if cutoff is None:
                    stored = self._newest_stored(key, shard)
                else:
                    entry = _newest(self._history.get(key), cutoff)
                    if entry is None:
                        continue  # nothing replicated before the crash
                    stored = entry[1]
                self._data[target][key] = stored
                home = self._overrides.get(key, (shard, shard))[1]
                self._overrides[key] = (target, home)
                self._evacuated[home] = min(
                    restored, self._evacuated.get(home, restored)
                )
                moved += 1
            # Route the shard's home, and the homes routed to it, on.
            self._routes[shard] = shard
            for home, via in self._routes.items():
                if via == shard:
                    self._routes[home] = target
        self.injected.resharded_keys += moved
        self._floor = (math.nan, -math.inf)
        return moved

    def reconcile(self, shard: int, now: float) -> int:
        """Bring a restarted shard back to fresh, authoritative state.

        Sends the keys evacuated from it home with their newest write,
        drops its copies of keys it no longer answers for, and marks it
        caught up, so reads stop serving the lagged view.  (A key that
        never left holds its newest write: a view lags, the data does
        not.)  Returns the number of keys restored.
        """
        data = self._data[shard]
        restored = 0
        for key, (target, home) in list(self._overrides.items()):
            if home != shard:
                continue
            newest = self._newest_stored(key, target)
            current = data.get(key)
            if current is None or current.version != newest.version:
                data[key] = newest
                restored += 1
            del self._overrides[key]
            if target != shard:
                self._data[target].pop(key, None)
        self._routes.pop(shard, None)
        for key in list(data):
            if self.shard_of(key) != shard:  # another shard's leftover copy
                del data[key]
        self._evacuated.pop(shard, None)
        self._reconciled_at[shard] = now
        self._floor = (math.nan, -math.inf)
        self.injected.reconciled_keys += restored
        return restored

    def reconcile_restarted(self, now: float) -> list[int]:
        """Reconcile each healthy shard restarted since its last reconcile
        or with keys evacuated (a passing partition or slowdown)."""
        down = self.unhealthy_shards(now)
        done = []
        for shard in range(self.num_shards):
            if shard in down:
                continue
            crash = self._hook and self._hook.last_crash_before(shard, now)
            if shard in self._routes or (
                crash is not None
                and self._reconciled_at.get(shard, -math.inf) < crash.end
            ):
                self.reconcile(shard, now)
                done.append(shard)
        return done

    # -- introspection -------------------------------------------------------

    @property
    def total_capacity_qps(self) -> int:
        """Aggregate sustainable qps — linear in shards (§3.2)."""
        return self.num_shards * self.shard_capacity_qps

    def stats(self, shard: int) -> ShardStats:
        """A snapshot of ``shard``'s counters, derived from its buckets
        when called: later queries do not update it."""
        loads = self._second_load[shard].values()
        return ShardStats(
            queries=self._folded_queries[shard] + sum(loads),
            rejected=self._rejected[shard],
            peak_qps=max(self._folded_peak[shard], max(loads, default=0)),
        )

    def total_queries(self) -> int:
        return sum(self.stats(s).queries for s in range(self.num_shards))

    def peak_qps(self) -> int:
        """Highest single-shard per-second load observed."""
        return max(self.stats(s).peak_qps for s in range(self.num_shards))

    def reset_load_accounting(self) -> None:
        """Clear the per-second buckets and every counter derived from
        them (keep data) between experiments."""
        n = self.num_shards
        self._second_load: list[dict[int, int]] = [{} for _ in range(n)]
        # Per shard: the seconds its buckets are for (a heap), the newest
        # second charged, the folded buckets' total and highest load,
        # and the queries rejected for capacity.
        self._opened: list[list[int]] = [[] for _ in range(n)]
        self._newest_second = [-math.inf] * n
        self._folded_queries = [0] * n
        self._folded_peak = [0] * n
        self._rejected = [0] * n
