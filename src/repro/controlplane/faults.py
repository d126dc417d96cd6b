"""Deterministic fault injection for the bottom-up sync plane.

The paper's availability story (§3.2, Figs. 14/16) rests on endpoints
pulling versioned configs from a sharded KV store — which only holds up
in production if the loop survives the store misbehaving.  This module
makes the misbehaviour a first-class, *seeded* input: a
:class:`FaultPlan` describes, per shard, crash/restart windows, latency
inflation, transient read/write error rates, partition windows, and
stale-replica lag.  :func:`FaultyTEDatabase` attaches a plan to the one
:class:`~.database.TEDatabase` as a hook every query consults, so agents,
the controller and the benches run under faults unchanged; the null
plan attaches no hook at all.

Everything is deterministic: fault windows are fixed numbers, error
draws come from a counter-indexed hash of the plan seed (no global RNG,
no wall clock), and time is the caller-supplied ``now`` — so any chaos
run replays bit-for-bit from its seed.

Fault evaluation order for one operation on shard ``s`` at time ``t``
(:meth:`FaultPlan.admit`, then :meth:`FaultPlan.view`):

1. **partition** — ``s`` is unreachable: :class:`ShardPartitioned`;
2. **crash** — ``s`` is down: :class:`ShardUnavailable`;
3. **capacity** — the query reached ``s`` and is charged against its
   per-second budget (:class:`~.database.QueryRejected`);
4. **timeout** — injected latency at or above the store's per-op
   timeout: :class:`ShardTimeout` (the shard did the work);
5. **transient error** — a seeded coin against the shard's read/write
   error rate: :class:`TransientShardError`;
6. **staleness** — during a stale window, or after a crash until the
   shard is reconciled, reads serve a lagged replica: values may be
   old and versions may run *backwards*, but the committed version is
   read from the same cutoff, so a shard never vouches for a config it
   cannot serve (``docs/ARCHITECTURE.md``, *Failure model*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .. import checks
from .database import (
    DEFAULT_OP_TIMEOUT_S,
    FaultStats,
    SyncError,
    TEDatabase,
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
        checks.finite("FaultWindow.start", self.start)
        checks.finite("FaultWindow.end", self.end, allow_inf=True)  # never
        if self.end < self.start:
            raise ValueError("window must not end before it starts")

    def contains(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class ShardFaults:
    """One shard's fault schedule.

    Attributes:
        crash_windows: Windows during which the shard is down.  After
            one ends the shard restarts from a replica lagging
            ``stale_lag_s`` behind the crash start, and serves it until
            reconciled.
        extra_latency_s: Injected latency per operation: at or above
            the store's timeout every query times out; below, it is
            absorbed (a pass/timeout gate).
        latency_windows: When non-empty, the only windows the latency
            applies in (a slow shard, not a dead one).
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

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate"):
            checks.fraction(f"ShardFaults.{name}", getattr(self, name))
        # inf latency or lag means "forever".
        for name in ("extra_latency_s", "stale_lag_s"):
            checks.nonnegative(
                f"ShardFaults.{name}", getattr(self, name), allow_inf=True
            )

    def latency_at(self, now: float) -> float:
        """Injected latency in effect at ``now``."""
        if self.extra_latency_s <= 0.0 or (
            self.latency_windows
            and not any(w.contains(now) for w in self.latency_windows)
        ):
            return 0.0
        return self.extra_latency_s

    def is_null(self) -> bool:
        return (
            not self.crash_windows
            and not self.stale_windows
            and self.extra_latency_s == self.stale_lag_s == 0.0
            and self.read_error_rate == self.write_error_rate == 0.0
        )


_NULL_SHARD_FAULTS = ShardFaults()


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one chaos run.

    Attributes:
        seed: Seed for the error coins (and :meth:`generate`'s draws).
        shards: Per-shard fault schedules (unlisted shards: none).
        partitions: ``(window, unreachable shard ids)`` pairs — during
            the window, those shards raise :class:`ShardPartitioned`.
    """

    seed: int = 0
    shards: Mapping[int, ShardFaults] = field(default_factory=dict)
    partitions: tuple[tuple[FaultWindow, frozenset[int]], ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The null plan: a store it is attached to behaves identically."""
        return cls()

    def is_null(self) -> bool:
        return not self.partitions and all(f.is_null() for f in self.shards.values())

    def shard(self, shard: int) -> ShardFaults:
        return self.shards.get(shard, _NULL_SHARD_FAULTS)

    def partitioned(self, shard: int, now: float) -> bool:
        return any(
            window.contains(now) and shard in unreachable
            for window, unreachable in self.partitions
        )

    def crashed(self, shard: int, now: float) -> bool:
        return any(w.contains(now) for w in self.shard(shard).crash_windows)

    def healthy(self, shard: int, now: float, timeout_s: float) -> bool:
        """Reachable and answering within ``timeout_s`` at ``now``."""
        return (
            not self.partitioned(shard, now)
            and not self.crashed(shard, now)
            and self.shard(shard).latency_at(now) < timeout_s
        )

    def last_crash_before(self, shard: int, now: float) -> FaultWindow | None:
        """The most recent crash window that ended at or before ``now``."""
        ended = [w for w in self.shard(shard).crash_windows if w.end <= now]
        return max(ended, key=lambda w: w.end) if ended else None

    # -- the hook the store consults -----------------------------------------

    def admit(self, store: TEDatabase, shard: int, now: float, op: str) -> None:
        """Let one ``op`` query reach ``shard`` of ``store`` — charging
        its capacity and drawing its coin — or raise its injected fault,
        in the order of the module docstring."""
        injected = store.injected
        if self.partitioned(shard, now):
            injected.partitioned += 1
            raise ShardPartitioned(
                f"shard {shard} unreachable (partition) at t={now:.3f}s"
            )
        faults = self.shard(shard)
        if any(w.contains(now) for w in faults.crash_windows):
            injected.unavailable += 1
            raise ShardUnavailable(f"shard {shard} crashed at t={now:.3f}s")
        store._charge(shard, now, op)
        latency = faults.latency_at(now)
        if latency >= store.timeout_s:
            injected.timeouts += 1
            raise ShardTimeout(
                f"shard {shard} latency {latency:.3f}s "
                f"exceeds the {store.timeout_s:.3f}s budget"
            )
        write = op in ("put", "commit_version")
        rate = faults.write_error_rate if write else faults.read_error_rate
        if rate > 0.0:
            store._op_counter += 1
            coin = deterministic_uniform(self.seed, shard, store._op_counter)
            if coin < rate:
                if write:
                    injected.write_errors += 1
                else:
                    injected.read_errors += 1
                raise TransientShardError(
                    f"transient {'write' if write else 'read'} error on "
                    f"shard {shard} at t={now:.3f}s"
                )

    def view(self, shard: int, now: float) -> tuple[float, float | None] | None:
        """The lagged replica ``shard`` serves at ``now``: None (fresh),
        or ``(cutoff, restart)`` — writes at or before ``cutoff`` are
        visible, and when ``restart`` is not None so is everything
        written since the shard came back, until the store reconciles
        it."""
        faults = self.shard(shard)
        if faults.stale_lag_s <= 0.0:
            return None
        if any(w.contains(now) for w in faults.stale_windows):
            return now - faults.stale_lag_s, None
        crash = self.last_crash_before(shard, now)
        if crash is None:
            return None
        return crash.start - faults.stale_lag_s, crash.end

    def crash_cutoff(self, shard: int, now: float) -> float | None:
        """The replica cutoff of the crash ``shard`` is in at ``now``
        (its start minus the lag), or None when the shard is up."""
        faults = self.shard(shard)
        starts = [w.start for w in faults.crash_windows if w.contains(now)]
        return starts[0] - faults.stale_lag_s if starts else None

    def oldest_cutoff(self, shard: int, now: float, reconciled_at: float) -> float:
        """The oldest cutoff :meth:`view` or :meth:`crash_cutoff` can
        still return for ``shard`` at ``now`` or later, the shard last
        reconciled at ``reconciled_at``: windows that ended by ``now``
        ask for nothing more, except the last crash until a reconcile
        follows its restart."""
        faults = self.shard(shard)
        lag = faults.stale_lag_s
        cutoffs = [w.start - lag for w in faults.crash_windows if w.end > now]
        if lag > 0.0:
            stale = [w for w in faults.stale_windows if w.end > now]
            cutoffs += [max(w.start, now) - lag for w in stale]
            crash = self.last_crash_before(shard, now)
            if crash is not None and reconciled_at < crash.end:
                cutoffs.append(crash.start - lag)
        return min(cutoffs, default=math.inf)

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
        checks.fraction("intensity", intensity)
        checks.in_range("num_shards", num_shards, 1, math.inf, "[)")
        checks.positive("horizon_s", horizon_s)
        if intensity == 0.0:
            return cls(seed=seed)
        rng = np.random.default_rng(seed)

        def window(first, last, shortest, longest, scale=1.0):
            start = rng.uniform(first, last) * horizon_s
            length = rng.uniform(shortest, longest) * horizon_s * scale
            return FaultWindow(start, min(start + length, horizon_s))

        def scaled(low, high):
            return float(rng.uniform(low, high) * intensity)

        shards: dict[int, ShardFaults] = {}
        for shard in range(num_shards):
            drawn: dict = {}
            if rng.uniform() < 0.6 * intensity:
                crash = window(0.1, 0.6, 0.05, 0.25, intensity)
                drawn["crash_windows"] = (crash,)
            if rng.uniform() < 0.5 * intensity:
                slow = window(0.0, 0.7, 0.05, 0.3, intensity)
                drawn["latency_windows"] = (slow,)
                drawn["extra_latency_s"] = scaled(0.0, 2.0)
            if rng.uniform() < 0.7 * intensity:
                drawn["read_error_rate"] = scaled(0.0, 0.5)
                drawn["write_error_rate"] = scaled(0.0, 0.3)
            if rng.uniform() < 0.4 * intensity:
                drawn["stale_windows"] = (window(0.0, 0.8, 0.05, 0.3),)
                drawn["stale_lag_s"] = scaled(5.0, 60.0)
            elif "crash_windows" in drawn and rng.uniform() < 0.5:
                # Crash restores alone can also come up stale.
                drawn["stale_lag_s"] = scaled(5.0, 30.0)
            faults = ShardFaults(**drawn)
            if not faults.is_null():
                shards[shard] = faults
        partitions: list[tuple[FaultWindow, frozenset[int]]] = []
        if num_shards > 1 and rng.uniform() < 0.3 * intensity:
            span = window(0.0, 0.7, 0.05, 0.2)
            cut = rng.choice(
                num_shards, size=max(1, num_shards // 2), replace=False
            )
            partitions.append((span, frozenset(int(s) for s in cut)))
        return cls(seed=seed, shards=shards, partitions=tuple(partitions))


def FaultyTEDatabase(
    inner: TEDatabase,
    plan: FaultPlan | None = None,
    timeout_s: float = DEFAULT_OP_TIMEOUT_S,
) -> TEDatabase:
    """Attach ``plan`` (default: the null plan) to ``inner`` and return
    it: every query it serves goes through the plan from then on, its
    injected latency held against ``timeout_s`` (positive, not NaN)."""
    inner._attach(plan or FaultPlan.none(), timeout_s)
    return inner


def wrap_database(
    database: TEDatabase,
    plan: FaultPlan | None = None,
    timeout_s: float = DEFAULT_OP_TIMEOUT_S,
) -> TEDatabase:
    """Attach a fault plan to a store (idempotent: a store that has one
    keeps it, and its timeout, unless a new plan is given)."""
    if database.plan is None:
        return FaultyTEDatabase(database, plan, timeout_s)
    if plan is not None:
        database._attach(plan, database.timeout_s)
    return database
