"""The TE database's load accounting: per-second buckets, stats derived
from them on read, and the window that bounds how many it keeps.

:class:`ReferenceStore` below keeps one :class:`ShardStats` per shard
and updates it on every query, as the store once did, and reads every
key through the routed lookup; the property test runs random operation
sequences against both and compares every answer, every rejection and
every stat after every step.  The store's plan-less ``check_version``
finds a string key's shard itself, so the sequences use string keys
(that path) and integer keys (the routed lookup) alike.

The scheduled chaos CI lane raises the example budget through
``CHAOS_EXAMPLES``.
"""

from __future__ import annotations

import math
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.controlplane import QueryRejected, ShardStats, TEDatabase, VERSION_KEY
from repro.controlplane.database import LOAD_WINDOW_S

EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "100"))


class ReferenceStore(TEDatabase):
    """The store with the per-query bookkeeping it once had — one
    :class:`ShardStats` per shard, updated by every query — and its
    version check through the routed lookup."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shard_stats = [ShardStats() for _ in range(self.num_shards)]
        self.loads: list[dict[int, int]] = [{} for _ in range(self.num_shards)]

    def _charge(self, shard: int, now: float, op: str) -> None:
        second = int(now)
        attempted = self.loads[shard].get(second, 0) + 1
        stats = self.shard_stats[shard]
        if self.enforce_capacity and attempted > self.shard_capacity_qps:
            stats.rejected += 1
            raise QueryRejected(f"shard {shard} over capacity")
        self.loads[shard][second] = attempted
        stats.peak_qps = max(stats.peak_qps, attempted)
        stats.queries += 1

    def check_version(self, key, now=0.0):
        committed, stored = self._lookup(key, now, "check_version")
        return committed, stored.version if stored else 0


_keys = st.sampled_from(["a", "b", "cfg:7", "cfg:42", VERSION_KEY, 3, 11])
# A clock that mostly stays within a few seconds (so small capacities
# fill and commits land on some shards only) but may leap ahead by more
# than a window, and a query time up to one second short of a window
# behind it: every query lands in a second the store still holds a
# bucket for, or a newer one.
_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["put", "put_many", "get", "get_version", "check_version", "commit"]
        ),
        st.lists(_keys, min_size=1, max_size=3),
        st.sampled_from([0, 0, 0, 1, 2 * LOAD_WINDOW_S]),  # clock leap
        st.sampled_from([0, 0, 0, 1, LOAD_WINDOW_S - 1]),  # how far back
        st.sampled_from([0.0, 0.25, 0.5, 0.999]),
    ),
    max_size=40,
)


def _call(target, op: str, keys: list, now: float):
    """Run one operation on ``target``; its answer, or the type raised
    and, for a batch, what it stored first."""
    try:
        if op == "put":
            return target.put_many(keys[:1], ["v"], now)
        if op == "put_many":
            return target.put_many(keys, [f"v{i}" for i in range(len(keys))], now)
        if op == "get":
            return target.get(keys[0], now)
        if op == "get_version":
            return target.get_version(keys[0], now)
        if op == "check_version":
            return target.check_version(keys[0], now)
        return target.commit_version(len(keys), now)
    except QueryRejected as exc:
        return QueryRejected, list(getattr(exc, "stored", ()))
    except KeyError:
        return KeyError


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    num_shards=st.integers(1, 3),
    capacity=st.integers(1, 4),
    enforce=st.booleans(),
    ops=_ops,
)
# A commit that one shard rejects, then a check on that shard: it must
# answer its own shard's commit, not another's.
@example(
    num_shards=2,
    capacity=1,
    enforce=True,
    ops=[
        ("check_version", ["a"], 0, 0, 0.0),
        ("commit", ["a", "a"], 0, 0, 0.0),
        ("check_version", ["a"], 1, 0, 0.0),
    ],
)
def test_bucket_accounting_matches_per_query_stats(
    num_shards, capacity, enforce, ops
):
    store = TEDatabase(num_shards, capacity, enforce_capacity=enforce)
    reference = ReferenceStore(num_shards, capacity, enforce_capacity=enforce)
    clock = 0
    for op, keys, leap, behind, fraction in ops:
        clock += leap
        now = max(0, clock - behind) + fraction
        assert _call(store, op, keys, now) == _call(reference, op, keys, now)
        expected = reference.shard_stats
        assert [store.stats(s) for s in range(num_shards)] == expected
        assert store.total_queries() == sum(s.queries for s in expected)
        assert store.peak_qps() == max(s.peak_qps for s in expected)


class TestLoadWindow:
    def test_buckets_stay_bounded_over_a_long_run(self):
        """A store charged for 100 000 simulated seconds holds one
        window of buckets per shard, not one per second of its life."""
        db = TEDatabase(num_shards=2, enforce_capacity=False)
        keys = [
            next(k for k in map(str, range(99)) if db.shard_of(k) == s)
            for s in range(2)
        ]

        def run(start: int, stop: int) -> None:
            for t in range(start, stop):
                for key in keys:
                    db.check_version(key, now=t + 0.5)

        warm = 2 * LOAD_WINDOW_S
        tracemalloc.start()
        try:
            run(0, warm)
            settled = tracemalloc.get_traced_memory()[0]
            run(warm, 100_000)
            grown = tracemalloc.get_traced_memory()[0] - settled
        finally:
            tracemalloc.stop()
        assert grown < 4 * 1024
        held = [len(loads) for loads in db._second_load]
        assert held == [LOAD_WINDOW_S + 1] * 2
        assert db.total_queries() == 2 * 100_000
        assert db.peak_qps() == 1

    def test_folded_buckets_keep_stats_exact(self):
        db = TEDatabase(num_shards=1, shard_capacity_qps=3)
        for _ in range(3):
            db.check_version("k", now=10.0)
        with pytest.raises(QueryRejected):
            db.check_version("k", now=10.5)
        db.check_version("k", now=10.0 + 5 * LOAD_WINDOW_S)
        assert 10 not in db._second_load[0]  # folded
        assert db.stats(0) == ShardStats(queries=4, rejected=1, peak_qps=3)

    def test_second_at_the_window_edge_keeps_its_bucket(self):
        db = TEDatabase(num_shards=1, shard_capacity_qps=2)
        for _ in range(2):
            db.check_version("k", now=0.0)
        db.check_version("k", now=LOAD_WINDOW_S + 0.5)
        with pytest.raises(QueryRejected):
            db.check_version("k", now=0.5)

    def test_query_older_than_the_window_is_its_seconds_only_query(self):
        """A second folded away has no bucket: a late query for it is
        admitted as that second's only query, whatever the second's
        load was, and counts 1 toward the peak."""
        db = TEDatabase(num_shards=1, shard_capacity_qps=2)
        for _ in range(2):
            db.check_version("k", now=0.0)
        db.check_version("k", now=LOAD_WINDOW_S + 1.0)  # folds second 0
        for _ in range(3):  # over capacity for second 0, yet admitted
            assert db.check_version("k", now=0.5) == (0, 0)
        assert db.stats(0) == ShardStats(queries=6, rejected=0, peak_qps=2)
        assert 0 not in db._second_load[0]

    def test_reset_clears_buckets_and_folded_totals(self):
        db = TEDatabase(num_shards=2, shard_capacity_qps=1)
        db.check_version("k", now=0.0)
        with pytest.raises(QueryRejected):
            db.check_version("k", now=0.0)
        db.check_version("k", now=3.0 * LOAD_WINDOW_S)
        db.reset_load_accounting()
        assert db.total_queries() == 0
        assert db.peak_qps() == 0
        assert all(db.stats(s) == ShardStats() for s in range(2))
        assert db._second_load == [{}, {}]
        db.check_version("k", now=0.0)  # second 0's capacity is back
        assert db.total_queries() == 1

    def test_stats_is_a_snapshot(self):
        db = TEDatabase(num_shards=1)
        snapshot = db.stats(0)
        db.check_version("k", now=0.0)
        assert snapshot == ShardStats()
        assert db.stats(0).queries == 1


class TestClockValues:
    """A NaN or infinite ``now`` fails at the store's ``int(now)``, on
    the plan-less path too, before any state changes."""

    @pytest.mark.parametrize(
        "now, error", [(math.nan, ValueError), (math.inf, OverflowError)]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda db, now: db.check_version("k", now=now),
            lambda db, now: db.check_version(7, now=now),
            lambda db, now: db.get("k", now=now),
            lambda db, now: db.get_version("k", now=now),
            lambda db, now: db.put("k", "v2", now=now),
            lambda db, now: db.put_many(["k", "j"], [1, 2], now=now),
            lambda db, now: db.commit_version(2, now=now),
        ],
    )
    def test_non_finite_now_raises_before_any_state_changes(
        self, call, now, error
    ):
        db = TEDatabase(num_shards=2)
        db.put("k", "v", now=1.0)
        db.commit_version(1, now=1.0)

        def state():
            return (
                [dict(d) for d in db._data],
                [dict(loads) for loads in db._second_load],
                [db.stats(s) for s in range(2)],
                [db.committed_version(s) for s in range(2)],
            )

        before = state()
        with pytest.raises(error):
            call(db, now)
        assert state() == before
