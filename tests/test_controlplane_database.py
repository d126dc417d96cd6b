"""Tests for the sharded, versioned TE database."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane import (
    FaultPlan,
    FaultWindow,
    FaultyTEDatabase,
    QueryRejected,
    ShardFaults,
    SyncError,
    TEDatabase,
    VERSION_KEY,
)


class TestBasics:
    def test_put_get_roundtrip(self):
        db = TEDatabase()
        version = db.put("k", {"x": 1})
        value, got_version = db.get("k")
        assert value == {"x": 1}
        assert got_version == version == 1

    def test_version_increments(self):
        db = TEDatabase()
        assert db.put("k", "a") == 1
        assert db.put("k", "b") == 2
        value, version = db.get("k")
        assert value == "b" and version == 2

    def test_get_version_unknown_key_is_zero(self):
        db = TEDatabase()
        assert db.get_version("missing") == 0

    def test_get_unknown_key_raises(self):
        db = TEDatabase()
        with pytest.raises(KeyError):
            db.get("missing")

    def test_sharding_deterministic(self):
        db = TEDatabase(num_shards=4)
        assert db.shard_of("abc") == db.shard_of("abc")
        assert 0 <= db.shard_of("abc") < 4

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TEDatabase(num_shards=0)
        with pytest.raises(ValueError):
            TEDatabase(shard_capacity_qps=0)
        with pytest.raises(ValueError, match="shard_capacity_qps"):
            TEDatabase(shard_capacity_qps=float("nan"))
        # inf is "no limit": nothing is ever rejected.
        db = TEDatabase(num_shards=1, shard_capacity_qps=float("inf"))
        for _ in range(10):
            db.get_version("k", now=0.0)
        assert db.stats(0).rejected == 0


class TestCommittedVersion:
    def test_check_reports_commit_and_key_version_in_one_query(self):
        db = TEDatabase(num_shards=2)
        assert db.check_version("k") == (0, 0)
        db.put("k", "a")
        db.put("k", "b")
        db.commit_version(5)
        before = db.total_queries()
        assert db.check_version("k") == (5, 2)
        assert db.check_version("missing") == (5, 0)
        assert db.total_queries() == before + 2

    def test_commit_costs_one_write_per_shard_and_stores_no_key(self):
        db = TEDatabase(num_shards=3)
        db.commit_version(1, now=2.0)
        assert [db.stats(s).queries for s in range(3)] == [1, 1, 1]
        assert [db.committed_version(s) for s in range(3)] == [1, 1, 1]
        assert db._data == [{}, {}, {}]

    def test_version_key_reads_the_committed_version(self):
        db = TEDatabase(num_shards=2)
        assert db.get_version(VERSION_KEY) == 0
        db.commit_version(3)
        assert db.get_version(VERSION_KEY) == 3

    def test_commit_is_idempotent_and_never_lowers(self):
        db = TEDatabase(num_shards=2)
        db.commit_version(4)
        db.commit_version(4)
        db.commit_version(2)  # a late retry of an older publish
        assert db.check_version("k")[0] == 4

    def test_rejected_shard_is_skipped_not_fatal_to_the_rest(self):
        db = TEDatabase(num_shards=2, shard_capacity_qps=1)
        key = next(k for k in "abcdefgh" if db.shard_of(k) == 0)
        db.get_version(key, now=0.0)  # shard 0's second is spent
        with pytest.raises(QueryRejected):
            db.commit_version(1, now=0.0)
        assert [db.committed_version(s) for s in range(2)] == [0, 1]
        db.commit_version(1, now=1.0)  # the retry completes it
        assert [db.committed_version(s) for s in range(2)] == [1, 1]


class TestCapacityAccounting:
    def test_paper_capacity_default(self):
        db = TEDatabase(num_shards=2)
        assert db.total_capacity_qps == 160_000  # §3.2

    def test_linear_scaling(self):
        assert TEDatabase(num_shards=4).total_capacity_qps == 320_000

    def test_rejection_over_capacity(self):
        db = TEDatabase(num_shards=1, shard_capacity_qps=3)
        for _ in range(3):
            db.get_version("k", now=5.0)
        with pytest.raises(QueryRejected):
            db.get_version("k", now=5.2)

    def test_capacity_resets_next_second(self):
        db = TEDatabase(num_shards=1, shard_capacity_qps=2)
        db.get_version("k", now=1.0)
        db.get_version("k", now=1.5)
        # New second: fine again.
        db.get_version("k", now=2.0)

    def test_unenforced_mode_counts_only(self):
        db = TEDatabase(
            num_shards=1, shard_capacity_qps=1, enforce_capacity=False
        )
        for _ in range(10):
            db.get_version("k", now=0.0)
        assert db.stats(0).peak_qps == 10

    def test_stats(self):
        db = TEDatabase(num_shards=1)
        db.put("a", 1, now=0.0)
        db.get("a", now=0.0)
        db.get_version("a", now=0.5)
        assert db.total_queries() == 3
        assert db.peak_qps() == 3

    def test_reset_load_accounting_keeps_data(self):
        db = TEDatabase(num_shards=1)
        db.put("a", 42)
        db.reset_load_accounting()
        assert db.total_queries() == 0
        value, _ = db.get("a")
        assert value == 42

    def test_rejected_query_does_not_inflate_peak_qps(self):
        # Regression: a rejected query was counted into peak_qps even
        # though the shard never served it, so the reported peak could
        # exceed the shard's capacity.
        db = TEDatabase(num_shards=1, shard_capacity_qps=3)
        for _ in range(3):
            db.get_version("k", now=5.0)
        with pytest.raises(QueryRejected):
            db.get_version("k", now=5.5)
        stats = db.stats(0)
        assert stats.peak_qps == 3  # not 4
        assert stats.rejected == 1
        assert stats.queries == 3

    def test_rejections_do_not_consume_capacity(self):
        # Rejected queries leave the per-second bucket untouched: the
        # served count in one second never exceeds capacity, however
        # many attempts arrive.
        db = TEDatabase(num_shards=1, shard_capacity_qps=2)
        db.get_version("k", now=9.0)
        db.get_version("k", now=9.1)
        for _ in range(5):
            with pytest.raises(QueryRejected):
                db.get_version("k", now=9.2)
        assert db.stats(0).queries == 2
        assert db.stats(0).rejected == 5
        assert db.stats(0).peak_qps == 2


class TestShardAddressedAPI:
    """Copies on an explicit shard: ``reshard(shards=...)`` evacuates the
    named shards' keys to the next shard, and queries follow them."""

    def test_write_read_roundtrip_on_explicit_shard(self):
        db = TEDatabase(num_shards=4)
        home = db.shard_of("k")
        db.put("k", "v", now=0.0)
        assert db.reshard(now=0.0, shards=[home]) == 1
        target = db.shard_of("k")
        assert target == (home + 1) % 4
        # The plain API now routes to the copy, and charges that shard.
        assert db.get("k", now=1.0) == ("v", 1)
        assert db.stats(target).queries == 1
        assert db.stats(home).queries == 1

    def test_explicit_version_preserved(self):
        db = TEDatabase(num_shards=2)
        home = db.shard_of("k")
        for i in range(7):
            db.put("k", f"v{i}", now=float(i))
        db.reshard(now=7.0, shards=[home])
        assert db.get_version("k", now=8.0) == 7
        # The copy's entry increments from the preserved version.
        assert db.put("k", "new", now=9.0) == 8

    def test_unaccounted_write_skips_capacity(self):
        db = TEDatabase(num_shards=2, shard_capacity_qps=1)
        home = db.shard_of("k")
        other = 1 - home
        other_key = next(k for k in "abcdefgh" if db.shard_of(k) == other)
        db.put("k", "v", now=0.0)
        db.get_version(other_key, now=0.0)  # exhaust the target's second
        # A re-homing copy is out of band: no rejection, no query charged.
        assert db.reshard(now=0.0, shards=[home]) == 1
        assert db.total_queries() == 2
        with pytest.raises(QueryRejected):
            db.put("k", "v2", now=0.0)
        assert db.get("k", now=1.0) == ("v", 1)


class TestRehoming:
    """``reconcile`` on a store with no fault plan: keys an explicit
    evacuation re-homed go back to their hash home."""

    def test_reconcile_sends_keys_home_and_drops_the_copy(self):
        db = TEDatabase(num_shards=2)
        home = db.shard_of("k")
        db.put("k", "v", now=0.0)
        db.reshard(now=0.0, shards=[home])
        target = db.shard_of("k")
        db.put("k", "v2", now=1.0)  # lands on the copy
        assert db.reconcile_restarted(now=2.0) == [home]
        assert db.shard_of("k") == home
        assert db.get("k", now=2.0) == ("v2", 2)
        assert db._data[target] == {}
        assert db.reconcile_restarted(now=3.0) == []


class TestPutMany:
    """``put_many`` is ``put`` once per key, in order, as one call."""

    @staticmethod
    def _state(db: TEDatabase):
        return (
            db._data,
            [db.stats(s) for s in range(db.num_shards)],
            db._second_load,
        )

    @staticmethod
    def _put_each(write, keys, values, now):
        """One ``write(key, value, now)`` per key; stops at the first
        rejection, as the batch does."""
        versions = []
        for key, value in zip(keys, values):
            try:
                versions.append(write(key, value, now))
            except QueryRejected as exc:
                return versions, exc
        return versions, None

    @staticmethod
    def _one_by_one(num_shards, capacity, enforce) -> TEDatabase:
        """A store whose ``put_many`` admits one key at a time, as every
        ``put`` did before batching: one under a plan that never fires."""
        never = ShardFaults(crash_windows=(FaultWindow(1e9, 1e9),))
        return FaultyTEDatabase(
            TEDatabase(num_shards, capacity, enforce_capacity=enforce),
            FaultPlan(shards={0: never}),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        num_shards=st.integers(1, 4),
        capacity=st.integers(1, 6),
        enforce=st.booleans(),
        # Earlier writes, some in the batch's second: pre-existing keys
        # and a part-spent capacity budget.
        before=st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from([0.0, 1.5])),
            max_size=6,
        ),
        # A small key alphabet: duplicates within one batch are common.
        batch=st.lists(st.sampled_from("abcdefg"), max_size=12),
        now=st.sampled_from([0.0, 1.5, 2.0]),
    )
    def test_put_many_matches_put_loop(
        self, num_shards, capacity, enforce, before, batch, now
    ):
        bulk, each = (
            TEDatabase(num_shards, capacity, enforce_capacity=enforce)
            for _ in range(2)
        )
        oracle = self._one_by_one(num_shards, capacity, enforce)
        for db in (bulk, each, oracle):
            for i, (key, when) in enumerate(before):
                try:
                    db.put(key, -i, now=when)
                except QueryRejected:
                    pass
        values = list(range(len(batch)))
        want, rejection = self._put_each(each.put, batch, values, now)
        try:
            old, old_rejection = oracle.put_many(batch, values, now=now), None
        except QueryRejected as exc:
            old, old_rejection = list(exc.stored), exc
        assert (old, str(old_rejection)) == (want, str(rejection))
        if rejection is None:
            assert bulk.put_many(batch, values, now=now) == want
        else:
            with pytest.raises(QueryRejected) as raised:
                bulk.put_many(batch, values, now=now)
            assert str(raised.value) == str(rejection)
            assert list(raised.value.stored) == want
        assert self._state(bulk) == self._state(each) == self._state(oracle)
        assert bulk.peak_qps() == each.peak_qps()

    def test_rejection_mid_batch_stores_the_prefix(self):
        db = TEDatabase(num_shards=1, shard_capacity_qps=3)
        db.put("a", "old", now=4.0)
        with pytest.raises(QueryRejected) as raised:
            db.put_many(["a", "b", "a", "c"], [1, 2, 3, 4], now=4.5)
        assert isinstance(raised.value, SyncError)
        assert list(raised.value.stored) == [2, 1]
        assert db.get("a", now=5.0) == (1, 2)
        assert db.get_version("c", now=5.0) == 0
        assert db.stats(0).rejected == 1
        assert db.stats(0).peak_qps == 3

    def test_query_metric_counts_every_stored_key(self):
        def put_counts(write) -> tuple[float, float]:
            obs.reset()
            db = TEDatabase(num_shards=2, shard_capacity_qps=2)
            with pytest.raises(QueryRejected):
                write(db)
            snapshot = obs.get_registry().snapshot()
            return (
                snapshot["megate_tedb_queries_total"]["series"],
                snapshot["megate_tedb_rejected_total"]["series"],
            )

        keys = [f"k{i}" for i in range(6)]
        was = obs.telemetry_enabled()
        obs.set_enabled(True)
        try:
            bulk = put_counts(lambda db: db.put_many(keys, keys, now=0.0))
            each = put_counts(
                lambda db: [db.put(key, key, now=0.0) for key in keys]
            )
        finally:
            obs.set_enabled(was)
            obs.reset()
        assert bulk == each

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            TEDatabase().put_many(["a", "b"], [1])
