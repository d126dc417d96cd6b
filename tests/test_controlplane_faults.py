"""Tests for the deterministic fault-injection layer.

``CHAOS_EXAMPLES`` sets the Hypothesis budget of the store properties
(default 100), so the scheduled chaos CI lane can run more.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import (
    EndpointAgent,
    EndpointConfig,
    FaultPlan,
    FaultWindow,
    FaultyTEDatabase,
    QueryRejected,
    RetryPolicy,
    ShardFaults,
    ShardHealthMonitor,
    ShardPartitioned,
    ShardTimeout,
    ShardUnavailable,
    SyncError,
    TEDatabase,
    TransientShardError,
    VERSION_KEY,
    config_key,
    deterministic_uniform,
    orchestrate_shard_failover,
    wrap_database,
)


CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "100"))
NAN = float("nan")
INF = float("inf")


def _key_on_shard(db: TEDatabase, shard: int) -> str:
    """A key whose hash home is the given shard."""
    for i in range(10_000):
        key = f"k{i}"
        if db.shard_of(key) == shard:
            return key
    raise AssertionError("no key found")  # pragma: no cover


def _endpoint_on_shard(db: TEDatabase, shard: int) -> int:
    """An endpoint whose config key's hash home is the given shard."""
    return next(e for e in range(10_000) if db.shard_of(config_key(e)) == shard)


class TestDeterministicUniform:
    def test_stable_and_bounded(self):
        a = deterministic_uniform(7, 1, 2, 3)
        b = deterministic_uniform(7, 1, 2, 3)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_sensitive_to_every_token(self):
        base = deterministic_uniform(7, 1, 2)
        assert deterministic_uniform(8, 1, 2) != base
        assert deterministic_uniform(7, 2, 2) != base
        assert deterministic_uniform(7, 1, 3) != base

    def test_roughly_uniform(self):
        draws = [
            deterministic_uniform(0, i) for i in range(2000)
        ]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.5) < 0.05


class TestNullPlanEquivalence:
    def test_mirrored_operation_sequence(self):
        """A null-plan wrapper is behaviour-identical, op for op."""
        plain = TEDatabase(num_shards=2, shard_capacity_qps=100)
        wrapped = FaultyTEDatabase(
            TEDatabase(num_shards=2, shard_capacity_qps=100),
            FaultPlan.none(),
        )
        script = [
            ("put", "a", 1, 0.0),
            ("put", "b", 2, 0.0),
            ("get", "a", None, 0.5),
            ("get_version", "b", None, 0.5),
            ("get_version", "missing", None, 0.5),
            ("put", "a", 3, 1.0),
            ("get", "a", None, 1.0),
            ("check_version", "a", None, 1.0),
            ("commit_version", None, 1, 1.5),
            ("check_version", "a", None, 2.0),
            ("check_version", "missing", None, 2.0),
            ("commit_version", None, 1, 2.5),  # a retry changes nothing
            ("commit_version", None, 2, 3.0),
            ("check_version", "b", None, 3.5),
            ("get_version", VERSION_KEY, None, 3.5),
        ]
        for op, key, value, now in script:
            if op == "put":
                assert plain.put(key, value, now=now) == wrapped.put(
                    key, value, now=now
                )
            elif op == "commit_version":
                plain.commit_version(value, now=now)
                wrapped.commit_version(value, now=now)
            else:
                assert getattr(plain, op)(key, now=now) == getattr(
                    wrapped, op
                )(key, now=now)
        for shard in range(2):
            assert plain.stats(shard) == wrapped.stats(shard)
        assert plain.total_queries() == wrapped.total_queries()
        assert plain.peak_qps() == wrapped.peak_qps()
        assert wrapped.injected.total_injected == 0
        assert wrapped.check_version("b", now=4.0) == (2, 1)

    def test_commit_tries_every_shard_before_raising(self):
        wrapped = FaultyTEDatabase(
            TEDatabase(num_shards=3, shard_capacity_qps=1)
        )
        wrapped.put(_key_on_shard(wrapped.inner, 1), "v", now=0.0)
        # Shard 1's second is spent: the commit lands on 0 and 2 only.
        with pytest.raises(QueryRejected):
            wrapped.commit_version(1, now=0.5)
        committed = [wrapped.committed_version(s) for s in range(3)]
        assert committed == [1, 0, 1]
        wrapped.commit_version(1, now=1.0)  # the retry completes it
        assert [wrapped.committed_version(s) for s in range(3)] == [1] * 3

    def test_capacity_rejection_passes_through(self):
        wrapped = FaultyTEDatabase(
            TEDatabase(num_shards=1, shard_capacity_qps=1)
        )
        wrapped.get_version("k", now=0.0)
        from repro.controlplane import QueryRejected

        with pytest.raises(QueryRejected):
            wrapped.get_version("k", now=0.5)

    def test_keyerror_passes_through(self):
        wrapped = FaultyTEDatabase(TEDatabase())
        with pytest.raises(KeyError):
            wrapped.get("missing", now=0.0)

    def test_generate_zero_intensity_is_null(self):
        plan = FaultPlan.generate(
            seed=1, num_shards=4, horizon_s=100.0, intensity=0.0
        )
        assert plan.is_null()

    def test_wrap_database_idempotent(self):
        inner = TEDatabase()
        wrapped = wrap_database(inner)
        assert wrap_database(wrapped) is wrapped
        assert wrapped.inner is inner


class TestInjection:
    def test_crash_window(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(10.0, 20.0),)
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v", now=5.0)  # before the crash: fine
        with pytest.raises(ShardUnavailable):
            db.get(key, now=10.0)  # window start is inclusive
        with pytest.raises(ShardUnavailable):
            db.put(key, "v2", now=15.0)
        db.get(key, now=20.0)  # window end is exclusive
        assert db.injected.unavailable == 2
        # The other shard is untouched throughout.
        other = _key_on_shard(inner, 1)
        db.put(other, "x", now=15.0)

    def test_crashed_queries_not_charged(self):
        inner = TEDatabase(num_shards=1, enforce_capacity=False)
        plan = FaultPlan(
            shards={
                0: ShardFaults(crash_windows=(FaultWindow(0.0, 10.0),))
            }
        )
        db = FaultyTEDatabase(inner, plan)
        with pytest.raises(ShardUnavailable):
            db.get_version("k", now=5.0)
        assert inner.total_queries() == 0

    def test_partition_window(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 1)
        plan = FaultPlan(
            partitions=(
                (FaultWindow(0.0, 50.0), frozenset({1})),
            )
        )
        db = FaultyTEDatabase(inner, plan)
        with pytest.raises(ShardPartitioned):
            db.get_version(key, now=25.0)
        db.get_version(key, now=50.0)  # partition healed
        reachable = _key_on_shard(inner, 0)
        db.get_version(reachable, now=25.0)  # other side unaffected
        assert db.injected.partitioned == 1

    def test_timeout_from_latency(self):
        inner = TEDatabase(num_shards=1, enforce_capacity=False)
        plan = FaultPlan(
            shards={0: ShardFaults(extra_latency_s=2.0)}
        )
        db = FaultyTEDatabase(inner, plan, timeout_s=1.0)
        with pytest.raises(ShardTimeout):
            db.get_version("k", now=0.0)
        # Timed-out queries did reach the shard: they are charged.
        assert inner.total_queries() == 1
        # A generous timeout absorbs the same latency.
        slow_ok = FaultyTEDatabase(
            TEDatabase(num_shards=1, enforce_capacity=False),
            plan,
            timeout_s=5.0,
        )
        slow_ok.get_version("k", now=0.0)

    def test_latency_windows_scope_the_inflation(self):
        inner = TEDatabase(num_shards=1, enforce_capacity=False)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    extra_latency_s=2.0,
                    latency_windows=(FaultWindow(10.0, 20.0),),
                )
            }
        )
        db = FaultyTEDatabase(inner, plan, timeout_s=1.0)
        db.get_version("k", now=5.0)  # before the window
        with pytest.raises(ShardTimeout):
            db.get_version("k", now=15.0)
        db.get_version("k", now=25.0)  # after the window

    def test_transient_errors_match_rate_and_replay(self):
        def run() -> tuple[int, int]:
            inner = TEDatabase(num_shards=1, enforce_capacity=False)
            plan = FaultPlan(
                seed=3,
                shards={0: ShardFaults(read_error_rate=0.3)},
            )
            db = FaultyTEDatabase(inner, plan)
            errors = 0
            for i in range(1000):
                try:
                    db.get_version("k", now=float(i))
                except TransientShardError:
                    errors += 1
            return errors, db.injected.read_errors

        errors_a, injected_a = run()
        errors_b, injected_b = run()
        assert errors_a == errors_b  # bit-for-bit replay
        assert injected_a == errors_a
        assert 200 < errors_a < 400  # ~30%

    def test_write_and_read_rates_independent(self):
        inner = TEDatabase(num_shards=1, enforce_capacity=False)
        plan = FaultPlan(
            seed=0,
            shards={0: ShardFaults(write_error_rate=1.0)},
        )
        db = FaultyTEDatabase(inner, plan)
        with pytest.raises(TransientShardError):
            db.put("k", "v", now=0.0)
        db.get_version("k", now=0.0)  # reads unaffected

    def test_generate_is_deterministic_and_scoped(self):
        a = FaultPlan.generate(
            seed=11, num_shards=8, horizon_s=600.0, intensity=0.8
        )
        b = FaultPlan.generate(
            seed=11, num_shards=8, horizon_s=600.0, intensity=0.8
        )
        assert a == b
        assert not a.is_null()
        for faults in a.shards.values():
            for w in (
                faults.crash_windows
                + faults.latency_windows
                + faults.stale_windows
            ):
                assert 0.0 <= w.start <= w.end <= 600.0
        with pytest.raises(ValueError):
            FaultPlan.generate(
                seed=0, num_shards=2, horizon_s=10.0, intensity=1.5
            )


class TestStaleReplica:
    def _db(self) -> tuple[TEDatabase, FaultyTEDatabase, str]:
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    stale_lag_s=10.0,
                    stale_windows=(FaultWindow(100.0, 200.0),),
                )
            }
        )
        return inner, FaultyTEDatabase(inner, plan), key

    def test_stale_window_serves_lagged_values(self):
        _, db, key = self._db()
        db.put(key, "old", now=50.0)
        db.put(key, "new", now=95.0)
        # Inside the window reads lag 10s: t=100 sees state at t=90.
        value, version = db.get(key, now=100.0)
        assert (value, version) == ("old", 1)
        assert db.get_version(key, now=100.0) == 1
        # Once the lagged cutoff passes the newer write, it appears.
        assert db.get(key, now=110.0) == ("new", 2)
        # Outside the window, fresh again.
        assert db.get(key, now=200.0) == ("new", 2)
        assert db.injected.stale_reads == 3

    def test_stale_window_unwritten_key_raises(self):
        _, db, key = self._db()
        db.put(key, "v", now=150.0)  # write *inside* the window
        with pytest.raises(KeyError):
            db.get(key, now=155.0)  # lagged view predates the write
        assert db.get_version(key, now=155.0) == 0

    def test_agent_never_records_a_version_its_shard_cannot_serve(self):
        """The config's shard lags while another shard is current: the
        agent must not adopt v2 until its own shard shows v2's config."""
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        version_shard = inner.shard_of(VERSION_KEY)
        endpoint = next(
            e
            for e in range(100)
            if inner.shard_of(config_key(e)) != version_shard
        )
        key = config_key(endpoint)
        plan = FaultPlan(
            shards={
                inner.shard_of(key): ShardFaults(
                    stale_lag_s=50.0,
                    stale_windows=(FaultWindow(100.0, 200.0),),
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        paths = {1: {7: ("a", "b")}, 2: {7: ("a", "c", "b")}}
        for version, now in ((1, 0.0), (2, 100.0)):
            db.put(
                key,
                EndpointConfig(endpoint, version, paths[version]),
                now=now,
            )
            db.commit_version(version, now=now)
        assert db.get_version(VERSION_KEY, now=120.0) == 2
        agent = EndpointAgent(endpoint_id=endpoint)
        # Inside the window the shard serves t=70: v1, commit and config.
        assert agent.poll(db, now=120.0)
        assert (agent.local_version, agent.paths) == (1, paths[1])
        assert agent.poll(db, now=300.0)
        assert (agent.local_version, agent.paths) == (2, paths[2])
        assert agent.version_regressions == 0

    def test_restarted_shard_vouches_only_for_its_replica(self):
        """A commit landing on a restarted, unreconciled shard must not
        vouch for config writes the crash lost."""
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = config_key(
            next(e for e in range(100) if inner.shard_of(config_key(e)) == 0)
        )
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 120.0),),
                    stale_lag_s=30.0,
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v1", now=10.0)
        db.commit_version(1, now=10.0)
        db.put(key, "v2", now=90.0)  # within 30 s of the crash: lost
        with pytest.raises(ShardUnavailable):
            db.commit_version(2, now=110.0)
        assert db.committed_version(1) == 2  # the live shard holds it
        db.commit_version(2, now=125.0)  # the retry reaches shard 0
        assert db.check_version(key, now=126.0) == (1, 1)
        db.reconcile(0, now=130.0)
        assert db.check_version(key, now=131.0) == (2, 2)

    def test_crash_restore_regresses_versions_until_reconcile(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 120.0),),
                    stale_lag_s=30.0,
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v1", now=10.0)
        db.put(key, "v2", now=90.0)  # within 30s of the crash: lost
        # After restart the replica lags behind the crash start.
        assert db.get(key, now=120.0) == ("v1", 1)
        # A write accepted *after* restart is visible (newest first).
        db.put(key, "v3", now=130.0)
        assert db.get(key, now=131.0)[1] == 3
        # Reconcile restores the authoritative newest state.
        db.reconcile(0, now=140.0)
        assert db.get(key, now=141.0) == ("v3", 3)
        assert db.injected.reconciled_keys >= 0

    def test_reconcile_restores_newest_logged_version(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 120.0),),
                    stale_lag_s=50.0,
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v1", now=10.0)
        db.put(key, "v2", now=80.0)
        assert db.get(key, now=125.0) == ("v1", 1)  # regressed
        # The regression lives in the *served view*; the durable state
        # never lost v2, so reconcile restores nothing — it just marks
        # the shard caught up, and reads turn fresh.
        assert db.reconcile(0, now=130.0) == 0
        assert db.get(key, now=131.0) == ("v2", 2)


class TestReshardAndFailover:
    def _crashy(
        self,
    ) -> tuple[TEDatabase, FaultyTEDatabase, str]:
        inner = TEDatabase(num_shards=3, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 200.0),)
                )
            }
        )
        return inner, FaultyTEDatabase(inner, plan), key

    def test_reshard_moves_keys_and_routes_queries(self):
        inner, db, key = self._crashy()
        db.put(key, "v", now=10.0)
        with pytest.raises(ShardUnavailable):
            db.get(key, now=150.0)
        moved = db.reshard(now=150.0)
        assert moved == 1
        # The key now answers from its new home, version preserved.
        assert db.get(key, now=151.0) == ("v", 1)
        assert db.shard_of(key) != 0
        # Writes during the crash land on the override shard too.
        assert db.put(key, "v2", now=152.0) == 2

    def test_evacuated_key_answers_with_its_replicas_commit(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 200.0),),
                    stale_lag_s=20.0,
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v1", now=10.0)
        db.commit_version(1, now=10.0)
        db.put(key, "v2", now=90.0)  # within the lag: the replica lost it
        db.commit_version(2, now=90.0)
        assert db.reshard(now=150.0) == 1
        # Shard 1 holds commit 2, but this copy is the replica's v1.
        assert db.committed_version(db.shard_of(key)) == 2
        assert db.check_version(key, now=151.0) == (1, 1)
        assert db.get(key, now=151.0) == ("v1", 1)
        # Rewritten on its new shard, the copy is current again.
        db.put(key, "v3", now=152.0)
        assert db.check_version(key, now=153.0) == (2, 3)
        db.reconcile_restarted(now=200.0)
        assert db.check_version(key, now=201.0)[1] == 3

    def test_reshard_skips_unreplicated_writes(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 200.0),),
                    stale_lag_s=60.0,
                )
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v", now=80.0)  # < 60s before the crash: lost
        assert db.reshard(now=150.0) == 0

    def test_reconcile_restarted_sends_keys_home(self):
        inner, db, key = self._crashy()
        db.put(key, "v", now=10.0)
        db.reshard(now=150.0)
        assert db.shard_of(key) != 0
        healed = db.reconcile_restarted(now=200.0)
        assert 0 in healed
        assert db.shard_of(key) == 0
        assert db.get(key, now=201.0) == ("v", 1)
        # Idempotent: nothing left to heal.
        assert db.reconcile_restarted(now=201.0) == []

    def test_shard_crashed_before_its_first_write_routes_new_keys(self):
        # Shard 0 is down from t=0, before it holds anything: the
        # failover pass has no key to move, but must still route the
        # shard's home, or every write to it fails until the restart.
        inner = TEDatabase(num_shards=3, enforce_capacity=False)
        endpoint = _endpoint_on_shard(inner, 0)
        key = config_key(endpoint)
        plan = FaultPlan(
            shards={0: ShardFaults(crash_windows=(FaultWindow(0.0, 100.0),))}
        )
        db = FaultyTEDatabase(inner, plan)
        with pytest.raises(ShardUnavailable):
            db.put(key, "lost", now=1.0)
        assert orchestrate_shard_failover(db, now=2.0).resharded_keys == 0
        config = EndpointConfig(
            endpoint_id=endpoint, version=1, paths={9: ("a", "b")}
        )
        assert db.put(key, config, now=3.0) == 1
        with pytest.raises(ShardUnavailable):
            db.commit_version(1, now=3.0)  # reaches the live shards
        agent = EndpointAgent(endpoint_id=endpoint, poll_period_s=10.0)
        assert agent.poll(db, now=4.0)
        assert agent.local_version == 1
        assert agent.paths == {9: ("a", "b")}
        # After the restart, reconcile sends the key home and drops the
        # route.
        assert db.reconcile_restarted(now=100.0) == [0]
        assert db.shard_of(key) == 0
        assert db.get(key, now=101.0) == (config, 1)
        assert db.put(key, config, now=102.0) == 2

    def test_all_shards_down_is_a_noop(self):
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        key = _key_on_shard(inner, 0)
        plan = FaultPlan(
            shards={
                s: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 200.0),)
                )
                for s in range(2)
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(key, "v", now=10.0)
        assert db.reshard(now=150.0) == 0  # nowhere to move to

    def test_orchestrated_failover_end_to_end(self):
        inner, db, key = self._crashy()
        db.put(key, "v", now=10.0)
        report = orchestrate_shard_failover(db, now=150.0)
        assert report.crashed_shards == (0,)
        assert report.resharded_keys == 1
        assert report.acted
        assert db.get(key, now=151.0) == ("v", 1)
        # After restart the next pass reconciles and goes quiet.
        report = orchestrate_shard_failover(db, now=200.0)
        assert report.reconciled_shards == (0,)
        report = orchestrate_shard_failover(db, now=201.0)
        assert not report.acted

    def test_monitor_hysteresis_gates_resharding(self):
        inner, db, key = self._crashy()
        db.put(key, "v", now=10.0)
        monitor = ShardHealthMonitor(down_after=3, up_after=1)
        # First two probes: suspected, not declared -> no migration.
        r1 = orchestrate_shard_failover(db, 150.0, monitor=monitor)
        r2 = orchestrate_shard_failover(db, 151.0, monitor=monitor)
        assert r1.resharded_keys == r2.resharded_keys == 0
        r3 = orchestrate_shard_failover(db, 152.0, monitor=monitor)
        assert r3.resharded_keys == 1

    def test_agent_survives_crash_via_reshard(self):
        """End-to-end: agent + faults + failover, no exceptions."""
        inner = TEDatabase(num_shards=2, enforce_capacity=False)
        plan = FaultPlan(
            shards={
                s: ShardFaults(
                    crash_windows=(FaultWindow(30.0, 60.0),)
                )
                for s in range(1)
            }
        )
        db = FaultyTEDatabase(inner, plan)
        db.put(
            config_key(1),
            EndpointConfig(
                endpoint_id=1, version=1, paths={2: ("a", "b")}
            ),
            now=0.0,
        )
        db.commit_version(1, now=0.0)
        agent = EndpointAgent(
            endpoint_id=1,
            poll_period_s=10.0,
            retry_policy=RetryPolicy(max_retries=1, jitter=0.0),
            max_staleness_s=40.0,
        )
        t = 0.0
        while t <= 90.0:
            orchestrate_shard_failover(db, t)
            agent.maybe_poll(db, now=t)
            t += 1.0
        assert agent.local_version == 1
        assert agent.paths == {2: ("a", "b")}
        assert not agent.is_degraded(90.0)


class TestPutMany:
    """``put_many`` is ``put`` once per key: under the null plan one
    inner batch, under any other plan (or with keys resharded away) each
    key through the gauntlet in turn."""

    @staticmethod
    def _state(db: TEDatabase):
        return (
            db._data,
            [db.stats(s) for s in range(db.num_shards)],
            db._second_load,
            db._history,
            db._overrides,
            db.injected,
            db._op_counter,
        )

    @settings(max_examples=CHAOS_EXAMPLES, deadline=None)
    @given(
        num_shards=st.integers(1, 4),
        capacity=st.integers(2, 8),
        enforce=st.booleans(),
        plan_seed=st.one_of(st.none(), st.integers(0, 2**16)),
        reshard=st.booleans(),
        before=st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from([5.0, 50.0])),
            max_size=5,
        ),
        batch=st.lists(st.sampled_from("abcdefg"), max_size=12),
        now=st.sampled_from([50.0, 60.0, 90.0]),
    )
    def test_put_many_matches_put_loop(
        self, num_shards, capacity, enforce, plan_seed, reshard, before,
        batch, now,
    ):
        plan = (
            FaultPlan.none()
            if plan_seed is None
            else FaultPlan.generate(
                seed=plan_seed,
                num_shards=num_shards,
                horizon_s=100.0,
                intensity=1.0,
            )
        )
        bulk, each = (
            FaultyTEDatabase(
                TEDatabase(num_shards, capacity, enforce_capacity=enforce),
                plan,
            )
            for _ in range(2)
        )
        for db in (bulk, each):
            for i, (key, when) in enumerate(before):
                try:
                    db.put(key, -i, now=when)
                except SyncError:
                    pass
            if reshard:
                # Overrides force the gauntlet even under the null plan.
                db.reshard(now=45.0, shards=[0])
        values = list(range(len(batch)))
        want, failure = [], None
        for key, value in zip(batch, values):
            try:
                want.append(each.put(key, value, now=now))
            except SyncError as exc:
                failure = exc
                break
        if failure is None:
            assert bulk.put_many(batch, values, now=now) == want
        else:
            with pytest.raises(SyncError) as raised:
                bulk.put_many(batch, values, now=now)
            assert type(raised.value) is type(failure)
            assert str(raised.value) == str(failure)
            assert list(raised.value.stored) == want
        assert self._state(bulk) == self._state(each)
        # Under a plan each key's newest write is in the history lagged
        # views read; the null plan keeps no history.
        newest = {key: (v, value) for key, value, v in zip(batch, values, want)}
        for key, (version, value) in newest.items():
            if plan.is_null():
                assert key not in bulk._history
            else:
                time, stored = bulk._history[key][-1]
                assert (time, stored.version, stored.value) == (
                    now, version, value,
                )

    def test_null_plan_is_one_inner_batch(self, monkeypatch):
        inner = TEDatabase(num_shards=2)
        calls = []
        batch = inner.put_many

        def spy(keys, values, now=0.0):
            calls.append(len(keys))
            return batch(keys, values, now=now)

        monkeypatch.setattr(inner, "put_many", spy)
        db = FaultyTEDatabase(inner)
        assert db.put_many(["a", "b", "a"], [1, 2, 3], now=1.0) == [1, 1, 2]
        assert calls == [3]
        assert db._history == {}


class _Untrimmed(TEDatabase):
    """The reference model: the same store with nothing ever trimmed —
    every write and every commit stays in its log, so each lagged view
    reads the full history."""

    def _append(self, log, entry, now):
        log.append(entry)


#: Read ops may run ahead of the clock (an agent's retries do); writes,
#: re-sharding and reconciles never do.
_READS = ("get", "get_version", "check_version")


def _apply(db: TEDatabase, op: str, keys, step: int, now: float):
    """Run one drawn op; its answer, or the type of error it raised."""
    try:
        if op == "put":
            return db.put(keys[0], (step, 0), now=now)
        if op == "put_many":
            values = [(step, i) for i in range(len(keys))]
            return db.put_many(keys, values, now=now)
        if op == "commit_version":
            return db.commit_version(step, now=now)
        if op in _READS:
            return getattr(db, op)(keys[0], now=now)
        return getattr(db, op)(now)
    except (SyncError, KeyError) as exc:
        return type(exc), list(getattr(exc, "stored", ()))


#: Scripted runs, one per kind of cutoff the trim floor keeps: a floor
#: without it would drop an entry the last query needs.
_FLOOR_SCENARIOS = {
    # A restarted, unreconciled shard answers from its replica's commits.
    "restart": (
        1,
        FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=(FaultWindow(100.0, 120.0),),
                    stale_lag_s=30.0,
                )
            }
        ),
        [("commit_version", 5.0), ("commit_version", 10.0), ("put", 10.0),
         ("commit_version", 80.0), ("put", 80.0), ("commit_version", 130.0),
         ("check_version", 131.0)],
    ),
    # An open stale window reads ``stale_lag_s`` back from every read.
    "stale window": (
        1,
        FaultPlan(
            shards={
                0: ShardFaults(
                    stale_lag_s=10.0,
                    stale_windows=(FaultWindow(100.0, 200.0),),
                )
            }
        ),
        [("put", 40.0), ("put", 50.0), ("put", 92.0), ("put", 100.0),
         ("get", 101.0)],
    ),
    # A key evacuated off its partitioned home, then read through its new
    # shard's restart view, answers with the commits its home had seen.
    "evacuation": (
        2,
        FaultPlan(
            shards={
                1: ShardFaults(
                    crash_windows=(FaultWindow(130.0, 140.0),),
                    stale_lag_s=5.0,
                )
            },
            partitions=((FaultWindow(100.0, 121.0), frozenset({0})),),
        ),
        [("put", 10.0), ("commit_version", 10.0), ("put", 90.0),
         ("commit_version", 90.0), ("reshard", 110.0),
         ("commit_version", 122.0), ("put", 128.0),
         ("commit_version", 130.0), ("check_version", 141.0)],
    ),
}


class TestHistory:
    """The store keeps the history lagged views read only while a plan is
    attached, and trims it to what a view can still ask for."""

    @pytest.mark.parametrize("scenario", sorted(_FLOOR_SCENARIOS))
    def test_the_floor_keeps_each_cutoff_a_view_asks_for(self, scenario):
        num_shards, plan, script = _FLOOR_SCENARIOS[scenario]
        trimmed, full = (
            FaultyTEDatabase(store(num_shards, 10_000), plan)
            for store in (TEDatabase, _Untrimmed)
        )
        key = [_key_on_shard(trimmed, 0)]
        for step, (op, now) in enumerate(script, start=1):
            assert _apply(trimmed, op, key, step, now) == _apply(
                full, op, key, step, now
            ), (op, now)

        def kept(db):
            return sum(map(len, db._commits)) + len(db._history[key[0]])

        assert kept(trimmed) < kept(full)  # the run did trim

    @settings(max_examples=CHAOS_EXAMPLES, deadline=None)
    @given(
        plan_seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 3),
        capacity=st.sampled_from([4, 10_000]),
        steps=st.lists(
            st.tuples(
                # Commits and checks weighted up: they meet the most views.
                st.sampled_from(
                    ("put", "put_many", "commit_version", "commit_version",
                     "reshard", "reconcile_restarted", "check_version")
                    + _READS
                ),
                st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
                st.sampled_from([0.0, 1.0, 5.0, 20.0]),
                st.booleans(),
            ),
            min_size=20,
            max_size=80,
        ),
    )
    def test_trimmed_history_answers_like_the_full_log(
        self, plan_seed, num_shards, capacity, steps
    ):
        plan = FaultPlan.generate(
            seed=plan_seed, num_shards=num_shards, horizon_s=200.0,
            intensity=1.0,
        )
        trimmed, full = (
            FaultyTEDatabase(store(num_shards, capacity), plan)
            for store in (TEDatabase, _Untrimmed)
        )
        now = 0.0
        for step, (op, keys, dt, ahead) in enumerate(steps, start=1):
            now += dt
            at = now + 2.5 if ahead and op in _READS else now
            assert _apply(trimmed, op, keys, step, at) == _apply(
                full, op, keys, step, at
            ), (step, op, at)
        assert trimmed.injected == full.injected
        for key, entries in full._history.items():
            assert trimmed._history[key][-1] == entries[-1]
            assert len(trimmed._history[key]) <= len(entries)

    def test_history_bytes_stay_bounded(self):
        """40 keys written every 300 s under recurring crash and stale
        windows: what the store holds at interval 500 is what it held at
        interval 100."""
        cycle = 3000.0  # ten intervals: 100 and 500 share a phase
        windows = [(k * cycle, (k + 1) * cycle) for k in range(60)]
        plan = FaultPlan(
            shards={
                0: ShardFaults(
                    crash_windows=tuple(
                        FaultWindow(a + 700.0, a + 1300.0) for a, _ in windows
                    ),
                    stale_lag_s=400.0,
                ),
                1: ShardFaults(
                    stale_windows=tuple(
                        FaultWindow(a + 1800.0, a + 2500.0)
                        for a, _ in windows
                    ),
                    stale_lag_s=650.0,
                ),
            }
        )
        db = FaultyTEDatabase(TEDatabase(num_shards=2), plan)
        keys = [f"k{i}" for i in range(40)]

        def run(intervals) -> None:
            for interval in intervals:
                now = 300.0 * interval
                orchestrate_shard_failover(db, now)
                db.put_many(keys, [(interval, key) for key in keys], now=now)
                try:
                    db.commit_version(interval + 1, now=now)
                except SyncError:
                    pass
                for key in keys:
                    try:
                        db.check_version(key, now=now + 1.0)
                    except SyncError:
                        pass
                # Per-second load buckets are not history.
                db.reset_load_accounting()

        def traced() -> int:
            gc.collect()  # caught errors sit in cycles with their frames
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            run(range(100))
            at_100 = traced()
            run(range(100, 500))
            at_500 = traced()
        finally:
            tracemalloc.stop()
        assert db.injected.stale_reads and db.injected.resharded_keys
        # Slack for what does grow: version numbers outgrow the small-int
        # cache, and tracemalloc keeps books of its own.  At the parent
        # commit the write log alone grew by megabytes.
        assert at_500 <= at_100 + 16_384, (at_100, at_500)


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            FaultWindow(5.0, 1.0)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            FaultyTEDatabase(TEDatabase(), timeout_s=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("read_error_rate", 1.5),
            ("write_error_rate", -0.2),
            ("read_error_rate", NAN),
            ("stale_lag_s", -5.0),
            ("stale_lag_s", NAN),
            ("extra_latency_s", NAN),
            ("extra_latency_s", -1.0),
        ],
    )
    def test_shard_faults_fields_are_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShardFaults(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backoff_base_s", NAN),
            ("backoff_base_s", -1.0),
            ("backoff_cap_s", NAN),
            ("backoff_multiplier", NAN),
            ("jitter", NAN),
            ("poll_budget_s", NAN),
            ("poll_budget_s", 0.0),
        ],
    )
    def test_retry_policy_fields_are_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    def test_nan_is_rejected_everywhere_else(self):
        with pytest.raises(ValueError, match="start"):
            FaultWindow(NAN, NAN)
        with pytest.raises(ValueError, match="end"):
            FaultWindow(0.0, NAN)
        with pytest.raises(ValueError, match="horizon_s"):
            FaultPlan.generate(1, 2, horizon_s=NAN)
        with pytest.raises(ValueError, match="timeout_s"):
            FaultyTEDatabase(TEDatabase(), timeout_s=NAN)
        with pytest.raises(ValueError, match="timeout_s"):
            wrap_database(TEDatabase(), timeout_s=NAN)

    def test_inf_still_means_forever(self):
        never_answers = FaultPlan(shards={0: ShardFaults(extra_latency_s=INF)})
        with pytest.raises(ShardTimeout):
            FaultyTEDatabase(TEDatabase(num_shards=1), never_answers).put(
                "k", "v", now=0.0
            )
        slow = FaultPlan(shards={0: ShardFaults(extra_latency_s=1e6)})
        patient = FaultyTEDatabase(TEDatabase(num_shards=1), slow, INF)
        assert patient.put("k", "v", now=0.0) == 1
        assert ShardFaults(stale_lag_s=INF).stale_lag_s == INF
        assert FaultWindow(0.0, INF).contains(1e12)
        policy = RetryPolicy(backoff_cap_s=INF, poll_budget_s=INF)
        assert policy.delay_s(3) > 0.0

    def test_sync_error_covers_every_fault(self):
        for exc in (
            ShardUnavailable,
            ShardPartitioned,
            ShardTimeout,
            TransientShardError,
        ):
            assert issubclass(exc, SyncError)
