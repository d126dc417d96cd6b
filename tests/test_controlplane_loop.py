"""Tests for the bottom-up control loop: controller, agents, convergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane import (
    EndpointAgent,
    QueryRejected,
    RetryPolicy,
    TEController,
    TEDatabase,
    VERSION_KEY,
    analytic_convergence,
    config_key,
    simulate_convergence,
    spread_offsets,
)
from repro.core import MegaTEOptimizer


@pytest.fixture()
def published(tiny_topology, tiny_demands):
    """A database with one published TE interval."""
    db = TEDatabase(enforce_capacity=False)
    controller = TEController(db, optimizer=MegaTEOptimizer())
    result = controller.run_interval(tiny_topology, tiny_demands, now=0.0)
    return db, controller, result


class TestController:
    def test_version_bumped(self, published):
        db, controller, _ = published
        assert controller.current_version == 1
        assert db.get_version(VERSION_KEY) == 1

    def test_configs_written_for_source_endpoints(self, published):
        db, _, result = published
        pair = result.demands.pair(0)
        assigned = result.assignment.per_pair[0]
        for i in np.flatnonzero(assigned >= 0):
            src = int(pair.src_endpoints[i])
            config, _ = db.get(config_key(src))
            assert config.version == 1
            assert int(pair.dst_endpoints[i]) in config.paths

    def test_paths_match_assignment(
        self, published, tiny_topology
    ):
        db, _, result = published
        pair = result.demands.pair(0)
        assigned = result.assignment.per_pair[0]
        tunnels = tiny_topology.catalog.tunnels(0)
        for i in np.flatnonzero(assigned >= 0):
            src = int(pair.src_endpoints[i])
            dst = int(pair.dst_endpoints[i])
            config, _ = db.get(config_key(src))
            assert config.paths[dst] == tunnels[int(assigned[i])].path

    def test_republish_increments(
        self, published, tiny_topology, tiny_demands
    ):
        db, controller, _ = published
        controller.run_interval(tiny_topology, tiny_demands, now=300.0)
        assert db.get_version(VERSION_KEY) == 2


class TestAgent:
    def test_pull_on_new_version(self, published):
        db, _, result = published
        pair = result.demands.pair(0)
        src = int(pair.src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        assert agent.poll(db, now=1.0)
        assert agent.local_version == 1
        assert agent.paths

    def test_no_pull_when_current(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        agent.poll(db, now=1.0)
        queries_before = db.total_queries()
        assert not agent.poll(db, now=2.0)
        # Only the version check, no config fetch.
        assert db.total_queries() == queries_before + 1

    def test_no_pull_when_new_version_left_the_endpoint_alone(
        self, published, tiny_topology, tiny_demands
    ):
        db, controller, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        installed = []
        agent = EndpointAgent(endpoint_id=src, on_install=installed.append)
        assert agent.poll(db, now=1.0)
        paths = dict(agent.paths)
        # Same demands: version 2 is committed, no config is rewritten.
        controller.run_interval(tiny_topology, tiny_demands, now=300.0)
        assert controller.last_publish_writes == 0
        queries_before = db.total_queries()
        assert not agent.poll(db, now=301.0)
        assert db.total_queries() == queries_before + 1
        assert agent.local_version == 2
        assert agent.paths == paths
        assert len(installed) == 1

    def test_rewritten_endpoint_costs_two_queries(
        self, published, tiny_topology, tiny_demands
    ):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        agent.poll(db, now=1.0)
        # A full republish rewrites every config under version 2.
        full = TEController(db, delta_publish=False)
        full.current_version = 1
        full.publish(tiny_topology, result, now=300.0)
        queries_before = db.total_queries()
        assert agent.poll(db, now=301.0)
        assert db.total_queries() == queries_before + 2
        assert agent.local_version == 2

    def test_config_written_but_not_committed_is_not_pulled(self, published):
        # A poll landing between the config writes and the commit.
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        agent.poll(db, now=1.0)
        config, _ = db.get(config_key(src))
        db.put(config_key(src), config, now=300.0)
        queries_before = db.total_queries()
        assert not agent.poll(db, now=300.5)
        assert db.total_queries() == queries_before + 1
        db.commit_version(2, now=301.0)
        assert agent.poll(db, now=302.0)
        assert agent.local_version == 2

    def test_agent_without_config_tracks_version(self, published):
        db, _, _ = published
        agent = EndpointAgent(endpoint_id=999_999)
        queries_before = db.total_queries()
        assert not agent.poll(db, now=1.0)
        assert agent.local_version == 1
        assert db.total_queries() == queries_before + 1

    def test_on_install_callback(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        installed = []
        agent = EndpointAgent(
            endpoint_id=src, on_install=installed.append
        )
        agent.poll(db, now=1.0)
        assert len(installed) == 1
        assert installed[0].endpoint_id == src

    def test_maybe_poll_respects_slots(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(
            endpoint_id=src, poll_period_s=10.0, poll_offset_s=3.0
        )
        assert not agent.maybe_poll(db, now=2.0)  # before first slot
        assert agent.maybe_poll(db, now=3.5)  # slot 0
        assert not agent.maybe_poll(db, now=4.0)  # same slot
        # Next slot, but nothing new to pull.
        assert not agent.maybe_poll(db, now=13.5)

    def test_maybe_poll_exactly_at_slot_time(self, published):
        # A tick landing exactly on the scheduled instant must poll:
        # the slot boundary is inclusive.
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(
            endpoint_id=src, poll_period_s=10.0, poll_offset_s=3.0
        )
        assert agent.maybe_poll(db, now=3.0)  # exactly the offset
        assert agent.local_version == 1
        # Exactly the next slot boundary: polled (no new version).
        queries_before = db.total_queries()
        assert not agent.maybe_poll(db, now=13.0)
        assert db.total_queries() == queries_before + 1

    def test_maybe_poll_at_zero_offset_zero_now(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src, poll_period_s=10.0)
        assert agent.maybe_poll(db, now=0.0)

    def test_version_regression_never_rolls_back(self, published):
        # A shard restored from a stale replica reports an *older*
        # version; the agent must keep its installed config.
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        assert agent.poll(db, now=1.0)
        paths_before = dict(agent.paths)

        class _StaleReplica:
            """The check answers an old commit; reads delegate."""

            def check_version(self, key, now=0.0):
                return 0, db.check_version(key, now=now)[1]

            def get(self, key, now=0.0):
                return db.get(key, now=now)

        assert not agent.poll(_StaleReplica(), now=2.0)
        assert agent.local_version == 1
        assert agent.paths == paths_before
        assert agent.version_regressions == 1
        # The regressed read is provably stale: not a freshness proof.
        assert agent.last_refresh_s == 1.0

    def test_pull_older_than_its_check_is_refused(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        assert agent.poll(db, now=1.0)
        paths_before = dict(agent.paths)

        class _LaggingReads:
            """The check sees version 2 and a rewritten key; the read
            that follows is served the old copy."""

            def check_version(self, key, now=0.0):
                return 2, 2

            def get(self, key, now=0.0):
                return db.get(key, now=now)  # key version 1

        assert not agent.poll(_LaggingReads(), now=2.0)
        assert agent.local_version == 1
        assert agent.paths == paths_before
        assert agent.version_regressions == 1
        assert agent.last_refresh_s == 1.0

    def test_repeated_rejection_raises_without_policy(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        agent.poll(db, now=1.0)
        tiny = TEDatabase(num_shards=1, shard_capacity_qps=1)
        tiny.get_version("x", now=50.0)  # exhaust the second
        # Legacy behaviour: no retry policy -> the error propagates.
        with pytest.raises(QueryRejected):
            agent.poll(tiny, now=50.0)

    def test_repeated_rejection_degrades_with_policy(self, published):
        db, _, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(
            endpoint_id=src,
            retry_policy=RetryPolicy(max_retries=2, jitter=0.0),
        )
        agent.poll(db, now=1.0)
        paths_before = dict(agent.paths)
        overloaded = TEDatabase(num_shards=1, shard_capacity_qps=1)
        # Saturate a wide window so every retry lands on a full second.
        for second in range(50, 70):
            overloaded.get_version("x", now=float(second))
        assert not agent.poll(overloaded, now=50.0)
        assert agent.failed_polls == 1
        assert agent.retries == 2
        # Graceful degradation: last-known-good config retained.
        assert agent.paths == paths_before
        assert agent.local_version == 1

    def test_next_poll_time(self):
        agent = EndpointAgent(
            endpoint_id=1, poll_period_s=10.0, poll_offset_s=3.0
        )
        assert agent.next_poll_time(0.0) == pytest.approx(3.0)
        assert agent.next_poll_time(3.0) == pytest.approx(3.0)
        assert agent.next_poll_time(4.0) == pytest.approx(13.0)

    def test_path_to(self, published):
        db, _, result = published
        pair = result.demands.pair(0)
        assigned = result.assignment.per_pair[0]
        i = int(np.flatnonzero(assigned >= 0)[0])
        src = int(pair.src_endpoints[i])
        dst = int(pair.dst_endpoints[i])
        agent = EndpointAgent(endpoint_id=src)
        agent.poll(db, now=1.0)
        assert agent.path_to(dst) is not None
        assert agent.path_to(10**9) is None


class TestSyncPlaneMetrics:
    def test_counters_split_polls_and_queries_by_kind(
        self, published, tiny_topology, tiny_demands
    ):
        """A slow or chatty sync plane is readable from the exported
        counters: which store ops ran, and why each poll did nothing."""
        from repro import obs

        db, controller, result = published
        src = int(result.demands.pair(0).src_endpoints[0])
        agent = EndpointAgent(endpoint_id=src)
        was = obs.telemetry_enabled()
        try:
            obs.set_enabled(True)
            obs.reset()
            assert agent.poll(db, now=1.0)  # installed
            assert not agent.poll(db, now=2.0)  # current
            controller.run_interval(tiny_topology, tiny_demands, now=300.0)
            assert not agent.poll(db, now=301.0)  # unchanged
            snapshot = obs.get_registry().snapshot()
        finally:
            obs.set_enabled(was)
            obs.reset()

        def by_label(name):
            return {
                entry["labels"][0]: entry["state"]["value"]
                for entry in snapshot[name]["series"]
            }

        assert by_label("megate_agent_polls_total") == {
            "installed": 1,
            "current": 1,
            "unchanged": 1,
        }
        assert by_label("megate_tedb_queries_total") == {
            "check_version": 3,
            "get": 1,
            "commit_version": db.num_shards,
        }


class TestFleetLoad:
    def test_spread_fleet_fits_two_shards_at_half_its_rate(self):
        """The checks spread over the shards as the config keys do: a
        shard sized for half the fleet's rate rejects nothing."""
        agents_n, window_s = 4000, 10.0
        # agents / window / 2 = 200 < 260 < 400 = agents / window.
        db = TEDatabase(
            num_shards=2, shard_capacity_qps=260, enforce_capacity=True
        )
        offsets = spread_offsets(agents_n, window_s, seed=0)
        agents = [EndpointAgent(endpoint_id=e) for e in range(agents_n)]
        # Steady state: versions every agent tracks, nothing to pull.
        for version, start in ((1, 0.0), (2, 20.0)):
            db.commit_version(version, now=start)
            for agent, offset in zip(agents, offsets):
                agent.poll(db, now=start + 1.0 + float(offset))
        assert all(agent.local_version == 2 for agent in agents)
        assert sum(db.stats(s).rejected for s in range(2)) == 0
        assert db.total_queries() == 2 * agents_n + 2 * 2
        assert 0.45 < db.stats(0).queries / db.total_queries() < 0.55


class TestConvergence:
    def test_spread_offsets_within_window(self):
        offsets = spread_offsets(1000, window_s=10.0, seed=0)
        assert offsets.min() >= 0.0
        assert offsets.max() < 10.0

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf"), -5.0])
    def test_spread_offsets_rejects_a_bad_window(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            spread_offsets(10, window_s=window_s)

    def test_analytic_converges_within_one_period(self):
        offsets = spread_offsets(500, window_s=10.0, seed=1)
        report = analytic_convergence(
            publish_time=123.0, offsets=offsets, poll_period_s=10.0
        )
        assert report.convergence_time_s <= 10.0
        assert report.fraction_converged_by(10.0) == 1.0
        assert 0 < report.fraction_converged_by(5.0) < 1.0

    def test_analytic_mean_delay_half_period(self):
        offsets = spread_offsets(5000, window_s=10.0, seed=2)
        report = analytic_convergence(
            publish_time=50.0, offsets=offsets, poll_period_s=10.0
        )
        assert report.mean_delay_s == pytest.approx(5.0, abs=0.5)

    def test_simulated_matches_analytic(self, published):
        db, _, result = published
        pair = result.demands.pair(0)
        sources = sorted(set(pair.src_endpoints.tolist()))
        offsets = spread_offsets(len(sources), window_s=5.0, seed=3)
        agents = [
            EndpointAgent(
                endpoint_id=int(src),
                poll_period_s=5.0,
                poll_offset_s=float(off),
            )
            for src, off in zip(sources, offsets)
        ]
        report = simulate_convergence(
            agents, db, publish_time=0.0, tick_s=0.5
        )
        assert np.isfinite(report.update_delays_s).all()
        assert report.convergence_time_s <= 5.0 + 0.5

    def test_empty_fleet(self):
        db = TEDatabase()
        report = simulate_convergence([], db, publish_time=0.0)
        assert report.convergence_time_s == 0.0


class TestDeltaPublish:
    def test_unchanged_interval_writes_nothing(
        self, tiny_topology, tiny_demands
    ):
        db = TEDatabase(enforce_capacity=False)
        controller = TEController(db, optimizer=MegaTEOptimizer())
        controller.run_interval(tiny_topology, tiny_demands, now=0.0)
        first_writes = controller.last_publish_writes
        assert first_writes > 0
        # Same demands -> same assignment -> zero config rewrites.
        controller.run_interval(tiny_topology, tiny_demands, now=300.0)
        assert controller.last_publish_writes == 0
        assert controller.current_version == 2

    def test_delta_disabled_rewrites_everything(
        self, tiny_topology, tiny_demands
    ):
        db = TEDatabase(enforce_capacity=False)
        controller = TEController(
            db, optimizer=MegaTEOptimizer(), delta_publish=False
        )
        controller.run_interval(tiny_topology, tiny_demands, now=0.0)
        first = controller.last_publish_writes
        controller.run_interval(tiny_topology, tiny_demands, now=300.0)
        assert controller.last_publish_writes == first

    def test_agents_still_converge_after_delta_publish(
        self, tiny_topology, tiny_demands
    ):
        import numpy as np

        db = TEDatabase(enforce_capacity=False)
        controller = TEController(db, optimizer=MegaTEOptimizer())
        result = controller.run_interval(
            tiny_topology, tiny_demands, now=0.0
        )
        controller.run_interval(tiny_topology, tiny_demands, now=300.0)
        pair = result.demands.pair(0)
        assigned = result.assignment.per_pair[0]
        src = int(pair.src_endpoints[np.flatnonzero(assigned >= 0)[0]])
        agent = EndpointAgent(endpoint_id=src)
        assert agent.poll(db, now=305.0)
        assert agent.local_version == 2
        assert agent.paths
