"""Soak-engine properties: replay equivalence, determinism, SLO math.

The load-bearing contracts of :mod:`repro.simulation.soak`:

* **Empty schedule ≡ plain replay** — a soak run with no events must
  produce an assignment digest bit-identical to
  :func:`~repro.experiments.interval_replay.replay_intervals` over the
  same sequence (the soak loop adds planes, never perturbs the solve).
* **Fixed-seed determinism** — two runs of the same scenario matrix,
  with overlapping events applied in schedule order, agree on every
  deterministic report field (the identity digest excludes wall-clock
  timings), and :func:`scenario_events` itself is a pure function of
  its arguments.
* **SLO snapshot math** — the report's availability / staleness-p99 /
  degraded-fraction numbers are computed from the Prometheus snapshot
  by the ``snapshot_*`` helpers; their aggregation across labelled
  series and histogram buckets is pinned here on hand-built registries.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.experiments.common import build_scenario
from repro.experiments.interval_replay import replay_intervals
from repro.simulation.soak import (
    SCENARIO_NAMES,
    FlashCrowd,
    LinkCut,
    MaintenanceDrain,
    ShardFailover,
    SLOReport,
    SLOSpec,
    run_soak,
    scenario_events,
    snapshot_counter_total,
    snapshot_gauge_value,
    snapshot_histogram_quantile,
)
from repro.traffic import DiurnalSequence

#: Small scenario: one run ~0.2 s, large enough that the second stage
#: sees contention and traffic events actually move the assignment.
SMALL = dict(
    topology_name="twan",
    total_endpoints=2_000,
    num_site_pairs=24,
    target_load=1.4,
    seed=7,
)
NUM_INTERVALS = 6
NAN = float("nan")


@pytest.fixture(scope="module")
def small_scenario():
    sc = build_scenario(
        SMALL["topology_name"],
        total_endpoints=SMALL["total_endpoints"],
        num_site_pairs=SMALL["num_site_pairs"],
        target_load=SMALL["target_load"],
        seed=SMALL["seed"],
    )
    return sc.topology, DiurnalSequence(base=sc.demands, seed=5)


@pytest.fixture(autouse=True)
def _registry_guard():
    yield
    obs.reset()
    obs.set_enabled(False)


class TestReplayEquivalence:
    def test_empty_schedule_matches_plain_replay_digest(
        self, small_scenario
    ):
        topology, sequence = small_scenario
        soak = run_soak(
            topology, sequence, NUM_INTERVALS, (), seed=0,
            scenario="baseline",
        )
        replay = replay_intervals(topology, sequence, NUM_INTERVALS)
        assert soak.assignment_digest == replay.assignment_digest
        assert soak.event_log == []
        assert all(r.events == () for r in soak.records)

    def test_events_actually_perturb_the_assignment(self, small_scenario):
        topology, sequence = small_scenario
        baseline = run_soak(
            topology, sequence, NUM_INTERVALS, (), seed=0,
            scenario="baseline",
        )
        stormy = run_soak(
            topology, sequence, NUM_INTERVALS,
            scenario_events("full-mix", NUM_INTERVALS, seed=0),
            seed=0, scenario="full-mix",
        )
        assert stormy.assignment_digest != baseline.assignment_digest
        assert stormy.event_log


    def test_shard_crashed_from_the_start_keeps_the_slos(
        self, small_scenario
    ):
        # The shard is down before the first publish writes to it; the
        # failover pass routes its keys away instead of stalling every
        # publish until the restart (availability used to read 0.8755).
        topology, sequence = small_scenario
        report = run_soak(
            topology, sequence, 8,
            (ShardFailover(start=0, duration=4, shard=0),),
            num_agents=8, seed=0, scenario="crash-at-start",
        )
        assert report.violations == []
        assert report.slo.availability > 0.99
        assert report.publishes == 8


class TestDeterminism:
    def test_overlapping_events_fixed_seed_identical_reports(
        self, small_scenario
    ):
        topology, sequence = small_scenario
        # Overlapping windows of every plane: a link cut under a flash
        # crowd under a drain, applied in schedule order.
        events = (
            LinkCut(start=1, duration=3, num_fibers=1, scenario_seed=3),
            FlashCrowd(start=1, duration=4, magnitude=2.0,
                       pair_fraction=0.5, choice_seed=11),
            MaintenanceDrain(start=2, duration=3, residual=0.4,
                             pair_fraction=0.5, choice_seed=11),
        )
        runs = [
            run_soak(
                topology, sequence, NUM_INTERVALS, events, seed=3,
                scenario="overlap",
            )
            for _ in range(2)
        ]
        assert runs[0].identity_digest() == runs[1].identity_digest()
        assert runs[0].assignment_digest == runs[1].assignment_digest
        assert runs[0].event_log == runs[1].event_log
        # The windows really did overlap.
        active_kinds = {
            kind
            for record in runs[0].records
            for kind in record.events
        }
        assert {LinkCut.kind, FlashCrowd.kind, MaintenanceDrain.kind} <= (
            active_kinds
        )

    @given(
        name=st.sampled_from(SCENARIO_NAMES),
        num_intervals=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=1, max_value=8),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scenario_events_pure_and_in_horizon(
        self, name, num_intervals, seed, num_shards
    ):
        a = scenario_events(name, num_intervals, seed, num_shards)
        b = scenario_events(name, num_intervals, seed, num_shards)
        assert a == b
        for event in a:
            assert 0 <= event.start < num_intervals
            assert event.duration >= 1


class TestSnapshotHelpers:
    def _registry(self):
        obs.set_enabled(True)
        obs.reset()
        return obs.get_registry()

    def test_counter_total_sums_labelled_series(self):
        registry = self._registry()
        counter = registry.counter("t_total", "t", labelnames=("shard",))
        counter.labels(shard="0").inc(2.0)
        counter.labels(shard="1").inc(3.0)
        snapshot = registry.snapshot()
        assert snapshot_counter_total(snapshot, "t_total") == 5.0
        assert snapshot_counter_total(snapshot, "absent_total") == 0.0

    def test_gauge_value_defaults_when_absent(self):
        registry = self._registry()
        registry.gauge("g", "g").set(0.25)
        snapshot = registry.snapshot()
        assert snapshot_gauge_value(snapshot, "g") == 0.25
        assert snapshot_gauge_value(snapshot, "absent", 1.0) == 1.0

    def test_histogram_quantile_picks_bucket_boundary(self):
        registry = self._registry()
        hist = registry.histogram(
            "h_seconds", "h", buckets=(1.0, 5.0, 25.0)
        )
        for value in [0.5] * 98 + [20.0, 20.0]:
            hist.observe(value)
        snapshot = registry.snapshot()
        # rank = ceil(0.5 * 100) = 50 -> first bucket; p99 -> rank 99
        # falls in the (5, 25] bucket.
        assert snapshot_histogram_quantile(snapshot, "h_seconds", 0.5) == 1.0
        assert snapshot_histogram_quantile(snapshot, "h_seconds", 0.99) == 25.0

    def test_histogram_quantile_overflow_is_inf(self):
        registry = self._registry()
        hist = registry.histogram("o_seconds", "o", buckets=(1.0,))
        hist.observe(100.0)
        snapshot = registry.snapshot()
        assert math.isinf(
            snapshot_histogram_quantile(snapshot, "o_seconds", 0.99)
        )
        assert snapshot_histogram_quantile(snapshot, "empty", 0.99) == 0.0

    def test_slo_report_violations_format_every_miss(self):
        report = SLOReport(
            availability=0.5,
            staleness_p99_s=1000.0,
            degraded_fraction=0.5,
            delivered_floor=0.1,
            solver_phase_p99_s=100.0,
            agent_samples=10,
            intervals=5,
        )
        violations = report.violations(SLOSpec())
        assert len(violations) == 5
        healthy = SLOReport(
            availability=1.0,
            staleness_p99_s=10.0,
            degraded_fraction=0.0,
            delivered_floor=0.9,
            solver_phase_p99_s=0.1,
            agent_samples=10,
            intervals=5,
        )
        assert healthy.violations(SLOSpec()) == []


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_availability", -1.0),
            ("min_availability", 1.5),
            ("max_degraded_fraction", 5.0),
            ("min_delivered_floor", 2.0),
            ("max_staleness_p99_s", -1.0),
        ],
    )
    def test_bounds_that_can_never_fail_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SLOSpec(**{field: value})

    def test_worst_report_misses_every_default_slo(self):
        worst = SLOReport(
            availability=0.0,
            staleness_p99_s=1e9,
            degraded_fraction=1.0,
            delivered_floor=0.0,
            solver_phase_p99_s=0.0,
            agent_samples=1,
            intervals=1,
        )
        assert len(worst.violations(SLOSpec())) == 4
        assert SLOSpec(max_staleness_p99_s=math.inf).max_staleness_p99_s == (
            math.inf
        )

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(interval_s=NAN), "interval_s"),
            (dict(tick_s=NAN), "tick_s"),
            (dict(tick_s=0.0), "tick_s"),
            (dict(poll_period_s=NAN), "poll_period_s"),
            (dict(interval_s=math.inf), "interval_s"),
            (dict(tick_s=600.0), "interval_s"),
        ],
    )
    def test_bad_clocks_rejected(self, small_scenario, kwargs, field):
        topology, sequence = small_scenario
        with pytest.raises(ValueError, match=field):
            run_soak(topology, sequence, 2, (), **kwargs)
