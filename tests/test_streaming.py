"""Unit tests for the streaming control loop and admission control.

Covers the event machinery (:class:`StreamState` mutation semantics,
byte-exact burst unwind, seeded topology flaps), the trigger decision
lattice, the admission controller's shed/defer arithmetic, and a
smoke run of :func:`run_stream` end to end.  The cross-cutting
determinism anchors live in ``tests/test_streaming_property.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import build_scenario
from repro.simulation.admission import (
    AdmissionConfig,
    AdmissionController,
)
from repro.simulation.streaming import (
    DELTA,
    FULL,
    NOOP,
    STREAM_SCENARIO_NAMES,
    BurstEnd,
    BurstStart,
    DeltaTrigger,
    FlowArrival,
    FlowDeparture,
    HybridTrigger,
    OracleTrigger,
    PeriodicTrigger,
    StreamState,
    TopologyChange,
    TriggerContext,
    VolumeScale,
    VolumeSet,
    make_trigger,
    max_rel_delta,
    run_stream,
    stream_scenario_events,
)
from repro.traffic.demand import DemandMatrix

from conftest import make_pair_demands

NAN = float("nan")
INF = float("inf")


@pytest.fixture(autouse=True)
def _registry_guard():
    yield
    obs.reset()
    obs.set_enabled(False)


def _base() -> DemandMatrix:
    return DemandMatrix(
        [
            make_pair_demands([1.0, 2.0, 3.0], qos=[1, 2, 3]),
            make_pair_demands([4.0, 5.0], qos=[1, 3]),
        ]
    )


@pytest.fixture(scope="module")
def small_scenario():
    sc = build_scenario(
        "twan",
        total_endpoints=2_000,
        num_site_pairs=24,
        target_load=0.8,
        seed=7,
    )
    return sc


class TestStreamState:
    def test_volume_scale_and_set(self):
        state = StreamState(None, _base())
        state.apply(VolumeScale(time=0.0, pair=0, factor=2.0))
        np.testing.assert_allclose(
            state.matrix().pair(0).volumes, [2.0, 4.0, 6.0]
        )
        state.apply(
            VolumeSet(time=0.0, pair=1, volumes=(7.0, 8.0))
        )
        np.testing.assert_allclose(
            state.matrix().pair(1).volumes, [7.0, 8.0]
        )
        # Pair 0 untouched by the pair-1 set.
        np.testing.assert_allclose(
            state.matrix().pair(0).volumes, [2.0, 4.0, 6.0]
        )

    def test_volume_set_size_mismatch_rejected(self):
        state = StreamState(None, _base())
        with pytest.raises(ValueError, match="volume_set"):
            state.apply(VolumeSet(time=0.0, pair=0, volumes=(1.0,)))

    def test_pair_out_of_range_rejected(self):
        state = StreamState(None, _base())
        with pytest.raises(ValueError, match="out of range"):
            state.apply(VolumeScale(time=0.0, pair=2, factor=1.0))

    def test_arrival_adds_scaled_base_volume(self):
        state = StreamState(None, _base())
        state.apply(VolumeScale(time=0.0, pair=0, factor=0.0))
        state.apply(
            FlowArrival(
                time=0.0, pair=0, fraction=1.0,
                volume_scale=0.5, choice_seed=3,
            )
        )
        np.testing.assert_allclose(
            state.matrix().pair(0).volumes, [0.5, 1.0, 1.5]
        )

    def test_departure_zeroes_seeded_subset(self):
        state = StreamState(None, _base())
        state.apply(
            FlowDeparture(
                time=0.0, pair=0, fraction=1.0, choice_seed=3
            )
        )
        np.testing.assert_allclose(
            state.matrix().pair(0).volumes, [0.0, 0.0, 0.0]
        )
        # Identities survive: still 3 flow slots.
        assert state.matrix().pair(0).num_pairs == 3

    def test_burst_unwind_is_byte_exact(self):
        state = StreamState(None, _base())
        # Walk the volumes through a non-trivial float history first.
        for factor in (1.1, 0.7, 1.3):
            state.apply(VolumeScale(time=0.0, pair=0, factor=factor))
        before = state.volumes.copy()
        state.apply(
            BurstStart(time=1.0, pair=0, magnitude=3.0, burst_id=9)
        )
        assert not np.array_equal(state.volumes, before)
        state.apply(BurstEnd(time=2.0, burst_id=9))
        assert state.volumes.tobytes() == before.tobytes()

    def test_stacked_bursts_unwind_in_order(self):
        state = StreamState(None, _base())
        base = state.volumes.copy()
        state.apply(
            BurstStart(time=0.0, pair=0, magnitude=1.5, burst_id=0)
        )
        mid = state.volumes.copy()
        state.apply(
            BurstStart(time=1.0, pair=0, magnitude=1.5, burst_id=1)
        )
        state.apply(BurstEnd(time=2.0, burst_id=1))
        assert state.volumes.tobytes() == mid.tobytes()
        state.apply(BurstEnd(time=3.0, burst_id=0))
        assert state.volumes.tobytes() == base.tobytes()

    def test_unmatched_burst_end_rejected(self):
        state = StreamState(None, _base())
        with pytest.raises(ValueError, match="unknown burst"):
            state.apply(BurstEnd(time=0.0, burst_id=42))

    def test_duplicate_burst_id_rejected(self):
        state = StreamState(None, _base())
        state.apply(
            BurstStart(time=0.0, pair=0, magnitude=2.0, burst_id=1)
        )
        with pytest.raises(ValueError, match="already active"):
            state.apply(
                BurstStart(time=1.0, pair=1, magnitude=2.0, burst_id=1)
            )

    def test_topology_change_and_restore(self, small_scenario):
        state = StreamState(small_scenario.topology, _base())
        cut = TopologyChange(time=0.0, num_fibers=1, scenario_seed=3)
        state.apply(cut)
        assert state.topology is not small_scenario.topology
        assert state.topology_changed
        degraded = state.topology
        # Same scenario again reuses the cached degraded variant.
        state.apply(cut)
        assert state.topology is degraded
        state.apply(
            TopologyChange(time=1.0, num_fibers=0, scenario_seed=0)
        )
        assert state.topology is small_scenario.topology


def _ctx(**overrides) -> TriggerContext:
    defaults = dict(
        epoch=5,
        time=150.0,
        num_events=1,
        measured_drift=0.0,
        predicted_drift=0.0,
        staleness_s=60.0,
        topology_changed=False,
    )
    defaults.update(overrides)
    return TriggerContext(**defaults)


class TestTriggers:
    def test_oracle_solves_on_any_event(self):
        assert OracleTrigger().decide(_ctx(num_events=1)) == FULL
        assert OracleTrigger().decide(_ctx(num_events=0)) == NOOP
        assert (
            OracleTrigger().decide(
                _ctx(num_events=0, topology_changed=True)
            )
            == FULL
        )

    def test_periodic_solves_on_staleness(self):
        trigger = PeriodicTrigger(period_s=300.0)
        assert trigger.decide(_ctx(staleness_s=299.0)) == NOOP
        assert trigger.decide(_ctx(staleness_s=300.0)) == FULL
        assert (
            trigger.decide(
                _ctx(staleness_s=0.0, topology_changed=True)
            )
            == FULL
        )

    def test_delta_solves_on_drift(self):
        trigger = DeltaTrigger(threshold=0.25)
        assert trigger.decide(_ctx(measured_drift=0.25)) == NOOP
        assert trigger.decide(_ctx(measured_drift=0.26)) == DELTA
        assert trigger.decide(_ctx(predicted_drift=0.5)) == DELTA
        assert (
            trigger.decide(_ctx(topology_changed=True)) == FULL
        )

    def test_zero_threshold_fires_on_any_drift(self):
        trigger = DeltaTrigger(threshold=0.0)
        assert trigger.decide(_ctx(measured_drift=1e-9)) == DELTA
        assert trigger.decide(_ctx(measured_drift=0.0)) == NOOP

    def test_hybrid_lattice(self):
        trigger = HybridTrigger(threshold=0.25, refresh_s=600.0)
        assert trigger.decide(_ctx()) == NOOP
        assert trigger.decide(_ctx(measured_drift=0.3)) == DELTA
        assert trigger.decide(_ctx(staleness_s=600.0)) == FULL
        # Refresh outranks drift: a full solve also covers the delta.
        assert (
            trigger.decide(
                _ctx(staleness_s=600.0, measured_drift=0.9)
            )
            == FULL
        )

    def test_make_trigger_names(self):
        assert make_trigger("oracle").name == "oracle"
        assert make_trigger("periodic", period_s=60.0).period_s == 60.0
        assert make_trigger("delta", threshold=0.1).threshold == 0.1
        hybrid = make_trigger("hybrid", threshold=0.2, refresh_s=120.0)
        assert (hybrid.threshold, hybrid.refresh_s) == (0.2, 120.0)
        with pytest.raises(ValueError, match="unknown trigger"):
            make_trigger("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicTrigger(period_s=0.0)
        with pytest.raises(ValueError):
            DeltaTrigger(threshold=-0.1)
        with pytest.raises(ValueError):
            HybridTrigger(refresh_s=0.0)

    @pytest.mark.parametrize(
        "name, kwargs, field",
        [
            ("delta", dict(threshold=NAN), "threshold"),
            ("periodic", dict(period_s=NAN), "period_s"),
            ("hybrid", dict(refresh_s=NAN), "refresh_s"),
            ("hybrid", dict(threshold=NAN), "threshold"),
        ],
    )
    def test_nan_rejected(self, name, kwargs, field):
        # A NaN bound compares False both ways: the trigger would
        # never solve (or never refresh).
        with pytest.raises(ValueError, match=field):
            make_trigger(name, **kwargs)

    def test_inf_still_means_never(self):
        assert PeriodicTrigger(period_s=INF).decide(_ctx()) == NOOP
        assert HybridTrigger(refresh_s=INF).decide(_ctx()) == NOOP

    def test_max_rel_delta_uses_incremental_semantics(self):
        ref = np.array([10.0, 0.0])
        cur = np.array([12.0, 0.0])
        assert max_rel_delta(cur, ref) == pytest.approx(0.2)
        # Growth from zero is unbounded drift (floor, not div-by-zero).
        assert max_rel_delta(np.array([10.0, 1.0]), ref) > 1e9
        assert max_rel_delta(np.array([]), np.array([])) == 0.0


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            stream_scenario_events("nope", 24, 10)

    def test_nan_tick_rejected(self):
        with pytest.raises(ValueError, match="tick_s"):
            stream_scenario_events("flash-crowd", 24, 10, tick_s=NAN)

    @pytest.mark.parametrize("name", STREAM_SCENARIO_NAMES)
    def test_events_sorted_and_bounded(self, name):
        events = stream_scenario_events(name, 24, 32, seed=3)
        assert events
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t <= 32 * 30.0 for t in times)

    def test_flash_crowd_bursts_are_balanced(self):
        events = stream_scenario_events("flash-crowd", 36, 48, seed=0)
        starts = [e for e in events if isinstance(e, BurstStart)]
        ends = [e for e in events if isinstance(e, BurstEnd)]
        assert starts and len(starts) == len(ends)
        assert {e.burst_id for e in starts} == {
            e.burst_id for e in ends
        }

    def test_failure_surge_cuts_and_heals(self):
        events = stream_scenario_events("failure-surge", 24, 32, seed=0)
        topo = [e for e in events if isinstance(e, TopologyChange)]
        assert len(topo) == 2
        assert topo[0].num_fibers == 1
        assert topo[1].num_fibers == 0
        assert topo[0].time < topo[1].time


class TestAdmission:
    def test_under_budget_is_identity(self):
        base = _base()
        controller = AdmissionController.for_matrix(
            base, AdmissionConfig(budget_factor=1.5)
        )
        outcome = controller.admit(base.table)
        assert outcome.volumes.tobytes() == base.table.volumes.tobytes()
        assert outcome.shed_total == 0.0

    def test_sheds_lowest_class_first_protecting_qos1(self):
        base = _base()
        controller = AdmissionController.for_matrix(
            base, AdmissionConfig(budget_factor=1.0)
        )
        # Double pair 0 (volumes 1, 2, 3 across classes 1, 2, 3):
        # excess 6 over budget 6 == the doubled class-3 volume, so
        # class 3 is shed to zero and class 2 is never touched.
        table = base.table
        doubled = table.volumes.copy()
        doubled[:3] *= 2.0
        from repro.core.flowtable import FlowTable

        offered = FlowTable(
            offsets=table.offsets,
            volumes=doubled,
            qos=table.qos,
            src_endpoints=table.src_endpoints,
            dst_endpoints=table.dst_endpoints,
            has_endpoints=table.has_endpoints,
        )
        outcome = controller.admit(offered)
        admitted = outcome.volumes
        # QoS-1 flow untouched.
        assert admitted[0] == 2.0
        # Class 3 (volume 6) absorbs the whole excess; class 2 rides.
        assert admitted[2] == 0.0
        assert admitted[1] == 4.0
        assert admitted[:3].sum() == pytest.approx(6.0)
        assert outcome.shed_total == pytest.approx(6.0)
        assert outcome.shed_by_class[3] == pytest.approx(6.0)

    def test_protected_class_can_exceed_budget(self):
        base = DemandMatrix([make_pair_demands([10.0], qos=[1])])
        controller = AdmissionController.for_matrix(
            base, AdmissionConfig(budget_factor=0.5)
        )
        outcome = controller.admit(base.table)
        # Nothing sheddable: QoS-1 rides through over budget.
        assert outcome.volumes[0] == 10.0
        assert outcome.shed_total == 0.0

    def test_defer_releases_backlog_under_headroom(self):
        base = DemandMatrix(
            [make_pair_demands([5.0, 5.0], qos=[1, 3])]
        )
        controller = AdmissionController.for_matrix(
            base, AdmissionConfig(budget_factor=1.0, defer=True)
        )
        from repro.core.flowtable import FlowTable

        def offered(v3):
            t = base.table
            vol = t.volumes.copy()
            vol[1] = v3
            return FlowTable(
                offsets=t.offsets, volumes=vol, qos=t.qos,
                src_endpoints=t.src_endpoints,
                dst_endpoints=t.dst_endpoints,
                has_endpoints=t.has_endpoints,
            )

        over = controller.admit(offered(9.0))  # total 14 vs budget 10
        assert over.shed_total == pytest.approx(4.0)
        assert controller.backlog_total == pytest.approx(4.0)
        under = controller.admit(offered(2.0))  # headroom 3
        assert under.released == pytest.approx(3.0)
        assert controller.backlog_total == pytest.approx(1.0)
        # Released volume lands on the shed class's flows.
        assert under.volumes[1] == pytest.approx(5.0)
        assert under.volumes[0] == 5.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(budget_factor=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(shed_order=())
        with pytest.raises(ValueError):
            AdmissionConfig(protected=(2,), shed_order=(2, 3))

    def test_budget_shape_mismatch_rejected(self):
        controller = AdmissionController(np.array([1.0]))
        with pytest.raises(ValueError, match="budget vector"):
            controller.admit(_base().table)


class TestRunStream:
    def test_smoke_with_metrics_and_records(self, small_scenario):
        events = stream_scenario_events("flash-crowd", 24, 8, seed=0)
        report = run_stream(
            small_scenario.topology,
            small_scenario.demands,
            events,
            8,
            tick_s=30.0,
            trigger=HybridTrigger(threshold=0.25, refresh_s=600.0),
            scenario="flash-crowd",
            topology_name="twan",
        )
        assert len(report.records) == 8
        assert report.records[0].decision == FULL
        assert report.solves >= 1
        assert report.num_events == sum(
            len(r.events) for r in report.records
        )
        assert 0.0 < report.satisfied_fraction <= 1.0
        assert 0.0 < report.qos1_floor <= 1.0
        assert len(report.assignment_digest) == 64
        # The run leaves its series in the registry for export.
        snapshot = obs.get_registry().snapshot()
        assert "megate_stream_events_total" in snapshot
        assert "megate_stream_resolves_total" in snapshot
        assert "megate_stream_staleness_seconds" in snapshot

    def test_noop_epochs_have_no_solves(self, small_scenario):
        report = run_stream(
            small_scenario.topology,
            small_scenario.demands,
            (),
            4,
            tick_s=30.0,
            trigger=DeltaTrigger(threshold=0.25),
        )
        # Bootstrap solve only; nothing ever drifts.
        assert report.solves == 1
        assert [r.decision for r in report.records] == [
            FULL, NOOP, NOOP, NOOP,
        ]
        # The bootstrap allocation keeps serving: volume still flows.
        assert report.delivered_volume > 0

    def test_admission_meters_shed_volume(self, small_scenario):
        events = stream_scenario_events("flash-crowd", 24, 8, seed=0)
        report = run_stream(
            small_scenario.topology,
            small_scenario.demands,
            events,
            8,
            tick_s=30.0,
            trigger=OracleTrigger(),
            admission=AdmissionConfig(budget_factor=1.0),
        )
        assert report.admission is not None
        assert report.shed_volume >= 0.0
        assert report.admitted_volume <= report.offered_volume + 1e-6
        assert report.shed_volume == pytest.approx(
            report.offered_volume - report.admitted_volume, abs=1e-6
        )

    def test_bad_admission_type_rejected(self, small_scenario):
        with pytest.raises(TypeError, match="admission"):
            run_stream(
                small_scenario.topology,
                small_scenario.demands,
                (),
                2,
                admission=object(),
            )

    @pytest.mark.parametrize("tick_s", [NAN, 0.0, -1.0])
    def test_bad_tick_rejected(self, small_scenario, tick_s):
        # A NaN tick used to drain none of the events.
        with pytest.raises(ValueError, match="tick_s"):
            run_stream(
                small_scenario.topology,
                small_scenario.demands,
                stream_scenario_events("flash-crowd", 24, 4, seed=0),
                4,
                tick_s=tick_s,
            )

    def test_registry_enablement_restored(self, small_scenario):
        obs.set_enabled(False)
        run_stream(
            small_scenario.topology, small_scenario.demands, (), 2
        )
        assert not obs.get_registry().enabled
