"""Tests for the incremental cross-interval solve engine.

Covers the three layers of :mod:`repro.core.incremental`:

* equivalence: at ``delta_threshold=0.0`` the incremental engine is
  bit-for-bit identical to the cold path over whole interval replays
  (pinned on fixed scenarios and property-tested on random ones);
* feasibility: at a generous threshold every patched interval still
  satisfies constraints (1a)-(1c), and the reuse counters actually fire;
* guards: the delta-patch fallback reasons, the second-stage warm-fill
  quality gate, and state invalidation on topology / population change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    IncrementalConfig,
    MegaTEOptimizer,
    UNASSIGNED,
    check_feasibility,
)
from repro.core.incremental import (
    ClassLPState,
    IncrementalState,
    patch_class_allocation,
    warm_fill_pair,
)
from repro.core.siteflow import SiteFlowSolver
from repro.experiments.interval_replay import (
    run_cold_vs_incremental,
    run_interval_replay,
)
from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix, DiurnalSequence

from test_property_invariants import random_scenario

#: Small fixed replay used by the equivalence and observability tests.
REPLAY = dict(
    topology_name="twan",
    total_endpoints=2_000,
    num_site_pairs=20,
    target_load=1.0,
    seed=7,
    sequence_seed=11,
    num_intervals=4,
)


class TestEquivalence:
    def test_threshold_zero_reproduces_cold_digest(self):
        cold = run_interval_replay(**REPLAY)
        inc = run_interval_replay(
            optimizer=MegaTEOptimizer(
                incremental=True, delta_threshold=0.0
            ),
            **REPLAY,
        )
        assert inc.assignment_digest == cold.assignment_digest
        assert inc.satisfied_volume == cold.satisfied_volume

    def test_config_instance_accepted(self):
        cold = run_interval_replay(**REPLAY)
        inc = run_interval_replay(
            optimizer=MegaTEOptimizer(
                incremental=IncrementalConfig(delta_threshold=0.0)
            ),
            **REPLAY,
        )
        assert inc.assignment_digest == cold.assignment_digest

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=random_scenario(), seq_seed=st.integers(0, 1000))
    def test_threshold_zero_equivalence_property(self, scenario, seq_seed):
        """Random WANs, diurnal 3-interval sequences: bit-identical."""
        topology, demands = scenario
        sequence = DiurnalSequence(base=demands, seed=seq_seed)
        cold = MegaTEOptimizer()
        inc = MegaTEOptimizer(incremental=True, delta_threshold=0.0)
        for interval in range(3):
            matrix = sequence.matrix(interval)
            a = cold.solve(topology, matrix)
            b = inc.solve(topology, matrix)
            for pa, pb in zip(
                a.assignment.per_pair, b.assignment.per_pair
            ):
                assert np.array_equal(pa, pb)
            assert a.satisfied_volume == b.satisfied_volume

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=random_scenario(), seq_seed=st.integers(0, 1000))
    def test_incremental_always_feasible_property(self, scenario, seq_seed):
        """Generous threshold: patched intervals must stay feasible."""
        topology, demands = scenario
        sequence = DiurnalSequence(base=demands, seed=seq_seed)
        inc = MegaTEOptimizer(incremental=True, delta_threshold=5.0)
        for interval in range(3):
            result = inc.solve(topology, sequence.matrix(interval))
            report = check_feasibility(topology, result)
            assert report.feasible, report.violations[:3]


class TestObservability:
    def test_reuse_counters_fire_at_generous_threshold(self):
        report = run_interval_replay(
            optimizer=MegaTEOptimizer(
                incremental=True, delta_threshold=2.0
            ),
            **REPLAY,
        )
        assert report.lp_solves_skipped > 0
        assert report.pairs_delta_patched > 0
        assert report.lp_solves + report.lp_solves_skipped > 0
        # Satisfaction stays close to the cold solve.
        cold = run_interval_replay(**REPLAY)
        assert report.satisfied_volume >= 0.98 * cold.satisfied_volume

    def test_cold_solve_reports_zero_reuse(self):
        report = run_interval_replay(**REPLAY)
        assert report.lp_solves_skipped == 0
        assert report.pairs_delta_patched == 0
        assert report.ssp_state_reused == 0
        assert report.lp_warm_starts == 0

    def test_refresh_every_forces_cold_intervals(self):
        every = run_interval_replay(
            optimizer=MegaTEOptimizer(
                incremental=True, delta_threshold=2.0, refresh_every=1
            ),
            **REPLAY,
        )
        # Refreshing every interval means the fast path never fires.
        assert every.lp_solves_skipped == 0
        assert every.ssp_state_reused == 0

    def test_cold_vs_incremental_mode(self):
        outcome = run_cold_vs_incremental(
            total_endpoints=1_500,
            num_site_pairs=12,
            num_intervals=3,
            delta_threshold=0.0,
        )
        assert outcome["digest_match"] is True
        assert outcome["satisfied_ratio"] == pytest.approx(1.0)
        assert outcome["solver_speedup"] > 0
        assert outcome["cold"]["lp_solves_skipped"] == 0


class TestStateInvalidation:
    def test_revalidate_resets_on_topology_change(self, tiny_topology):
        from conftest import make_pair_demands

        demands = DemandMatrix([make_pair_demands([1.0, 2.0])])
        state = IncrementalState()
        assert state.revalidate(tiny_topology, demands) is False
        state.lp[1] = "sentinel"
        assert state.revalidate(tiny_topology, demands) is True
        assert state.lp  # carried state kept

        net = SiteNetwork(name="other")
        net.add_duplex_link("a", "b", capacity=5.0, latency_ms=1.0)
        other = TwoLayerTopology(
            network=net,
            catalog=build_tunnels(net, [("a", "b")], tunnels_per_pair=1),
            layout=EndpointLayout({"a": 2, "b": 2}),
        )
        assert state.revalidate(other, demands) is False
        assert not state.lp  # dropped with the old topology

    def test_revalidate_resets_on_population_change(self, tiny_topology):
        from conftest import make_pair_demands

        state = IncrementalState()
        d1 = DemandMatrix([make_pair_demands([1.0, 2.0])])
        d2 = DemandMatrix([make_pair_demands([1.0, 2.0, 3.0])])
        assert state.revalidate(tiny_topology, d1) is False
        assert state.revalidate(tiny_topology, d2) is False
        assert state.revalidate(tiny_topology, d2) is True

    def test_sync_class_population_drops_stale_assignments(self):
        state = IncrementalState()
        idx = np.array([0, 1, 2])
        assert state.sync_class_population(1, idx) is False
        state.ssp_assigned[(1, 0)] = np.array([0])
        state.ssp_assigned[(2, 0)] = np.array([0])
        assert state.sync_class_population(1, idx) is True
        assert (1, 0) in state.ssp_assigned
        assert state.sync_class_population(1, np.array([0, 2])) is False
        assert (1, 0) not in state.ssp_assigned
        assert (2, 0) in state.ssp_assigned  # other classes untouched

    def test_optimizer_survives_topology_swap(
        self, tiny_topology, b4_topology, b4_demands
    ):
        from conftest import make_pair_demands

        inc = MegaTEOptimizer(incremental=True, delta_threshold=2.0)
        tiny_demands = DemandMatrix(
            [make_pair_demands([3.0, 2.0], with_endpoints=True)]
        )
        inc.solve(tiny_topology, tiny_demands)
        result = inc.solve(b4_topology, b4_demands)
        assert check_feasibility(b4_topology, result).feasible

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IncrementalConfig(delta_threshold=-0.1)
        with pytest.raises(ValueError):
            IncrementalConfig(refresh_every=-1)


class TestPatchClassAllocation:
    def _fixture(self, tiny_topology, demand=6.0):
        solver = SiteFlowSolver.for_topology(tiny_topology)
        demands = np.array([demand])
        alloc = solver.solve_flat(demands)
        _, ordered_cols = solver.fill_orders("weight")
        state = ClassLPState(
            demands=demands,
            alloc_flat=alloc,
            residual_in=solver.capacities.copy(),
        )
        return solver, state, ordered_cols

    def test_identical_inputs_reuse_exactly(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology)
        out = patch_class_allocation(
            solver,
            state,
            state.demands.copy(),
            state.residual_in.copy(),
            cols,
            0.0,
        )
        assert out.alloc is not None
        assert np.array_equal(out.alloc, state.alloc_flat)
        assert out.pairs_patched == 0

    def test_threshold_zero_rejects_any_change(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology)
        out = patch_class_allocation(
            solver,
            state,
            state.demands + 0.5,
            state.residual_in.copy(),
            cols,
            0.0,
        )
        assert out.alloc is None
        assert out.reason == "threshold"

    def test_threshold_zero_rejects_residual_shift(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology)
        out = patch_class_allocation(
            solver,
            state,
            state.demands.copy(),
            state.residual_in * 0.5,
            cols,
            0.0,
        )
        assert out.alloc is None
        assert out.reason == "residual_shift"

    def test_decrease_sheds_least_preferred_first(self, tiny_topology):
        # Demand 18 over 10+10 capacity: preferred tunnel full at 10,
        # the long one carries 8.  Shrinking to 12 must trim the long
        # tunnel down to 2 and keep the preferred one full.
        solver, state, cols = self._fixture(tiny_topology, demand=18.0)
        out = patch_class_allocation(
            solver,
            state,
            np.array([12.0]),
            state.residual_in.copy(),
            cols,
            1.0,
        )
        assert out.alloc is not None
        assert out.pairs_patched == 1
        assert out.alloc.sum() == pytest.approx(12.0)
        order = solver.fill_orders("weight")[0][0]
        preferred = int(order[0])
        assert out.alloc[preferred] == pytest.approx(
            state.alloc_flat[preferred]
        )

    def test_increase_fills_preferred_headroom(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology, demand=6.0)
        out = patch_class_allocation(
            solver,
            state,
            np.array([16.0]),
            state.residual_in.copy(),
            cols,
            2.0,
        )
        assert out.alloc is not None
        assert out.alloc.sum() == pytest.approx(16.0)
        # Link loads stay within capacity.
        loads = solver.link_tunnel_matrix @ out.alloc
        assert np.all(loads <= solver.capacities + 1e-9)

    def test_increase_beyond_headroom_falls_back(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology, demand=6.0)
        out = patch_class_allocation(
            solver,
            state,
            np.array([25.0]),  # > 20 total capacity
            state.residual_in.copy(),
            cols,
            10.0,
        )
        assert out.alloc is None
        assert out.reason == "headroom"

    def test_large_relative_delta_falls_back(self, tiny_topology):
        solver, state, cols = self._fixture(tiny_topology, demand=6.0)
        out = patch_class_allocation(
            solver,
            state,
            np.array([9.1]),  # ~52% relative change
            state.residual_in.copy(),
            cols,
            0.5,
        )
        assert out.alloc is None
        assert out.reason == "threshold"

    def test_unsatisfied_previous_falls_back(self, tiny_topology):
        # Previous demand 30 against 20 of capacity: the LP left 10
        # unserved, so a shrink cannot be patched soundly.
        solver, state, cols = self._fixture(tiny_topology, demand=30.0)
        out = patch_class_allocation(
            solver,
            state,
            np.array([15.0]),
            state.residual_in.copy(),
            cols,
            1.0,
        )
        assert out.alloc is None
        assert out.reason == "unsatisfied_previous"


class TestWarmFillPair:
    def test_unchanged_inputs_keep_assignment(self):
        volumes = np.array([3.0, 2.0, 1.0])
        alloc = np.array([4.0, 2.0])
        prev = np.array([0, 1, 0], dtype=np.int32)
        fill_order = np.array([0, 1])
        out = warm_fill_pair(volumes, alloc, fill_order, prev, 0.1)
        assert out is not None
        assigned, placed = out
        assert np.array_equal(assigned, prev)
        assert placed.sum() == pytest.approx(6.0)

    def test_shrunk_allocation_evicts_and_repacks(self):
        volumes = np.array([3.0, 2.0])
        prev = np.array([0, 0], dtype=np.int32)
        fill_order = np.array([0, 1])
        out = warm_fill_pair(
            volumes, np.array([3.0, 2.0]), fill_order, prev, 0.1
        )
        assert out is not None
        assigned, placed = out
        # Tunnel 0 keeps only the prefix that fits (3.0); the evicted
        # flow is repacked onto tunnel 1.
        assert assigned[0] == 0
        assert assigned[1] == 1
        assert np.all(placed <= np.array([3.0, 2.0]) + 1e-9)

    def test_quality_gate_rejects_poor_fill(self):
        volumes = np.array([5.0, 5.0])
        prev = np.full(2, UNASSIGNED, dtype=np.int32)
        out = warm_fill_pair(
            volumes, np.array([1.0]), np.array([0]), prev, 0.1
        )
        assert out is None

    def test_size_mismatch_returns_none(self):
        out = warm_fill_pair(
            np.array([1.0, 2.0]),
            np.array([5.0]),
            np.array([0]),
            np.array([0], dtype=np.int32),
            0.1,
        )
        assert out is None

    def test_stale_tunnel_index_returns_none(self):
        out = warm_fill_pair(
            np.array([1.0]),
            np.array([5.0]),
            np.array([0]),
            np.array([3], dtype=np.int32),
            0.1,
        )
        assert out is None
