"""Tests for the MaxSiteFlow LP and the concurrent-flow calibrator."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.formulation import MaxAllFlowProblem
from repro.core.siteflow import (
    SiteFlowSolver,
    _SOLVER_CACHE,
    _concurrent_flow_rows,
    max_concurrent_scale,
    solve_max_site_flow,
)
from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix

from conftest import make_pair_demands


def _problem(tiny_topology, volumes=(6.0, 6.0)):
    demands = DemandMatrix([make_pair_demands(list(volumes))])
    return MaxAllFlowProblem(tiny_topology, demands), demands


class TestMaxSiteFlow:
    def test_allocation_within_demand(self, tiny_topology):
        problem, demands = _problem(tiny_topology, volumes=(3.0, 2.0))
        alloc = solve_max_site_flow(problem, demands.site_demands())
        assert alloc.total <= 5.0 + 1e-6

    def test_allocation_within_capacity(self, tiny_topology):
        # 30 demanded, 20 available over the two disjoint paths.
        problem, demands = _problem(tiny_topology, volumes=(15.0, 15.0))
        alloc = solve_max_site_flow(problem, demands.site_demands())
        assert alloc.total == pytest.approx(20.0, rel=1e-6)

    def test_prefers_short_tunnel(self, tiny_topology):
        """ε·w steers slack allocations onto the 5 ms tunnel."""
        problem, demands = _problem(tiny_topology, volumes=(4.0, 4.0))
        alloc = solve_max_site_flow(problem, demands.site_demands())
        per_tunnel = alloc.per_pair[0]
        assert per_tunnel[0] == pytest.approx(8.0, rel=1e-6)
        assert per_tunnel[1] == pytest.approx(0.0, abs=1e-6)

    def test_respects_residual_capacities(self, tiny_topology):
        problem, demands = _problem(tiny_topology, volumes=(30.0,))
        half = problem.capacities * 0.5
        alloc = solve_max_site_flow(
            problem, demands.site_demands(), capacities=half
        )
        assert alloc.total == pytest.approx(10.0, rel=1e-6)

    def test_zero_demand(self, tiny_topology):
        problem, demands = _problem(tiny_topology, volumes=(0.0,))
        alloc = solve_max_site_flow(problem, demands.site_demands())
        assert alloc.total == pytest.approx(0.0, abs=1e-9)

    def test_wrong_demand_shape_rejected(self, tiny_topology):
        problem, _ = _problem(tiny_topology)
        with pytest.raises(ValueError):
            solve_max_site_flow(problem, np.zeros(5))

    def test_negative_demand_rejected(self, tiny_topology):
        problem, _ = _problem(tiny_topology)
        with pytest.raises(ValueError):
            solve_max_site_flow(problem, np.array([-1.0]))

    def test_weight_override_changes_preference(self, tiny_topology):
        """Cost-based weights steer to the tunnel cheaper by cost."""
        problem, demands = _problem(tiny_topology, volumes=(4.0,))
        # Invert preference: make the short tunnel "expensive".
        override = np.array([10.0, 1.0])
        alloc = solve_max_site_flow(
            problem, demands.site_demands(), tunnel_weights=override
        )
        per_tunnel = alloc.per_pair[0]
        assert per_tunnel[1] == pytest.approx(4.0, rel=1e-6)

    def test_bad_weight_shape_rejected(self, tiny_topology):
        problem, demands = _problem(tiny_topology)
        with pytest.raises(ValueError):
            solve_max_site_flow(
                problem,
                demands.site_demands(),
                tunnel_weights=np.ones(7),
            )

    def test_b4_full_feasibility(self, b4_topology, b4_demands):
        problem = MaxAllFlowProblem(b4_topology, b4_demands)
        alloc = solve_max_site_flow(problem, b4_demands.site_demands())
        # Recompute link loads and verify no overload.
        loads = {link.key: 0.0 for link in b4_topology.network.links}
        for k in range(b4_topology.catalog.num_pairs):
            for t, tunnel in enumerate(b4_topology.catalog.tunnels(k)):
                for key in tunnel.links:
                    loads[key] += alloc.per_pair[k][t]
        for link in b4_topology.network.links:
            assert loads[link.key] <= link.capacity * (1 + 1e-6)


def _throwaway_topology(tag: int) -> TwoLayerTopology:
    net = SiteNetwork(name=f"churn{tag}")
    net.add_duplex_link("a", "b", capacity=10.0, latency_ms=5.0)
    catalog = build_tunnels(net, [("a", "b")], tunnels_per_pair=1)
    return TwoLayerTopology(
        network=net,
        catalog=catalog,
        layout=EndpointLayout({"a": 2, "b": 2}),
    )


def _edge_case_topology() -> TwoLayerTopology:
    """Three site pairs: two tunnels, one tunnel, and none at all.

    The empty pair models a failure projection leaving a pair
    unroutable (``add_pair(..., allow_empty=True)``).
    """
    net = SiteNetwork(name="edge")
    net.add_duplex_link("a", "b", capacity=10.0, latency_ms=5.0)
    net.add_duplex_link("a", "r", capacity=10.0, latency_ms=10.0)
    net.add_duplex_link("r", "b", capacity=10.0, latency_ms=10.0)
    net.add_duplex_link("c", "d", capacity=10.0, latency_ms=2.0)
    catalog = build_tunnels(
        net, [("a", "b"), ("c", "d")], tunnels_per_pair=2
    )
    catalog.add_pair("d", "c", [], allow_empty=True)
    layout = EndpointLayout({"a": 2, "b": 2, "c": 2, "d": 2, "r": 0})
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


class TestSolverCache:
    def test_cache_stays_bounded_under_topology_churn(self):
        """Dead-weakref entries are purged on insert, not leaked."""
        start = len(_SOLVER_CACHE)
        for tag in range(25):
            topology = _throwaway_topology(tag)
            solver = SiteFlowSolver.for_topology(topology)
            assert solver is SiteFlowSolver.for_topology(topology)
            del topology
            gc.collect()
        # Each insert purges the previously-dead entries; at most the
        # most recent (already dead) entry may still linger.
        assert len(_SOLVER_CACHE) <= start + 1

    def test_cache_hit_does_not_rebuild(self, tiny_topology):
        first = SiteFlowSolver.for_topology(tiny_topology)
        second = SiteFlowSolver.for_topology(tiny_topology)
        assert first is second


class TestFillOrderEdgeCases:
    def test_fill_orders_cover_all_pair_shapes(self):
        topology = _edge_case_topology()
        solver = SiteFlowSolver.for_topology(topology)
        orders, ordered_cols = solver.fill_orders("weight")
        assert len(orders) == 3
        assert orders[0].size == 2  # two-tunnel pair
        assert orders[1].size == 1  # single-tunnel pair
        assert orders[2].size == 0  # unroutable pair
        assert ordered_cols.size == solver.num_tunnel_vars
        offsets = solver.tunnel_offsets
        for k in range(3):
            cols = ordered_cols[offsets[k] : offsets[k + 1]]
            assert set(cols) == set(range(offsets[k], offsets[k + 1]))

    def test_incidence_col_bounds_segments(self):
        topology = _edge_case_topology()
        solver = SiteFlowSolver.for_topology(topology)
        bounds = solver.incidence_col_bounds
        assert bounds.size == solver.num_tunnel_vars + 1
        assert bounds[0] == 0
        assert bounds[-1] == solver.incidence_rows.size
        assert np.all(np.diff(bounds) >= 0)
        for c in range(solver.num_tunnel_vars):
            segment = solver.incidence_cols[bounds[c] : bounds[c + 1]]
            assert np.all(segment == c)

    def test_solve_all_zero_demands(self):
        topology = _edge_case_topology()
        solver = SiteFlowSolver.for_topology(topology)
        alloc = solver.solve(np.zeros(3))
        assert alloc.total == pytest.approx(0.0, abs=1e-9)

    def test_solve_with_empty_pair_demand(self):
        """Demand on an unroutable pair is simply not allocated."""
        topology = _edge_case_topology()
        solver = SiteFlowSolver.for_topology(topology)
        alloc = solver.solve(np.array([4.0, 3.0, 5.0]))
        assert alloc.per_pair[2].size == 0
        assert alloc.per_pair[0].sum() == pytest.approx(4.0, rel=1e-6)
        assert alloc.per_pair[1].sum() == pytest.approx(3.0, rel=1e-6)

    def test_single_tunnel_pair_caps_at_link(self):
        topology = _edge_case_topology()
        solver = SiteFlowSolver.for_topology(topology)
        alloc = solver.solve(np.array([0.0, 25.0, 0.0]))
        assert alloc.per_pair[1].sum() == pytest.approx(10.0, rel=1e-6)


class TestMaxConcurrentScaleEdgeCases:
    def _demands(self, volumes_by_pair):
        return DemandMatrix(
            [make_pair_demands(v) for v in volumes_by_pair]
        )

    def test_empty_pair_with_demand_scales_to_zero(self):
        topology = _edge_case_topology()
        demands = self._demands([[1.0], [1.0], [1.0]])
        problem = MaxAllFlowProblem(topology, demands)
        alpha = max_concurrent_scale(problem, demands.site_demands())
        assert alpha == pytest.approx(0.0, abs=1e-9)

    def test_single_tunnel_pair_scale(self):
        topology = _edge_case_topology()
        demands = self._demands([[], [5.0], []])
        problem = MaxAllFlowProblem(topology, demands)
        alpha = max_concurrent_scale(problem, demands.site_demands())
        # 10 Gbps link vs 5 demanded -> alpha = 2.
        assert alpha == pytest.approx(2.0, rel=1e-6)

    def test_all_zero_demands_return_inf(self):
        topology = _edge_case_topology()
        demands = self._demands([[0.0], [0.0], [0.0]])
        problem = MaxAllFlowProblem(topology, demands)
        alpha = max_concurrent_scale(problem, demands.site_demands())
        assert alpha == float("inf")


def _concurrent_flow_rows_loop(problem, site_demands, caps, active):
    """The per-entry Python loop ``_concurrent_flow_rows`` replaced."""
    from scipy import sparse

    num_vars = problem.num_tunnel_vars
    offsets = problem.tunnel_offsets
    rows, cols, vals = [], [], []
    for row, k in enumerate(active):
        for col in range(offsets[k], offsets[k + 1]):
            rows.append(row)
            cols.append(int(col))
            vals.append(-1.0)
        rows.append(row)
        cols.append(num_vars)
        vals.append(float(site_demands[k]))
    demand_matrix = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(active.size, num_vars + 1)
    )
    link_rows, link_cols = problem.tunnel_link_incidence()
    capacity_matrix = sparse.coo_matrix(
        (np.ones(link_rows.size), (link_rows, link_cols)),
        shape=(caps.size, num_vars + 1),
    )
    a_ub = sparse.vstack([demand_matrix, capacity_matrix], format="csr")
    b_ub = np.concatenate([np.zeros(active.size), np.maximum(caps, 0.0)])
    return a_ub, b_ub


class TestConcurrentFlowRows:
    """The array-built constraint matrix is the loop-built one, entry for
    entry, so HiGHS sees the same LP and returns the same ``α*``."""

    def _assert_same_rows(self, topology, demands):
        problem = MaxAllFlowProblem(topology, demands)
        site_demands = demands.site_demands()
        active = np.flatnonzero(site_demands > 0)
        args = (problem, site_demands, problem.capacities, active)
        a_ub, b_ub = _concurrent_flow_rows(*args)
        want_a, want_b = _concurrent_flow_rows_loop(*args)
        assert a_ub.shape == want_a.shape
        for field in ("indptr", "indices", "data"):
            got, want = getattr(a_ub, field), getattr(want_a, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(b_ub, want_b)

    def test_twan_60(self):
        from repro.experiments.common import build_scenario

        scenario = build_scenario("twan", total_endpoints=2_000, seed=42)
        assert scenario.topology.catalog.num_pairs == 60
        self._assert_same_rows(scenario.topology, scenario.demands)

    @pytest.mark.parametrize(
        "volumes_by_pair",
        [
            [[1.0], [1.0], [1.0]],  # the empty pair carries demand
            [[], [5.0], []],  # only the single-tunnel pair is active
            [[2.0, 3.0], [], [4.0]],  # first and last rows, none between
        ],
    )
    def test_empty_and_single_tunnel_pairs(self, volumes_by_pair):
        demands = DemandMatrix(
            [make_pair_demands(v) for v in volumes_by_pair]
        )
        self._assert_same_rows(_edge_case_topology(), demands)


class TestMaxConcurrentScale:
    def test_exact_on_tiny(self, tiny_topology):
        problem, demands = _problem(tiny_topology, volumes=(10.0,))
        alpha = max_concurrent_scale(problem, demands.site_demands())
        # 20 Gbps over both paths vs 10 demanded -> alpha = 2.
        assert alpha == pytest.approx(2.0, rel=1e-6)

    def test_no_demand_returns_inf(self, tiny_topology):
        problem, demands = _problem(tiny_topology, volumes=(0.0,))
        alpha = max_concurrent_scale(problem, demands.site_demands())
        assert alpha == float("inf")

    def test_scaled_demand_is_satisfiable(self, b4_topology, b4_demands):
        problem = MaxAllFlowProblem(b4_topology, b4_demands)
        site_demands = b4_demands.site_demands()
        alpha = max_concurrent_scale(problem, site_demands)
        alloc = solve_max_site_flow(problem, site_demands * alpha)
        assert alloc.total == pytest.approx(
            float(site_demands.sum()) * alpha, rel=1e-4
        )

    def test_wrong_shape_rejected(self, tiny_topology):
        problem, _ = _problem(tiny_topology)
        with pytest.raises(ValueError):
            max_concurrent_scale(problem, np.zeros(3))
