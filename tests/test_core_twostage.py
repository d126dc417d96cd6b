"""Tests for the MegaTE two-stage optimizer (Algorithm 1 + QoS loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MegaTEOptimizer,
    QoSClass,
    check_feasibility,
    solve_max_all_flow,
)
from repro.core.formulation import MaxAllFlowProblem
from repro.traffic import DemandMatrix

from conftest import make_pair_demands


class TestBasics:
    def test_feasible_on_b4(self, b4_topology, b4_demands):
        result = MegaTEOptimizer().solve(b4_topology, b4_demands)
        report = check_feasibility(b4_topology, result)
        assert report.feasible, report.violations[:3]

    def test_one_tunnel_per_flow(self, b4_topology, b4_demands):
        result = MegaTEOptimizer().solve(b4_topology, b4_demands)
        for arr in result.assignment.per_pair:
            assert arr.ndim == 1  # integral: one tunnel index per flow

    def test_satisfied_volume_consistent(self, b4_topology, b4_demands):
        result = MegaTEOptimizer().solve(b4_topology, b4_demands)
        recomputed = 0.0
        for k, pair in enumerate(b4_demands):
            assigned = result.assignment.per_pair[k]
            recomputed += float(pair.volumes[assigned >= 0].sum())
        assert result.satisfied_volume == pytest.approx(recomputed)

    def test_accepts_everything_under_light_load(self, tiny_topology):
        demands = DemandMatrix(
            [make_pair_demands([1.0, 1.0, 1.0], qos=[1, 2, 3])]
        )
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        assert result.satisfied_fraction == pytest.approx(1.0)

    def test_near_optimal_vs_milp(self, tiny_topology):
        rng = np.random.default_rng(9)
        demands = DemandMatrix(
            [make_pair_demands(rng.uniform(0.2, 1.0, size=40).tolist())]
        )
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        problem = MaxAllFlowProblem(tiny_topology, demands)
        optimal = solve_max_all_flow(problem, relaxed=False)
        assert result.satisfied_volume >= 0.97 * optimal.satisfied_volume

    def test_runtime_recorded(self, tiny_topology, tiny_demands):
        result = MegaTEOptimizer().solve(tiny_topology, tiny_demands)
        assert result.runtime_s > 0
        assert result.stats["stage1_lp_s"] >= 0
        assert result.stats["stage2_ssp_s"] >= 0

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            MegaTEOptimizer(fastssp_epsilon=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(ssp_backend="bogus"), "unknown SSP backend"),
            (dict(lp_backend="bogus"), "lp_backend.*was removed"),
            (dict(lp_backend="highspy"), "lp_backend.*was removed"),
            (dict(lp_backend="auto"), "lp_backend.*was removed"),
            (dict(shard_workers=-1), "shard_workers.*was removed"),
            (dict(shard_workers=2), "shard_workers.*was removed"),
            (dict(shard_workers="auto"), "shard_workers.*was removed"),
        ],
        ids=[
            "ssp_backend",
            "lp_backend",
            "lp_backend_highspy",
            "lp_backend_auto",
            "shard_workers",
            "shard_workers_2",
            "shard_workers_auto",
        ],
    )
    def test_explicit_selections_fail_at_construction(self, kwargs, message):
        """A bad backend name, or a selection of a removed LP backend or
        of process sharding, fails at construction, typed."""
        with pytest.raises(ValueError, match=message):
            MegaTEOptimizer(**kwargs)


class TestQoSPriority:
    def test_class1_served_first_under_pressure(self, tiny_topology):
        """24 Gbps offered, 20 available: the shortfall lands on class 3."""
        volumes = [0.2] * 120  # 24 Gbps in small flows (the paper regime)
        qos = [1] * 40 + [2] * 40 + [3] * 40
        demands = DemandMatrix([make_pair_demands(volumes, qos=qos)])
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        by_class = result.stats["satisfied_by_class"]
        assert by_class.get(1, 0.0) == pytest.approx(8.0, abs=0.3)
        assert by_class.get(2, 0.0) == pytest.approx(8.0, abs=0.3)
        assert by_class.get(3, 0.0) == pytest.approx(4.0, abs=0.5)

    def test_class1_rides_shortest_tunnel(self, tiny_topology):
        demands = DemandMatrix(
            [
                make_pair_demands(
                    [6.0, 6.0, 6.0],
                    qos=[1, 2, 2],
                )
            ]
        )
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        pair = demands.pair(0)
        assigned = result.assignment.per_pair[0]
        class1_tunnels = assigned[pair.qos == 1]
        # Tunnel 0 is the 5 ms path.
        assert (class1_tunnels == 0).all()

    def test_qos_order_override(self, tiny_topology):
        """Reversing priority makes class 3 win the contested capacity."""
        demands = DemandMatrix(
            [make_pair_demands([8.0, 8.0, 8.0], qos=[1, 2, 3])]
        )
        reversed_order = (QoSClass.CLASS3, QoSClass.CLASS2, QoSClass.CLASS1)
        result = MegaTEOptimizer(qos_order=reversed_order).solve(
            tiny_topology, demands
        )
        by_class = result.stats["satisfied_by_class"]
        assert by_class.get(3, 0.0) == pytest.approx(8.0)
        assert by_class.get(1, 0.0) == pytest.approx(0.0)

    def test_class3_prefers_cheap_tunnel(self):
        """Bulk traffic steers by cost when a cheaper tunnel exists."""
        from repro.topology import SiteNetwork, build_tunnels
        from repro.topology.contraction import TwoLayerTopology
        from repro.topology.endpoints import EndpointLayout

        net = SiteNetwork(name="costy")
        # Fast expensive path, slow cheap path.
        net.add_duplex_link(
            "a", "b", capacity=10.0, latency_ms=5.0, cost_per_gbps=5.0
        )
        net.add_duplex_link(
            "a", "r", capacity=10.0, latency_ms=20.0, cost_per_gbps=0.5
        )
        net.add_duplex_link(
            "r", "b", capacity=10.0, latency_ms=20.0, cost_per_gbps=0.5
        )
        catalog = build_tunnels(net, [("a", "b")], tunnels_per_pair=2)
        topo = TwoLayerTopology(
            network=net,
            catalog=catalog,
            layout=EndpointLayout({"a": 2, "b": 2, "r": 0}),
        )
        demands = DemandMatrix(
            [make_pair_demands([2.0, 2.0], qos=[1, 3])]
        )
        result = MegaTEOptimizer().solve(topo, demands)
        pair = demands.pair(0)
        assigned = result.assignment.per_pair[0]
        tunnels = catalog.tunnels(0)
        class1_tunnel = tunnels[int(assigned[pair.qos == 1][0])]
        class3_tunnel = tunnels[int(assigned[pair.qos == 3][0])]
        assert class1_tunnel.weight < class3_tunnel.weight
        assert class3_tunnel.cost_per_gbps < class1_tunnel.cost_per_gbps


class TestResidualCapacity:
    def test_no_link_oversubscribed_across_classes(
        self, b4_topology, b4_demands
    ):
        result = MegaTEOptimizer().solve(b4_topology, b4_demands)
        report = check_feasibility(b4_topology, result)
        assert report.max_overload <= 1.0 + 1e-6

    def test_empty_class_skipped(self, tiny_topology):
        demands = DemandMatrix(
            [make_pair_demands([1.0, 1.0], qos=[2, 2])]
        )
        result = MegaTEOptimizer().solve(tiny_topology, demands)
        by_class = result.stats["satisfied_by_class"]
        assert 1 not in by_class
        assert 3 not in by_class


class TestScaling:
    def test_megate_outruns_lp_all_at_scale(self, b4_topology):
        """The MegaTE headline: endpoint count barely moves its runtime,
        while the endpoint-granular LP pays per flow."""
        from repro.baselines import LPAllTE

        rng = np.random.default_rng(0)
        demands = DemandMatrix(
            [
                make_pair_demands(rng.lognormal(-3, 1, size=3000).tolist())
                for _ in range(b4_topology.catalog.num_pairs)
            ]
        )
        megate = MegaTEOptimizer().solve(b4_topology, demands)
        lp_all = LPAllTE().solve(b4_topology, demands)
        assert megate.runtime_s < lp_all.runtime_s


class TestFirstPositiveColumns:
    """The triage's per-pair first-positive-tunnel scan.

    Regression coverage for segment handling around empty pairs —
    failure-scenario catalogs (``TunnelCatalog.restricted_to_network``)
    keep all-tunnels-dead pairs with zero tunnels, so the offsets array
    routinely contains empty (and in particular *trailing* empty)
    segments.
    """

    @staticmethod
    def _run(alloc, ordered_cols, offsets):
        from repro.core.twostage import _first_positive_columns

        return _first_positive_columns(
            np.asarray(alloc, dtype=np.float64),
            np.asarray(ordered_cols, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
        ).tolist()

    @staticmethod
    def _reference(alloc, ordered_cols, offsets):
        """Naive per-pair scan the vectorized version must match."""
        out = []
        for k in range(len(offsets) - 1):
            col = -1
            for pos in range(offsets[k], offsets[k + 1]):
                if alloc[ordered_cols[pos]] > 0.0:
                    col = ordered_cols[pos]
                    break
            out.append(col)
        return out

    def test_trailing_empty_pair_keeps_last_position(self):
        """Reviewer repro: the last non-empty pair's only positive
        allocation sits on its final fill-order tunnel."""
        assert self._run([0.0, 0.0, 5.0], [0, 1, 2], [0, 3, 3]) == [2, -1]

    def test_trailing_empty_pair_two_tunnels(self):
        assert self._run([0.0, 4.0], [0, 1], [0, 2, 2]) == [1, -1]

    def test_leading_and_interleaved_empty_pairs(self):
        assert self._run([0.0, 3.0], [0, 1], [0, 0, 2]) == [-1, 1]
        assert self._run(
            [0.0, 1.0, 0.0, 0.0, 2.0], [0, 1, 2, 3, 4], [0, 2, 2, 5]
        ) == [1, -1, 4]

    def test_fill_order_differs_from_column_order(self):
        # Fill order visits col 2, then 0, then 1; only col 1 is positive.
        assert self._run([0.0, 7.0, 0.0], [2, 0, 1], [0, 3]) == [1]

    def test_all_zero_and_degenerate(self):
        assert self._run([0.0, 0.0], [0, 1], [0, 2]) == [-1]
        assert self._run([], [], [0]) == []
        assert self._run([], [], [0, 0, 0]) == [-1, -1]

    def test_matches_reference_on_random_layouts(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_pairs = int(rng.integers(1, 8))
            counts = rng.integers(0, 4, size=num_pairs)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            num_vars = int(offsets[-1])
            # Sparse positives so zero-everywhere pairs are common.
            alloc = np.where(
                rng.random(num_vars) < 0.4, rng.uniform(0.1, 5, num_vars), 0.0
            )
            ordered_cols = np.concatenate(
                [
                    offsets[k] + rng.permutation(counts[k])
                    for k in range(num_pairs)
                ]
            ).astype(np.int64) if num_vars else np.array([], dtype=np.int64)
            assert self._run(alloc, ordered_cols, offsets) == self._reference(
                alloc, ordered_cols, offsets
            )


#: Replay digest of the twan-20k ``REPLAY_CONFIG`` that
#: ``benchmarks/test_perf_interval_solve.py`` records into
#: ``BENCH_interval_solve.json`` — the absolute value every solver path
#: must reproduce, not just agree on.
TWAN_20K_DIGEST = (
    "252dcd5d4698b75fb3cd14b4cde4111a5631f6f5de6e7b0974282da79b846bee"
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(second_stage="batched", ssp_backend="numpy"),
        dict(second_stage="batched", ssp_backend="scalar"),
        dict(second_stage="serial"),
        dict(env={"REPRO_LP_BACKEND": "highspy", "REPRO_SHARD_WORKERS": "2"}),
        dict(incremental=True, delta_threshold=0.0),
    ],
    ids=["batched-numpy", "batched-scalar", "serial", "env", "incremental"],
)
def test_every_path_reproduces_the_pinned_digest(kwargs, monkeypatch):
    """The ``env`` case sets the retired selector variables: nothing
    may read them, so the default path's digest must hold."""
    from repro.experiments import run_interval_replay

    for name, value in kwargs.pop("env", {}).items():
        monkeypatch.setenv(name, value)
    report = run_interval_replay(
        optimizer=MegaTEOptimizer(**kwargs),
        topology_name="twan",
        total_endpoints=20_000,
        num_site_pairs=60,
        target_load=1.0,
        seed=42,
        sequence_seed=5,
        num_intervals=10,
    )
    assert report.assignment_digest == TWAN_20K_DIGEST
