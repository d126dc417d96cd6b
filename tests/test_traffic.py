"""Tests for demand matrices, generators, mapping and diurnal sequences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QoSClass
from repro.traffic import (
    DemandMatrix,
    DiurnalSequence,
    FlatTraceGenerator,
    PairDemands,
    TraceStyleGenerator,
    generate_demands,
    map_demands,
    scale_to_load,
)

from conftest import make_pair_demands


class TestPairDemands:
    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            PairDemands(volumes=np.ones((2, 2)), qos=np.ones(4, dtype=np.int8))
        with pytest.raises(ValueError):
            PairDemands(
                volumes=np.ones(3), qos=np.ones(2, dtype=np.int8)
            )

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            make_pair_demands([-1.0])

    def test_bad_qos_rejected(self):
        with pytest.raises(ValueError):
            make_pair_demands([1.0], qos=[7])

    def test_endpoint_alignment(self):
        with pytest.raises(ValueError):
            PairDemands(
                volumes=np.ones(3),
                qos=np.ones(3, dtype=np.int8),
                src_endpoints=np.arange(2),
            )

    def test_total_is_site_merge(self):
        pair = make_pair_demands([1.0, 2.0, 3.0])
        assert pair.total == pytest.approx(6.0)
        assert pair.num_pairs == 3

    def test_select(self):
        pair = make_pair_demands([1.0, 2.0, 3.0], qos=[1, 2, 3])
        sub = pair.select(pair.qos == 2)
        assert sub.num_pairs == 1
        assert sub.volumes[0] == 2.0

    def test_for_qos_indices(self):
        pair = make_pair_demands([1.0, 2.0, 3.0], qos=[1, 2, 1])
        idx, volumes = pair.for_qos(QoSClass.CLASS1)
        assert idx.tolist() == [0, 2]
        assert volumes.tolist() == [1.0, 3.0]

    def test_empty(self):
        pair = PairDemands.empty()
        assert pair.num_pairs == 0
        assert pair.total == 0.0


class TestDemandMatrix:
    def _matrix(self):
        return DemandMatrix(
            [
                make_pair_demands([1.0, 2.0], qos=[1, 2]),
                make_pair_demands([3.0], qos=[3]),
            ]
        )

    def test_aggregates(self):
        m = self._matrix()
        assert m.num_site_pairs == 2
        assert m.num_endpoint_pairs == 3
        assert m.total_demand == pytest.approx(6.0)

    def test_site_demands(self):
        m = self._matrix()
        assert m.site_demands().tolist() == [3.0, 3.0]
        assert m.site_demands(QoSClass.CLASS3).tolist() == [0.0, 3.0]

    def test_for_qos(self):
        sub = self._matrix().for_qos(QoSClass.CLASS1)
        assert sub.total_demand == pytest.approx(1.0)
        assert sub.num_site_pairs == 2

    def test_qos_share_sums_to_one(self):
        shares = self._matrix().qos_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_subsample_fraction(self):
        rng = np.random.default_rng(0)
        m = DemandMatrix(
            [make_pair_demands(rng.uniform(1, 2, size=100).tolist())]
        )
        half = m.subsample(0.5, seed=1)
        assert half.pair(0).num_pairs == 50

    def test_subsample_keeps_at_least_one(self):
        m = DemandMatrix([make_pair_demands([1.0, 2.0])])
        tiny = m.subsample(0.01)
        assert tiny.pair(0).num_pairs == 1

    def test_subsample_invalid_fraction(self):
        with pytest.raises(ValueError):
            self._matrix().subsample(0.0)


class TestGenerator:
    def test_qos_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TraceStyleGenerator(qos_mix=(0.5, 0.5, 0.5))

    def test_generated_shape(self, b4_topology):
        matrix = generate_demands(b4_topology, seed=0)
        assert matrix.num_site_pairs == b4_topology.catalog.num_pairs
        assert matrix.num_endpoint_pairs > 0
        for k, pair in enumerate(matrix):
            assert pair.src_endpoints is not None
            src_site, dst_site = b4_topology.catalog.pairs[k]
            src_range = b4_topology.layout.endpoint_ids(src_site)
            assert (
                (pair.src_endpoints >= src_range.start)
                & (pair.src_endpoints < src_range.stop)
            ).all()

    def test_deterministic(self, b4_topology):
        a = generate_demands(b4_topology, seed=5)
        b = generate_demands(b4_topology, seed=5)
        assert a.total_demand == b.total_demand

    def test_qos_mix_roughly_respected(self, b4_topology):
        matrix = generate_demands(
            b4_topology, seed=0, qos_mix=(0.2, 0.5, 0.3)
        )
        counts = np.zeros(4)
        for pair in matrix:
            for q in (1, 2, 3):
                counts[q] += int((pair.qos == q).sum())
        fractions = counts[1:] / counts.sum()
        assert fractions[0] == pytest.approx(0.2, abs=0.07)
        assert fractions[1] == pytest.approx(0.5, abs=0.07)

    def test_bulk_flows_heavier(self, b4_topology):
        matrix = generate_demands(
            b4_topology, seed=0, bulk_multiplier=10.0
        )
        class3, class2 = [], []
        for pair in matrix:
            class3.extend(pair.volumes[pair.qos == 3].tolist())
            class2.extend(pair.volumes[pair.qos == 2].tolist())
        assert np.mean(class3) > np.mean(class2)


class TestFlatGenerator:
    """The columnar generator realizes the same statistical model."""

    def test_qos_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FlatTraceGenerator(qos_mix=(0.5, 0.5, 0.5))

    def test_shape_and_endpoint_ranges(self, b4_topology):
        matrix = generate_demands(b4_topology, seed=0, flat=True)
        assert matrix.num_site_pairs == b4_topology.catalog.num_pairs
        assert matrix.num_endpoint_pairs > 0
        for k, pair in enumerate(matrix):
            assert pair.num_pairs >= 1
            assert pair.src_endpoints is not None
            src_site, dst_site = b4_topology.catalog.pairs[k]
            src_range = b4_topology.layout.endpoint_ids(src_site)
            dst_range = b4_topology.layout.endpoint_ids(dst_site)
            assert (
                (pair.src_endpoints >= src_range.start)
                & (pair.src_endpoints < src_range.stop)
            ).all()
            assert (
                (pair.dst_endpoints >= dst_range.start)
                & (pair.dst_endpoints < dst_range.stop)
            ).all()

    def test_deterministic(self, b4_topology):
        a = generate_demands(b4_topology, seed=5, flat=True)
        b = generate_demands(b4_topology, seed=5, flat=True)
        np.testing.assert_array_equal(
            a.table.volumes, b.table.volumes
        )
        np.testing.assert_array_equal(a.table.qos, b.table.qos)

    def test_pair_counts_match_trace_style_scale(self, b4_topology):
        """Both generators draw |I_k| from the same Poisson model, so
        the total flow counts agree to sampling noise."""
        flat = generate_demands(b4_topology, seed=3, flat=True)
        looped = generate_demands(b4_topology, seed=3)
        ratio = flat.num_endpoint_pairs / looped.num_endpoint_pairs
        assert 0.8 < ratio < 1.25

    def test_bulk_flows_heavier(self, b4_topology):
        matrix = generate_demands(
            b4_topology, seed=0, flat=True, bulk_multiplier=10.0
        )
        qos = matrix.table.qos
        volumes = matrix.table.volumes
        assert volumes[qos == 3].mean() > volumes[qos == 2].mean()

    def test_solvable(self, b4_topology):
        from repro.core import MegaTEOptimizer

        matrix = generate_demands(
            b4_topology, seed=1, target_load=0.8, flat=True
        )
        result = MegaTEOptimizer().solve(b4_topology, matrix)
        assert result.satisfied_fraction > 0.97


class TestScaleToLoad:
    def test_load_one_is_fully_satisfiable(self, b4_topology):
        from repro.core import MegaTEOptimizer

        matrix = generate_demands(b4_topology, seed=1, target_load=0.8)
        result = MegaTEOptimizer().solve(b4_topology, matrix)
        assert result.satisfied_fraction > 0.97

    def test_overload_reduces_satisfaction(self, b4_topology):
        from repro.baselines import LPAllTE

        light = generate_demands(b4_topology, seed=1, target_load=1.0)
        heavy = generate_demands(b4_topology, seed=1, target_load=1.5)
        lp = LPAllTE()
        sat_light = lp.solve(b4_topology, light).satisfied_fraction
        sat_heavy = lp.solve(b4_topology, heavy).satisfied_fraction
        assert sat_heavy < sat_light

    def test_preserves_pair_structure(self, b4_topology):
        base = generate_demands(b4_topology, seed=1)
        scaled = scale_to_load(base, b4_topology, 1.2)
        assert scaled.num_endpoint_pairs == base.num_endpoint_pairs
        ratio = scaled.total_demand / base.total_demand
        for k in range(base.num_site_pairs):
            if base.pair(k).num_pairs:
                np.testing.assert_allclose(
                    scaled.pair(k).volumes,
                    base.pair(k).volumes * ratio,
                    rtol=1e-9,
                )

    def test_invalid_load(self, b4_topology, b4_demands):
        with pytest.raises(ValueError):
            scale_to_load(b4_demands, b4_topology, 0.0)

    def test_calibration_is_a_span(self, tracer, b4_topology, b4_demands):
        scale_to_load(b4_demands, b4_topology, 1.0)
        (span,) = [
            s
            for s in tracer.finished_spans()
            if s.name == "traffic.scale_to_load"
        ]
        assert span.attributes["alpha"] > 0


class TestMapping:
    def test_maps_pair_count(self, b4_topology):
        source = generate_demands(b4_topology, seed=2)
        mapped = map_demands(source, b4_topology.catalog, seed=0)
        assert mapped.num_site_pairs == b4_topology.catalog.num_pairs

    def test_volumes_copied_from_source(self, b4_topology):
        source = generate_demands(b4_topology, seed=2)
        mapped = map_demands(source, b4_topology.catalog, seed=0)
        source_totals = {
            round(source.pair(k).total, 9)
            for k in range(source.num_site_pairs)
        }
        for k in range(mapped.num_site_pairs):
            assert round(mapped.pair(k).total, 9) in source_totals

    def test_empty_source_rejected(self, b4_topology):
        with pytest.raises(ValueError):
            map_demands(DemandMatrix([]), b4_topology.catalog)


class TestDiurnal:
    def _sequence(self):
        base = DemandMatrix([make_pair_demands([1.0, 2.0, 4.0])])
        return DiurnalSequence(
            base=base, interval_minutes=60.0, peak_to_trough=3.0, seed=1
        )

    def test_num_intervals(self):
        assert self._sequence().num_intervals == 24

    def test_load_factor_peak_midday(self):
        seq = self._sequence()
        factors = [seq.load_factor(n) for n in range(24)]
        assert np.argmax(factors) == 12
        assert np.argmin(factors) == 0

    def test_peak_to_trough_ratio(self):
        seq = self._sequence()
        assert seq.load_factor(12) / seq.load_factor(0) == pytest.approx(
            3.0, rel=1e-6
        )

    def test_matrix_preserves_pairs(self):
        seq = self._sequence()
        m = seq.matrix(5)
        assert m.num_endpoint_pairs == 3

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            self._sequence().matrix(24)

    def test_iteration_length(self):
        assert len(list(self._sequence())) == 24

    def test_jitter_deterministic(self):
        seq = self._sequence()
        assert (
            seq.matrix(3).total_demand == seq.matrix(3).total_demand
        )

    def test_invalid_params(self):
        base = DemandMatrix([make_pair_demands([1.0])])
        with pytest.raises(ValueError):
            DiurnalSequence(base=base, interval_minutes=0.0)
        with pytest.raises(ValueError):
            DiurnalSequence(base=base, peak_to_trough=0.5)

    def test_flat_jitter_matches_per_pair_draws(self):
        """The columnar jitter draw reproduces the historical per-pair
        loop byte for byte (pinned replay digests depend on it)."""
        base = DemandMatrix(
            [
                make_pair_demands([1.0, 2.0, 4.0]),
                PairDemands.empty(),
                make_pair_demands([0.5, 8.0]),
            ]
        )
        seq = DiurnalSequence(base=base, jitter_sigma=0.3, seed=9)
        interval = 7
        m = seq.matrix(interval)
        rng = np.random.default_rng(seq.seed + interval)
        factor = seq.load_factor(interval)
        for k, pair in enumerate(base):
            jitter = rng.lognormal(
                -0.5 * seq.jitter_sigma**2,
                seq.jitter_sigma,
                size=pair.num_pairs,
            )
            np.testing.assert_array_equal(
                m.pair(k).volumes, pair.volumes * factor * jitter
            )
