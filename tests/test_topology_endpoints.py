"""Tests for the endpoint layer and the Weibull site-count model (Fig. 8)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import b4, twan
from repro.topology.endpoints import (
    EndpointLayout,
    WeibullEndpointModel,
    attach_endpoints,
)


def test_scipy_stats_is_not_imported_with_the_package():
    """Only the Weibull CDF, its fit and Fig. 8's KS test need
    ``scipy.stats`` (~0.35 s to import); a process that never calls them —
    the benchmark, the CLI, a test worker — must not pay for it."""
    code = (
        "import sys, repro, repro.experiments.common\n"
        "assert 'scipy.stats' not in sys.modules\n"
        "repro.WeibullEndpointModel().cdf(10.0)\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


class TestWeibullModel:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeibullEndpointModel(shape=0.0)
        with pytest.raises(ValueError):
            WeibullEndpointModel(scale=-1.0)

    def test_counts_at_least_one(self):
        model = WeibullEndpointModel(shape=0.6, scale=10.0)
        counts = model.sample_counts(500, np.random.default_rng(0))
        assert counts.min() >= 1

    def test_heavy_tail_spans_orders_of_magnitude(self):
        """The paper's Fig. 8 observation."""
        model = WeibullEndpointModel(shape=0.6, scale=1000.0)
        counts = model.sample_counts(300, np.random.default_rng(1))
        assert counts.max() / counts.min() > 100

    def test_cdf_monotone(self):
        model = WeibullEndpointModel()
        xs = np.linspace(1, 10_000, 50)
        cdf = np.asarray(model.cdf(xs))
        assert (np.diff(cdf) >= 0).all()
        assert 0 <= cdf[0] <= cdf[-1] <= 1

    def test_fit_recovers_parameters(self):
        true = WeibullEndpointModel(shape=0.8, scale=500.0)
        counts = true.sample_counts(3000, np.random.default_rng(2))
        fitted = WeibullEndpointModel.fit(counts.tolist())
        assert fitted.shape == pytest.approx(true.shape, rel=0.15)
        assert fitted.scale == pytest.approx(true.scale, rel=0.15)

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WeibullEndpointModel.fit([])
        with pytest.raises(ValueError):
            WeibullEndpointModel.fit([0, 5])

    def test_with_scale(self):
        model = WeibullEndpointModel(shape=0.6, scale=100.0)
        scaled = model.with_scale(1000.0)
        assert scaled.shape == model.shape
        assert scaled.scale == 1000.0


class TestEndpointLayout:
    def test_total_and_counts(self):
        layout = EndpointLayout({"a": 3, "b": 0, "c": 5})
        assert layout.num_endpoints == 8
        assert layout.count("a") == 3
        assert layout.count("b") == 0
        assert layout.counts_by_site() == {"a": 3, "b": 0, "c": 5}

    def test_endpoint_ids_contiguous(self):
        layout = EndpointLayout({"a": 3, "b": 2})
        assert list(layout.endpoint_ids("a")) == [0, 1, 2]
        assert list(layout.endpoint_ids("b")) == [3, 4]

    def test_site_of_roundtrip(self):
        layout = EndpointLayout({"a": 3, "b": 0, "c": 5})
        for site in layout.sites:
            for ep in layout.endpoint_ids(site):
                assert layout.site_of(ep) == site

    def test_site_of_out_of_range(self):
        layout = EndpointLayout({"a": 2})
        with pytest.raises(IndexError):
            layout.site_of(2)
        with pytest.raises(IndexError):
            layout.site_of(-1)

    def test_site_table_is_a_byte_per_endpoint_up_to_the_last_site(self):
        """The lookup table holds one int8 per id before the last
        occupied site's first; every later id clips to that site."""
        layout = EndpointLayout({"a": 3, "b": 0, "c": 2**40, "d": 0})
        ids = np.array([0, 2, 3, 2**40 + 2])
        assert layout.site_indices(ids).tolist() == [0, 0, 2, 2]
        assert layout.site_of(2**40 + 2) == "c"
        table = layout._site_table()
        assert table.dtype == np.int8 and table.size == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EndpointLayout({"a": -1})

    def test_scaled(self):
        layout = EndpointLayout({"a": 10, "b": 100})
        half = layout.scaled(0.5)
        assert half.count("a") == 5
        assert half.count("b") == 50

    def test_scaled_minimum_one(self):
        layout = EndpointLayout({"a": 1})
        assert layout.scaled(0.001).count("a") == 1

    @given(
        counts=st.lists(st.integers(0, 50), min_size=1, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_site_of_consistent(self, counts):
        layout = EndpointLayout(
            {f"s{i}": c for i, c in enumerate(counts)}
        )
        total = 0
        for i, c in enumerate(counts):
            for ep in layout.endpoint_ids(f"s{i}"):
                assert layout.site_of(ep) == f"s{i}"
            total += c
        assert layout.num_endpoints == total
        # The columnar lookup agrees with the scalar one on every id.
        sites = layout.sites
        assert [
            sites[i] for i in layout.site_indices(np.arange(total))
        ] == [layout.site_of(ep) for ep in range(total)]


class TestAttachEndpoints:
    def test_total_approximately_hit(self):
        layout = attach_endpoints(b4(), total_endpoints=1200, seed=0)
        assert layout.num_endpoints == pytest.approx(1200, rel=0.1)

    def test_every_site_has_one(self):
        layout = attach_endpoints(b4(), total_endpoints=100, seed=0)
        assert all(layout.count(s) >= 1 for s in b4().sites)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            attach_endpoints(b4(), total_endpoints=5)

    def test_deterministic(self):
        a = attach_endpoints(b4(), total_endpoints=500, seed=3)
        b = attach_endpoints(b4(), total_endpoints=500, seed=3)
        assert a.counts_by_site() == b.counts_by_site()

    def test_restricted_sites(self):
        net = twan(num_regions=3, sites_per_region=3)
        eligible = [s for s in net.sites if not s.endswith("-eco")]
        layout = attach_endpoints(
            net, total_endpoints=100, seed=0, sites=eligible
        )
        for site in net.sites:
            if site.endswith("-eco"):
                assert layout.count(site) == 0
            else:
                assert layout.count(site) >= 1

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown site"):
            attach_endpoints(b4(), sites=["nowhere"])
