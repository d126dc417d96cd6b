"""Property tests: the array-batched FastSSP kernel == the scalar path.

The batched kernel (:mod:`repro.core.fastssp_batch`) carries a
bit-identity contract against the scalar reference
(:func:`repro.core.fastssp.fast_ssp`): *every* per-instance field —
``selected``, ``total``, ``capacity``, ``num_clusters``,
``dp_selected_volume``, ``greedy_selected_volume``, ``error_bound`` —
must match exactly, not approximately.  Hypothesis drives the batch
shape (instance count and chunking), the demand distributions (ties,
zeros, heavy tails, all-oversized), the capacity regimes (trivial,
everything-fits, contended, subnormal delta-underflow capacities from
``fastssp.py``'s normalization guard), and the epsilon grid; a single
differing bit fails the property.

``fill_pairs_batch`` is held to the same contract against per-pair
:func:`repro.core.pairfill.fill_pair` composition, and the backend
resolution is pinned to the LP-backend selection pattern (arg > env >
numpy).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fastssp import fast_ssp
from repro.core.fastssp_batch import (
    SSP_BACKEND_ENV,
    BatchedSSPResult,
    fast_ssp_batch,
    fill_pairs_batch,
    resolve_ssp_backend_name,
)
from repro.core.pairfill import fill_pair, fill_pairs

#: Backends exercised by the equality properties (``"scalar"`` is the
#: reference they are compared against).
BACKENDS = ["numpy"]

EPSILONS = [0.05, 0.1, 0.3, 0.9]


def _assert_results_equal(got, ref, context: str) -> None:
    assert got.selected == ref.selected, context
    assert got.total == ref.total, context
    assert got.capacity == ref.capacity, context
    assert got.num_clusters == ref.num_clusters, context
    assert got.dp_selected_volume == ref.dp_selected_volume, context
    assert (
        got.greedy_selected_volume == ref.greedy_selected_volume
    ), context
    assert got.error_bound == ref.error_bound, context


@st.composite
def ssp_instances(draw):
    """One batch: per-instance (values, capacity) across regimes."""
    num = draw(st.integers(min_value=1, max_value=8))
    instances = []
    for _ in range(num):
        n = draw(st.integers(min_value=0, max_value=30))
        kind = draw(st.integers(min_value=0, max_value=4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == 0:
            values = rng.exponential(1.0, n)
        elif kind == 1:
            values = rng.uniform(0.0, 10.0, n)
        elif kind == 2:
            # Quantized values force ties; the stable sort order must
            # match the scalar argsort's tie-breaking exactly.
            values = np.round(rng.uniform(0.0, 5.0, n), 1)
        elif kind == 3:
            values = np.zeros(n)
        else:
            values = rng.pareto(1.5, n) + 0.01
        values = np.asarray(values, dtype=np.float64)
        total = float(values.sum()) if n else 0.0
        cap_kind = draw(st.integers(min_value=0, max_value=5))
        if cap_kind == 0:
            capacity = 0.0  # trivial
        elif cap_kind == 1:
            capacity = -2.5  # trivial (negative)
        elif cap_kind == 2:
            capacity = total * 2.0 + 1.0  # everything fits
        elif cap_kind == 3:
            capacity = total * 0.4 if total > 0 else 1.0  # contended
        elif cap_kind == 4:
            # All (or most) demands oversized.
            positive = values[values > 0]
            capacity = (
                float(positive.min()) * 0.5 if positive.size else 0.3
            )
        else:
            # Subnormal capacity: delta = eps^2/9 * F underflows to 0
            # and the DP must be skipped (fastssp.py's guard).
            capacity = 5e-324
        instances.append((values, capacity))
    return instances


@settings(max_examples=60, deadline=None)
@given(instances=ssp_instances(), epsilon=st.sampled_from(EPSILONS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_equals_scalar(backend, instances, epsilon):
    """Every instance of every drawn batch matches fast_ssp bit-for-bit."""
    offsets = np.concatenate(
        ([0], np.cumsum([v.size for v, _ in instances]))
    ).astype(np.int64)
    flat = (
        np.concatenate([v for v, _ in instances])
        if offsets[-1]
        else np.empty(0, dtype=np.float64)
    )
    caps = np.asarray([c for _, c in instances], dtype=np.float64)
    res = fast_ssp_batch(
        flat, offsets, caps, epsilon=epsilon, backend=backend
    )
    assert isinstance(res, BatchedSSPResult)
    assert len(res) == len(instances)
    for i, (values, capacity) in enumerate(instances):
        ref = fast_ssp(values, capacity, epsilon=epsilon)
        _assert_results_equal(
            res.result(i),
            ref,
            f"instance {i} (backend={backend}, eps={epsilon}, "
            f"cap={capacity!r})",
        )


@settings(max_examples=60, deadline=None)
@given(instances=ssp_instances(), epsilon=st.sampled_from(EPSILONS))
def test_presorted_hints_equal_unsorted(instances, epsilon):
    """Supplying descending-stable sort hints changes nothing.

    ``fill_pairs_batch`` maintains per-pair orders across fill steps
    and passes them as ``presorted``; the kernel must produce the same
    bits whether it sorts itself or consumes the hint.  Hints are
    drawn for every instance (contended or not — the fast paths must
    ignore them).
    """
    offsets = np.concatenate(
        ([0], np.cumsum([v.size for v, _ in instances]))
    ).astype(np.int64)
    flat = (
        np.concatenate([v for v, _ in instances])
        if offsets[-1]
        else np.empty(0, dtype=np.float64)
    )
    caps = np.asarray([c for _, c in instances], dtype=np.float64)
    hints = [
        np.argsort(-v, kind="stable") if v.size else None
        for v, _ in instances
    ]
    plain = fast_ssp_batch(flat, offsets, caps, epsilon=epsilon)
    hinted = fast_ssp_batch(
        flat, offsets, caps, epsilon=epsilon, presorted=hints
    )
    for i in range(len(instances)):
        _assert_results_equal(
            hinted.result(i),
            plain.result(i),
            f"instance {i} (eps={epsilon})",
        )
    assert np.array_equal(hinted.contended, plain.contended)


@settings(max_examples=40, deadline=None)
@given(
    instances=ssp_instances(),
    epsilon=st.sampled_from(EPSILONS),
    num_chunks=st.integers(min_value=1, max_value=4),
)
def test_batched_chunking_invariant(instances, epsilon, num_chunks):
    """Splitting one batch into shards never changes any instance.

    This is the shard-worker contract: each worker batches only its own
    pair range, and the result must equal both the whole-batch solve and
    the scalar reference.
    """
    whole_offsets = np.concatenate(
        ([0], np.cumsum([v.size for v, _ in instances]))
    ).astype(np.int64)
    whole_flat = (
        np.concatenate([v for v, _ in instances])
        if whole_offsets[-1]
        else np.empty(0, dtype=np.float64)
    )
    whole_caps = np.asarray([c for _, c in instances], dtype=np.float64)
    whole = fast_ssp_batch(
        whole_flat, whole_offsets, whole_caps, epsilon=epsilon
    )
    chunks = np.array_split(np.arange(len(instances)), num_chunks)
    for chunk in chunks:
        if chunk.size == 0:
            continue
        part = [instances[i] for i in chunk]
        offsets = np.concatenate(
            ([0], np.cumsum([v.size for v, _ in part]))
        ).astype(np.int64)
        flat = (
            np.concatenate([v for v, _ in part])
            if offsets[-1]
            else np.empty(0, dtype=np.float64)
        )
        caps = np.asarray([c for _, c in part], dtype=np.float64)
        res = fast_ssp_batch(flat, offsets, caps, epsilon=epsilon)
        for j, i in enumerate(chunk.tolist()):
            _assert_results_equal(
                res.result(j),
                whole.result(i),
                f"chunk instance {i} of {num_chunks} chunks",
            )


@st.composite
def pair_fill_cases(draw):
    """Per-pair (volumes, alloc, fill_order) batches for the fill test."""
    num = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(num):
        n = int(rng.integers(0, 50))
        num_tunnels = int(rng.integers(1, 5))
        volumes = rng.exponential(1.0, n)
        alloc = rng.uniform(
            0.0, volumes.sum() / num_tunnels if n else 2.0, num_tunnels
        )
        alloc[rng.random(num_tunnels) < 0.2] = 0.0
        alloc[rng.random(num_tunnels) < 0.1] = -0.5
        order = rng.permutation(num_tunnels).astype(np.int64)
        if rng.random() < 0.25:  # partial fill orders
            order = order[: max(num_tunnels - 1, 1)]
        pairs.append((volumes, alloc, order))
    return pairs


@settings(max_examples=40, deadline=None)
@given(pairs=pair_fill_cases(), epsilon=st.sampled_from([0.05, 0.1, 0.3]))
def test_fill_pairs_batch_equals_fill_pair(pairs, epsilon):
    """The batched fill-order walk == per-pair fill_pair, bit for bit."""
    got = fill_pairs_batch(
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        [p[2] for p in pairs],
        epsilon=epsilon,
    )
    for i, (volumes, alloc, order) in enumerate(pairs):
        ref_assigned, ref_placed = fill_pair(
            volumes, alloc, order, epsilon=epsilon
        )
        assert np.array_equal(got[i][0], ref_assigned), f"pair {i} assigned"
        assert np.array_equal(got[i][1], ref_placed), f"pair {i} placed"


@settings(max_examples=20, deadline=None)
@given(pairs=pair_fill_cases())
def test_fill_pairs_scalar_backend_equals_batched(pairs):
    """pairfill.fill_pairs: 'scalar' routing == batched routing."""
    args = (
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        [p[2] for p in pairs],
    )
    scalar = fill_pairs(*args, epsilon=0.1, ssp_backend="scalar")
    batched = fill_pairs(*args, epsilon=0.1, ssp_backend="numpy")
    for i in range(len(pairs)):
        assert np.array_equal(scalar[i][0], batched[i][0])
        assert np.array_equal(scalar[i][1], batched[i][1])
        assert scalar[i][2] == batched[i][2] == False  # noqa: E712


def test_empty_batch():
    res = fast_ssp_batch(
        np.empty(0), np.zeros(1, dtype=np.int64), np.empty(0)
    )
    assert len(res) == 0
    assert res.selected_offsets.tolist() == [0]


def test_batch_validation_errors():
    with pytest.raises(ValueError, match="offsets"):
        fast_ssp_batch(
            np.ones(3), np.array([0, 3], dtype=np.int64), np.ones(2)
        )
    with pytest.raises(ValueError, match="non-negative"):
        fast_ssp_batch(
            np.array([-1.0]), np.array([0, 1], dtype=np.int64), np.ones(1)
        )
    with pytest.raises(ValueError, match="epsilon"):
        fast_ssp_batch(
            np.ones(1),
            np.array([0, 1], dtype=np.int64),
            np.ones(1),
            epsilon=1.5,
        )
    with pytest.raises(ValueError, match="unknown SSP backend"):
        resolve_ssp_backend_name("bogus")


class TestBackendResolution:
    """arg > REPRO_SSP_BACKEND > numpy."""

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(SSP_BACKEND_ENV, raising=False)
        assert resolve_ssp_backend_name() == "numpy"

    def test_env_consulted(self, monkeypatch):
        monkeypatch.setenv(SSP_BACKEND_ENV, "scalar")
        assert resolve_ssp_backend_name() == "scalar"

    def test_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(SSP_BACKEND_ENV, "scalar")
        assert resolve_ssp_backend_name("numpy") == "numpy"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(SSP_BACKEND_ENV, "")
        assert resolve_ssp_backend_name() == "numpy"


def test_result_views_match_fast_ssp_shapes():
    """selected() is ascending int64; result() mirrors FastSSPResult."""
    values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    res = fast_ssp_batch(
        values, np.array([0, 5], dtype=np.int64), np.array([9.0])
    )
    sel = res.selected(0)
    assert sel.dtype == np.int64
    assert np.all(np.diff(sel) > 0)
    ref = fast_ssp(values, 9.0)
    assert res.result(0) == ref


def test_phase_timings_accumulate():
    """fill_pairs_batch reports non-negative kernel phase seconds."""
    rng = np.random.default_rng(3)
    vols = [rng.exponential(1.0, 40) for _ in range(5)]
    allocs = [np.array([v.sum() * 0.3, v.sum() * 0.2]) for v in vols]
    orders = [np.array([0, 1], dtype=np.int64)] * 5
    phase: dict[str, float] = {}
    fill_pairs_batch(vols, allocs, orders, epsilon=0.1, phase_out=phase)
    assert set(phase) == {
        "pad",
        "sort",
        "cluster",
        "dp",
        "mask",
        "greedy",
        "extract",
    }
    assert all(v >= 0.0 for v in phase.values())


def test_degenerate_subnormal_capacity_batch():
    """A whole batch of delta-underflow capacities matches the scalar."""
    values = np.array([1.0, 2.0, 3.0, 0.5])
    for capacity in (5e-324, 1e-300, 2.2250738585072014e-308):
        res = fast_ssp_batch(
            np.tile(values, 3),
            np.array([0, 4, 8, 12], dtype=np.int64),
            np.full(3, capacity),
            epsilon=0.1,
        )
        ref = fast_ssp(values, capacity, epsilon=0.1)
        for i in range(3):
            _assert_results_equal(
                res.result(i), ref, f"cap={capacity!r} i={i}"
            )


def test_replay_digest_scalar_vs_batched():
    """End to end: a small replay is digest-identical across backends."""
    from repro.experiments.interval_replay import run_interval_replay

    config = dict(
        total_endpoints=2_000,
        num_site_pairs=20,
        target_load=1.6,
        num_intervals=2,
    )
    scalar = run_interval_replay(ssp_backend="scalar", **config)
    batched = run_interval_replay(ssp_backend="numpy", **config)
    assert scalar.ssp_backend == "scalar"
    assert batched.ssp_backend == "numpy"
    assert scalar.assignment_digest == batched.assignment_digest
    assert batched.ssp_batch_phase_s  # kernel actually ran


def test_env_backend_reaches_optimizer(monkeypatch):
    """REPRO_SSP_BACKEND steers the solve and lands in the stats."""
    from repro.core.types import StatKey
    from repro.experiments.common import build_scenario
    from repro.core import MegaTEOptimizer

    sc = build_scenario(
        "twan",
        total_endpoints=1_000,
        num_site_pairs=10,
        target_load=1.6,
        seed=7,
    )
    monkeypatch.setenv(SSP_BACKEND_ENV, "scalar")
    result = MegaTEOptimizer().solve(sc.topology, sc.demands)
    assert result.stats[StatKey.SSP_BACKEND] == "scalar"
    monkeypatch.delenv(SSP_BACKEND_ENV)
    result = MegaTEOptimizer().solve(sc.topology, sc.demands)
    assert result.stats[StatKey.SSP_BACKEND] == "numpy"
