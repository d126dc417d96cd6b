"""Property tests: the FastSSP kernel == the reference it replaces.

The production kernel (:func:`repro.core.fastssp.fast_ssp_sorted`)
carries a bit-identity contract against the reference
(:func:`repro.core.fastssp.fast_ssp`): *every* result field —
``selected``, ``total``, ``capacity``, ``num_clusters``,
``dp_selected_volume``, ``greedy_selected_volume``, ``error_bound`` —
must match exactly, not approximately.  Hypothesis drives the demand
distributions (ties, zeros, heavy tails, all-oversized, inf members),
the capacity regimes (trivial, everything-fits, contended, subnormal
delta-underflow capacities from ``fastssp.py``'s normalization guard),
and the epsilon grid; a single differing bit fails the property.  A
NaN demand is a ``ValueError`` on both.

Rows of 10^4 and more demands carry the contract past every window
the kernel reads in (the clustering's list buffer, the greedy's take
runs), and the order helper is held to the stable ``argsort`` it
replaces.

The one fill loop (:func:`repro.core.pairfill.fill_pair`) is held to
the same contract between its two FastSSP implementations — over
multi-tunnel fills, so the order hint's remap after removals is
exercised — and a whole replay is digest-identical across them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fastssp import (
    SSP_PHASE_KEYS,
    descending_order,
    fast_ssp,
    fast_ssp_sorted,
)
from repro.core.pairfill import (
    fill_pair,
    fill_pairs,
    resolve_ssp_backend_name,
)

#: FastSSP kernels by ``ssp_backend`` name (``"scalar"`` names the
#: reference they are compared against).
KERNELS = {"numpy": fast_ssp_sorted}

EPSILONS = [0.05, 0.1, 0.3, 0.9]


def _same(got: float, ref: float) -> bool:
    """Bit-level float equality that lets NaN equal NaN."""
    return got == ref or (got != got and ref != ref)


def _assert_results_equal(got, ref, context: str) -> None:
    assert got.selected == ref.selected, context
    assert got.selected_array.dtype == np.int64, context
    assert _same(got.total, ref.total), context
    assert _same(got.capacity, ref.capacity), context
    assert got.num_clusters == ref.num_clusters, context
    assert _same(got.dp_selected_volume, ref.dp_selected_volume), context
    assert _same(
        got.greedy_selected_volume, ref.greedy_selected_volume
    ), context
    assert _same(got.error_bound, ref.error_bound), context


@st.composite
def ssp_instances(draw):
    """A handful of (values, capacity) instances across regimes."""
    num = draw(st.integers(min_value=1, max_value=8))
    instances = []
    for _ in range(num):
        n = draw(st.integers(min_value=0, max_value=30))
        kind = draw(st.integers(min_value=0, max_value=5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == 0:
            values = rng.exponential(1.0, n)
        elif kind == 1:
            values = rng.uniform(0.0, 10.0, n)
        elif kind == 2:
            # Quantized values force ties; the stable sort order must
            # match the reference argsort's tie-breaking exactly.
            values = np.round(rng.uniform(0.0, 5.0, n), 1)
        elif kind == 3:
            values = np.zeros(n)
        elif kind == 4:
            values = rng.pareto(1.5, n) + 0.01
        else:
            # inf members: never eligible, never selected, yet they
            # reach the reference's greedy gate and error bound through
            # its minima over all unselected demands.
            values = np.round(rng.uniform(0.0, 5.0, n), 1)
            values[rng.random(n) < 0.2] = np.inf
        values = np.asarray(values, dtype=np.float64)
        finite = values[np.isfinite(values)]
        total = float(finite.sum()) if finite.size else 0.0
        cap_kind = draw(st.integers(min_value=0, max_value=5))
        if cap_kind == 0:
            capacity = 0.0  # trivial
        elif cap_kind == 1:
            capacity = -2.5  # trivial (negative)
        elif cap_kind == 2:
            capacity = total * 2.0 + 1.0  # everything (finite) fits
        elif cap_kind == 3:
            capacity = total * 0.4 if total > 0 else 1.0  # contended
        elif cap_kind == 4:
            # All (or most) demands oversized.
            positive = finite[finite > 0]
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
@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_batched_equals_scalar(backend, instances, epsilon):
    """Every drawn instance matches fast_ssp bit-for-bit."""
    for i, (values, capacity) in enumerate(instances):
        _assert_results_equal(
            KERNELS[backend](values, capacity, epsilon=epsilon),
            fast_ssp(values, capacity, epsilon=epsilon),
            f"instance {i} (backend={backend}, eps={epsilon}, "
            f"cap={capacity!r})",
        )


@settings(max_examples=30, deadline=None)
@given(
    instances=ssp_instances(),
    epsilon=st.sampled_from(EPSILONS),
    nan_at=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_nan_demand_rejected_by_both(backend, instances, epsilon, nan_at):
    """One NaN demand in any instance is a ValueError naming ``values``
    in the kernel and the reference alike."""
    for values, capacity in instances:
        if not values.size:
            continue
        values = values.copy()
        values[nan_at % values.size] = np.nan
        for solve in (KERNELS[backend], fast_ssp):
            with pytest.raises(ValueError, match="values"):
                solve(values, capacity, epsilon=epsilon)


@settings(max_examples=60, deadline=None)
@given(instances=ssp_instances(), epsilon=st.sampled_from(EPSILONS))
def test_presorted_hints_equal_unsorted(instances, epsilon):
    """Supplying the descending-stable order hint changes nothing.

    ``fill_pair`` maintains one order across a pair's tunnels and
    passes it as ``order``; the kernel must produce the same bits
    whether it sorts itself or consumes the hint.  Hints are drawn for
    every NaN-free instance (contended or not — the fast paths must
    ignore them); a segment holding NaN never gets one, as ``fill_pair``
    never promotes on a NaN total.
    """
    for i, (values, capacity) in enumerate(instances):
        if np.isnan(values).any():
            continue
        _assert_results_equal(
            fast_ssp_sorted(
                values,
                capacity,
                epsilon=epsilon,
                order=np.argsort(-values, kind="stable"),
            ),
            fast_ssp_sorted(values, capacity, epsilon=epsilon),
            f"instance {i} (eps={epsilon})",
        )


@st.composite
def long_row_instances(draw):
    """One contended instance of 10^4 or more demands.

    A head of unit-scale demands forms the clusters — often hundreds,
    small enough that the clustering scan reads several list windows of
    the row before they outgrow it — and a tail of demands a factor
    ``tiny`` smaller fills the DP's slack, so the greedy takes runs of
    thousands of consecutive values, far past its first window.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = rng.uniform(0.5, 1.5, draw(st.integers(2_000, 6_000)))
    tiny = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    tail = rng.uniform(0.5, 1.5, draw(st.integers(8_000, 14_000))) * tiny
    if draw(st.booleans()):
        # Ties across the head and the tail.
        head, tail = np.round(head, 2), np.round(tail / tiny, 2) * tiny
    values = np.concatenate((head, tail))
    rng.shuffle(values)
    frac = draw(st.sampled_from([0.005, 0.02, 0.1, 0.5]))
    return values, float(head.sum()) * frac


@settings(max_examples=12, deadline=None)
@given(instance=long_row_instances(), epsilon=st.sampled_from(EPSILONS))
def test_long_rows_equal_reference(instance, epsilon):
    """Rows past every window of the kernel still match bit for bit."""
    values, capacity = instance
    _assert_results_equal(
        fast_ssp_sorted(values, capacity, epsilon=epsilon),
        fast_ssp(values, capacity, epsilon=epsilon),
        f"n={values.size} cap={capacity!r} eps={epsilon}",
    )


#: Values that tie, straddle zero's sign, sit below the normal range or
#: do not compare at all.
_ORDER_POOL = [
    0.0,
    -0.0,
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    1.0,
    1.0 + 2**-52,
    3.5,
    np.inf,
    -np.inf,
    np.nan,
]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from(_ORDER_POOL)
        | st.floats(allow_nan=True, allow_subnormal=True),
        max_size=200,
    )
)
def test_descending_order_is_the_stable_argsort(values):
    """Empty, one element, heavy ties, ±0.0, subnormals, NaN: the order
    helper returns the stable sort's permutation exactly."""
    x = np.asarray(values, dtype=np.float64)
    got = descending_order(x)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(-x, kind="stable"))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([None, 4, 1]),
    nan_share=st.sampled_from([0.0, 0.01]),
)
def test_descending_order_large(seed, decimals, nan_share):
    """10^5 demands, with no ties, many ties or nearly all tied."""
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0, 100_000)
    if decimals is not None:
        x = np.round(x, decimals)
    x[rng.random(x.size) < nan_share] = np.nan
    x[rng.random(x.size) < 0.01] = -0.0
    assert np.array_equal(descending_order(x), np.argsort(-x, kind="stable"))


@st.composite
def pair_fill_cases(draw, nan=False):
    """Per-pair (volumes, alloc, fill_order) cases for the fill test
    (with ``nan``, every pair is hostile and may hold NaN demands)."""
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
        if nan or rng.random() < 0.2:
            # An inf total may promote the pair to a hinted row.
            if nan:
                volumes[rng.random(n) < 0.1] = np.nan
            volumes[rng.random(n) < 0.1] = np.inf
        order = rng.permutation(num_tunnels).astype(np.int64)
        if rng.random() < 0.25:  # partial fill orders
            order = order[: max(num_tunnels - 1, 1)]
        pairs.append((volumes, alloc, order))
    return pairs


@settings(max_examples=40, deadline=None)
@given(pairs=pair_fill_cases(), epsilon=st.sampled_from([0.05, 0.1, 0.3]))
def test_fill_pair_kernel_equals_reference(pairs, epsilon):
    """The fill loop on the kernel == on the reference, bit for bit."""
    for i, (volumes, alloc, order) in enumerate(pairs):
        got_assigned, got_placed = fill_pair(
            volumes, alloc, order, epsilon, ssp_backend="numpy"
        )
        ref_assigned, ref_placed = fill_pair(
            volumes, alloc, order, epsilon, ssp_backend="scalar"
        )
        assert np.array_equal(got_assigned, ref_assigned), f"pair {i}"
        assert np.array_equal(got_placed, ref_placed), f"pair {i}"


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the message of the ``ValueError`` it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=20, deadline=None)
@given(pairs=pair_fill_cases(nan=True))
def test_fill_pair_nan_demand_same_outcome(pairs):
    """A NaN demand: the kernel's fill and the reference's give the same
    result, or raise the same ValueError when it reaches a FastSSP."""
    for i, (volumes, alloc, order) in enumerate(pairs):
        got = _outcome(fill_pair, volumes, alloc, order, 0.1, "numpy")
        ref = _outcome(fill_pair, volumes, alloc, order, 0.1, "scalar")
        if isinstance(ref, str) or isinstance(got, str):
            assert got == ref, f"pair {i}"
            continue
        for g, r in zip(got, ref):
            assert np.array_equal(g, r, equal_nan=True), f"pair {i}"


@settings(max_examples=20, deadline=None)
@given(pairs=pair_fill_cases())
def test_fill_pairs_scalar_backend_equals_batched(pairs):
    """pairfill.fill_pairs: 'scalar' routing == kernel routing."""
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
    """No pairs to fill (a class without contention) is an empty fill."""
    phase: dict[str, float] = {}
    assert fill_pairs([], [], [], epsilon=0.1, phase_out=phase) == []
    assert phase == {}


def test_batch_validation_errors():
    with pytest.raises(ValueError, match="one-dimensional"):
        fast_ssp_sorted(np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        fast_ssp_sorted(np.array([-1.0]), 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        fast_ssp_sorted(np.ones(1), 1.0, epsilon=1.5)
    # A NaN capacity is rejected by both implementations alike ...
    for solve in (fast_ssp, fast_ssp_sorted):
        with pytest.raises(ValueError, match="capacity"):
            solve(np.array([1.0, 2.0]), float("nan"))
        with pytest.raises(ValueError, match="capacity"):
            solve(np.empty(0), np.float64("nan"))
    # ... while an infinite one fits everything.
    res = fast_ssp_sorted(np.array([1.0, 2.0]), float("inf"))
    assert res == fast_ssp(np.array([1.0, 2.0]), float("inf"))
    assert res.selected == (0, 1) and res.error_bound == 0.0
    # The fill loop validates every tunnel's free demands.
    with pytest.raises(ValueError, match="non-negative"):
        fill_pair(
            np.array([1.0, -1.0]), np.ones(1), np.zeros(1, np.int64), 0.1
        )
    with pytest.raises(ValueError, match="unknown SSP backend"):
        resolve_ssp_backend_name("bogus")
    with pytest.raises(ValueError, match="unknown SSP backend"):
        fill_pairs([], [], [], epsilon=0.1, ssp_backend="bogus")


class TestBackendResolution:
    """The constructor argument is the only selector; None is the kernel."""

    def test_default_is_numpy(self):
        assert resolve_ssp_backend_name() == "numpy"
        assert resolve_ssp_backend_name(None) == "numpy"
        assert resolve_ssp_backend_name(" Scalar ") == "scalar"


def test_result_views_match_fast_ssp_shapes():
    """selected_array is ascending int64; the result == fast_ssp's."""
    values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    res = fast_ssp_sorted(values, 9.0)
    sel = res.selected_array
    assert sel.dtype == np.int64
    assert np.all(np.diff(sel) > 0)
    assert res == fast_ssp(values, 9.0)


def test_phase_timings_accumulate():
    """fill_pairs reports non-negative kernel phase seconds."""
    rng = np.random.default_rng(3)
    vols = [rng.exponential(1.0, 40) for _ in range(5)]
    allocs = [np.array([v.sum() * 0.3, v.sum() * 0.2]) for v in vols]
    orders = [np.array([0, 1], dtype=np.int64)] * 5
    phase: dict[str, float] = {"sort": 1.0}
    fill_pairs(vols, allocs, orders, epsilon=0.1, phase_out=phase)
    assert set(phase) == set(SSP_PHASE_KEYS) == {
        "sort",
        "cluster",
        "dp",
        "greedy",
        "extract",
    }
    assert phase["sort"] >= 1.0  # accumulated into, not overwritten
    assert all(v >= 0.0 for v in phase.values())
    # The reference records no kernel phases.
    scalar_phase: dict[str, float] = {}
    fill_pairs(
        vols,
        allocs,
        orders,
        epsilon=0.1,
        ssp_backend="scalar",
        phase_out=scalar_phase,
    )
    assert scalar_phase == {}


def test_degenerate_subnormal_capacity_batch():
    """Delta-underflow capacities match the reference."""
    values = np.array([1.0, 2.0, 3.0, 0.5])
    for capacity in (5e-324, 1e-300, 2.2250738585072014e-308):
        _assert_results_equal(
            fast_ssp_sorted(values, capacity, epsilon=0.1),
            fast_ssp(values, capacity, epsilon=0.1),
            f"cap={capacity!r}",
        )


def test_replay_digest_scalar_vs_batched():
    """End to end: a small replay is digest-identical across backends."""
    from repro.core import MegaTEOptimizer
    from repro.experiments.interval_replay import run_interval_replay

    config = dict(
        total_endpoints=2_000,
        num_site_pairs=20,
        target_load=1.6,
        num_intervals=2,
    )
    scalar = run_interval_replay(
        optimizer=MegaTEOptimizer(ssp_backend="scalar"), **config
    )
    batched = run_interval_replay(
        optimizer=MegaTEOptimizer(ssp_backend="numpy"), **config
    )
    assert scalar.ssp_backend == "scalar"
    assert batched.ssp_backend == "numpy"
    assert scalar.assignment_digest == batched.assignment_digest
    assert batched.ssp_batch_phase_s  # kernel actually ran
    assert not scalar.ssp_batch_phase_s
