"""Property tests: the CSR columnar store round-trips the legacy layout.

The :class:`~repro.core.flowtable.FlowTable` is the canonical backing
store of :class:`~repro.traffic.demand.DemandMatrix` and
:class:`~repro.core.types.FlowAssignment`; these tests pin the contract
that per-pair views are indistinguishable from the legacy per-pair
representation — including empty pairs, zero-pair matrices, and pairs
without endpoint ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlowAssignment, SiteAllocation, UNASSIGNED
from repro.core.flowtable import FlowTable, PairViews, csr_offsets, segment_sums
from repro.core.qos import QoSClass
from repro.traffic.demand import DemandMatrix, PairDemands

QOS_VALUES = [q.value for q in QoSClass]


@st.composite
def pair_demands_lists(draw):
    """Legacy per-pair demand lists: empty pairs and missing endpoints."""
    num_pairs = draw(st.integers(min_value=0, max_value=6))
    pairs = []
    for k in range(num_pairs):
        n = draw(st.integers(min_value=0, max_value=5))
        volumes = draw(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
        qos = draw(
            st.lists(st.sampled_from(QOS_VALUES), min_size=n, max_size=n)
        )
        with_endpoints = draw(st.booleans())
        if with_endpoints:
            src = np.arange(n, dtype=np.int64) + 100 * k
            dst = np.arange(n, dtype=np.int64) + 100 * k + 50
        else:
            src = dst = None
        pairs.append(
            PairDemands(
                volumes=np.asarray(volumes, dtype=np.float64),
                qos=np.asarray(qos, dtype=np.int8),
                src_endpoints=src,
                dst_endpoints=dst,
            )
        )
    return pairs


@settings(max_examples=200, deadline=None)
@given(pair_demands_lists())
def test_demand_matrix_views_round_trip_legacy(pairs):
    matrix = DemandMatrix(pairs)
    assert matrix.num_site_pairs == len(pairs)
    assert matrix.num_endpoint_pairs == sum(p.num_pairs for p in pairs)
    for k, legacy in enumerate(pairs):
        view = matrix.pair(k)
        np.testing.assert_array_equal(view.volumes, legacy.volumes)
        np.testing.assert_array_equal(view.qos, legacy.qos)
        if legacy.src_endpoints is None:
            assert view.src_endpoints is None
            assert view.dst_endpoints is None
        else:
            np.testing.assert_array_equal(
                view.src_endpoints, legacy.src_endpoints
            )
            np.testing.assert_array_equal(
                view.dst_endpoints, legacy.dst_endpoints
            )
    # Aggregates match the per-pair computation bit for bit.
    assert matrix.total_demand == sum(p.total for p in pairs)
    np.testing.assert_array_equal(
        matrix.site_demands(), np.array([p.total for p in pairs])
    )


@settings(max_examples=200, deadline=None)
@given(pair_demands_lists())
def test_table_offsets_partition_the_columns(pairs):
    table = DemandMatrix(pairs).table
    table.validate()
    assert table.offsets[0] == 0
    assert table.offsets[-1] == table.num_flows
    np.testing.assert_array_equal(
        table.counts, [p.num_pairs for p in pairs]
    )
    # pair_ids is the inverse of the offsets slicing.
    ids = table.pair_ids()
    for k in range(table.num_pairs):
        np.testing.assert_array_equal(
            np.flatnonzero(ids == k),
            np.arange(table.offsets[k], table.offsets[k + 1]),
        )


@settings(max_examples=200, deadline=None)
@given(pair_demands_lists(), st.sampled_from(list(QoSClass)))
def test_columnar_qos_slice_matches_legacy(pairs, qos):
    matrix = DemandMatrix(pairs)
    legacy = [p.select(p.qos == qos.value) for p in pairs]
    sliced = matrix.for_qos(qos)
    assert sliced.num_site_pairs == len(pairs)
    for k, want in enumerate(legacy):
        got = sliced.pair(k)
        np.testing.assert_array_equal(got.volumes, want.volumes)
        np.testing.assert_array_equal(got.qos, want.qos)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-1, max_value=7), max_size=5
        ),
        max_size=6,
    )
)
def test_assignment_views_write_through_to_flat(per_pair):
    arrays = [np.asarray(a, dtype=np.int64) for a in per_pair]
    assignment = FlowAssignment(per_pair=arrays)
    assert assignment.assigned_tunnel.dtype == np.int32
    assert assignment.num_flows() == sum(a.size for a in arrays)
    assert assignment.num_assigned() == sum(
        int((a >= 0).sum()) for a in arrays
    )
    for k, legacy in enumerate(arrays):
        np.testing.assert_array_equal(assignment.per_pair[k], legacy)
    # In-place writes through a view mutate the canonical flat store …
    for k in range(len(arrays)):
        view = assignment.per_pair[k]
        if view.size:
            view[0] = 3
            assert assignment.assigned_tunnel[
                assignment.offsets[k]
            ] == 3
    # … and wholesale assignment copies into the slice, not past it.
    for k in range(len(arrays)):
        assignment.per_pair[k] = np.full(
            arrays[k].size, UNASSIGNED, dtype=np.int64
        )
    assert (
        (assignment.assigned_tunnel == UNASSIGNED).all()
        or assignment.num_flows() == 0
    )


def test_zero_pair_matrix():
    matrix = DemandMatrix([])
    assert matrix.num_site_pairs == 0
    assert matrix.num_endpoint_pairs == 0
    assert matrix.total_demand == 0.0
    assert matrix.site_demands().size == 0
    assert matrix.for_qos(QoSClass.CLASS1).num_site_pairs == 0
    assignment = FlowAssignment.rejecting_all(matrix)
    assert assignment.num_flows() == 0


def test_pair_views_rejects_shape_mismatch():
    flat = np.zeros(4, dtype=np.float64)
    views = PairViews(flat, csr_offsets([2, 2]))
    with pytest.raises(ValueError, match="shape"):
        views[0] = np.zeros(3)


def test_site_allocation_flat_round_trip():
    alloc = SiteAllocation(
        per_pair=[np.array([1.0, 2.0]), np.array([]), np.array([3.0])]
    )
    assert alloc.total == 6.0
    assert alloc.allocation(0, 1) == 2.0
    rebuilt = SiteAllocation.from_flat(alloc.values, alloc.offsets)
    assert rebuilt.total == alloc.total
    # Views write through to the shared flat vector.
    rebuilt.per_pair[2][0] = 7.0
    assert alloc.allocation(2, 0) == 7.0


def test_select_keeps_endpoint_flags_for_emptied_pairs():
    table = FlowTable.from_columns(
        [np.array([1.0, 2.0]), np.array([4.0])],
        [np.array([1, 2], dtype=np.int8), np.array([3], dtype=np.int8)],
        [np.array([10, 11]), None],
        [np.array([20, 21]), None],
    )
    sub = table.select(table.qos == 3)
    assert sub.num_flows == 1
    np.testing.assert_array_equal(sub.counts, [0, 1])
    # Pair 0 lost all flows but keeps its has_endpoints flag; pair 1
    # still has none (legacy per-pair select behaves the same way).
    np.testing.assert_array_equal(sub.has_endpoints, [True, False])


# -- one segmented sum for every per-pair total -----------------------------

#: Values a demand or allocation column can hold, plus the ones it must
#: not but a sum still has to treat like ``.sum()`` does.
_SPECIAL = np.array(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf]
)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 400), max_size=16),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_segment_sums_match_per_pair_sum_bit_for_bit(lengths, seed, special):
    rng = np.random.default_rng(seed)
    offsets = csr_offsets(lengths)
    n = int(offsets[-1])
    values = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
    values *= rng.choice([-1.0, 1.0], n)
    swap = rng.random(n) < special
    values[swap] = rng.choice(_SPECIAL, int(swap.sum()))
    with np.errstate(invalid="ignore", over="ignore"):
        got = segment_sums(values, offsets)
        want = np.array(
            [values[lo:hi].sum() for lo, hi in zip(offsets[:-1], offsets[1:])],
            dtype=np.float64,
        )
    # A NaN's sign bit depends on operand order the compiler may swap;
    # every other result, signed zeros included, must match bit for bit.
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_segment_sums_of_no_segments():
    assert segment_sums(np.empty(0), csr_offsets([])).shape == (0,)
    assert segment_sums(np.empty(0), csr_offsets([0, 0])).tolist() == [0, 0]


def test_per_pair_totals_keep_their_bits():
    """``total_demand``, ``site_demands`` and ``SiteAllocation.total``
    equal the per-pair ``.sum()`` loops they replace, bit for bit."""
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 300, 40)
    offsets = csr_offsets(counts)
    volumes = rng.random(int(offsets[-1])) * 10.0 ** rng.integers(-8, 8, 1)
    qos = rng.integers(1, 4, volumes.size).astype(np.int8)
    matrix = DemandMatrix.from_table(FlowTable(offsets, volumes, qos))
    segments = [volumes[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    assert matrix.total_demand == sum(float(v.sum()) for v in segments)
    np.testing.assert_array_equal(
        matrix.site_demands(), [float(v.sum()) for v in segments]
    )
    for q in QoSClass:
        qs = [qos[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
        want = [float(v[c == q.value].sum()) for v, c in zip(segments, qs)]
        assert matrix.site_demands(q).tobytes() == np.array(want).tobytes()
    alloc = SiteAllocation.from_flat(volumes, offsets)
    assert alloc.total == float(sum(v.sum() for v in segments))


# -- the PairViews contract: lazy, still list-like --------------------------


def _views():
    flat = np.arange(6, dtype=np.float64)
    return flat, PairViews(flat, csr_offsets([2, 0, 3, 1]))


def test_pair_views_index_like_a_list():
    flat, views = _views()
    assert len(views) == 4
    assert views[-1].tolist() == [5.0]
    assert views[-4].tolist() == [0.0, 1.0]
    for bad in (4, -5):
        with pytest.raises(IndexError):
            views[bad]
    assert isinstance(views[1:3], list)
    assert [v.tolist() for v in views[1:3]] == [[], [2.0, 3.0, 4.0]]
    assert [v.tolist() for v in views[::-2]] == [[5.0], [0.0, 1.0][2:]]
    assert views[5:] == []


def test_pair_views_iterate_in_order_and_return_the_same_object():
    flat, views = _views()
    assert [v.tolist() for v in views] == [
        [0.0, 1.0], [], [2.0, 3.0, 4.0], [5.0]
    ]  # fmt: skip
    assert views[2] is views[2] is views[-2]
    assert all(a is b for a, b in zip(views, views))
    assert views[0].base is flat


def test_pair_views_write_through_and_copy_on_assignment():
    flat, views = _views()
    views[2][0] = 20.0
    views[-1] += 1.0
    assert flat.tolist() == [0.0, 1.0, 20.0, 3.0, 4.0, 6.0]
    replacement = np.array([7.0, 8.0])
    views[0] = replacement
    assert flat[:2].tolist() == [7.0, 8.0]
    replacement[0] = -1.0  # copied in, not bound
    assert flat[0] == 7.0 and views[0] is views[0]
    with pytest.raises(ValueError, match="shape"):
        views[3] = [1.0, 2.0]
    with pytest.raises(IndexError):
        views[4] = []


def test_pair_views_build_in_constant_memory():
    import tracemalloc

    num_pairs = 100_000
    flat = np.zeros(num_pairs)
    offsets = csr_offsets(np.ones(num_pairs, dtype=np.int64))
    tracemalloc.start()
    try:
        views = PairViews(flat, offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(views) == num_pairs
    # One eager view per pair would be ~100 B × 10⁵ = ~10 MB.
    assert peak < 4096
