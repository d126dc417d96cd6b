"""Property tests: array-diff ``TEController.publish`` against the
dict-of-dicts publisher it replaced.

``publish`` forms ``(src, dst, path id)`` rows from the flat assignment
and diffs them against the previously published rows as arrays.
:class:`ReferencePublisher` below is the implementation that replaced —
one ``{dst: path}`` dict per source endpoint, compared dict to dict —
kept here as the oracle (it writes in ascending endpoint order, which is
the order ``publish`` documents).  Over sequences of results on
alternating healthy / ``with_failures`` topologies — flows going
unassigned and coming back, duplicate ``(src, dst)`` rows, pairs without
endpoint ids, delta publish on and off — both must write the same
configs in the same order (``publish`` in one ``database.put_many``, the
reference one ``database.put`` at a time, its dicts equal to
``publish``'s packed-row views), and the same
``database.commit_version`` after them.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import (
    EndpointConfig,
    QueryRejected,
    TEController,
    TEDatabase,
    VERSION_KEY,
    config_key,
)
from repro.core import FlowAssignment, TEResult
from repro.core.flowtable import FlowTable, csr_offsets
from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix


def _topologies() -> list[TwoLayerTopology]:
    """A ring with two tunnels per pair, and the same ring with a->b
    cut: every pair loses a tunnel, so surviving tunnels' indices shift
    while their paths do not."""
    net = SiteNetwork(name="ring")
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        net.add_duplex_link(u, v, capacity=10.0, latency_ms=1.0)
    catalog = build_tunnels(
        net,
        site_pairs=[("a", "b"), ("a", "c"), ("d", "b")],
        tunnels_per_pair=2,
    )
    layout = EndpointLayout({"a": 4, "b": 4, "c": 4, "d": 4})
    healthy = TwoLayerTopology(network=net, catalog=catalog, layout=layout)
    return [healthy, healthy.with_failures([("a", "b")])]


TOPOLOGIES = _topologies()
NUM_PAIRS = TOPOLOGIES[0].catalog.num_pairs


def test_the_cut_shifts_tunnel_indices():
    """The premise of the cross-catalog cases below."""
    healthy, cut = (t.catalog for t in TOPOLOGIES)
    shifted = 0
    for k in range(NUM_PAIRS):
        assert 0 < len(cut.tunnels(k)) < len(healthy.tunnels(k))
        shifted += cut.tunnels(k)[0].path != healthy.tunnels(k)[0].path
    assert shifted


class RecordingDatabase(TEDatabase):
    """A TE database that logs its writes — config puts, and commits as
    ``(VERSION_KEY, version)`` — and can reject the n-th one.

    Every config write goes through ``put_many`` (``put`` is its one-row
    call), so a rejection lands mid-batch the way a shard's would: the
    keys before it stored, the error's ``stored`` saying so."""

    def __init__(self, reject_put: int | None = None) -> None:
        super().__init__(enforce_capacity=False)
        self.puts: list[tuple[str, object]] = []
        self.reject_put = reject_put

    def _record(self, key, value) -> None:
        if len(self.puts) == self.reject_put:
            self.reject_put = None
            raise QueryRejected("injected")
        self.puts.append((key, value))

    def put_many(self, keys, values, now=0.0):
        for i, (key, value) in enumerate(zip(keys, values)):
            try:
                self._record(key, value)
            except QueryRejected as exc:
                exc.stored = super().put_many(keys[:i], values[:i], now=now)
                raise
        return super().put_many(keys, values, now=now)

    def commit_version(self, version, now=0.0):
        self._record(VERSION_KEY, version)
        super().commit_version(version, now=now)


class ReferencePublisher:
    """The dict-of-dicts publisher the array diff replaced."""

    def __init__(self, database: TEDatabase, delta_publish: bool) -> None:
        self.database = database
        self.delta_publish = delta_publish
        self.current_version = 0
        self.published: dict[int, dict[int, tuple[str, ...]]] = {}
        self.last_publish_writes = 0

    def publish(self, topology, result, now: float = 0.0) -> int:
        next_version = self.current_version + 1
        table = result.demands.table
        assigned = result.assignment.assigned_tunnel
        per_endpoint: dict[int, dict[int, tuple[str, ...]]] = {}
        for i, k in enumerate(table.pair_ids().tolist()):
            if assigned[i] < 0 or not table.has_endpoints[k]:
                continue
            path = topology.catalog.tunnels(k)[int(assigned[i])].path
            src = int(table.src_endpoints[i])
            per_endpoint.setdefault(src, {})[int(table.dst_endpoints[i])] = path
        writes = 0
        for endpoint_id in sorted(per_endpoint):
            paths = per_endpoint[endpoint_id]
            if self.delta_publish and self.published.get(endpoint_id) == paths:
                continue
            self.database.put(
                config_key(endpoint_id),
                EndpointConfig(endpoint_id, next_version, paths),
                now=now,
            )
            self.published[endpoint_id] = paths
            writes += 1
        self.database.commit_version(next_version, now=now)
        self.current_version = next_version
        self.last_publish_writes = writes
        return next_version


def _result(variant: int, flows, has_endpoints) -> TEResult:
    """A TEResult over ``flows`` = (pair, src, dst, choice) tuples, where
    ``choice`` picks unassigned (0) or one of the pair's live tunnels."""
    catalog = TOPOLOGIES[variant].catalog
    flows = sorted(flows, key=lambda f: f[0])  # pair-major, draw order kept
    pair = [f[0] for f in flows]
    assigned = [
        -1 if choice == 0 else (choice - 1) % len(catalog.tunnels(k))
        for k, _, _, choice in flows
    ]
    table = FlowTable(
        csr_offsets(np.bincount(pair, minlength=NUM_PAIRS)),
        np.ones(len(flows)),
        np.full(len(flows), 2, dtype=np.int8),
        np.array([f[1] for f in flows], dtype=np.int64),
        np.array([f[2] for f in flows], dtype=np.int64),
        has_endpoints=np.array(has_endpoints, dtype=bool),
    )
    return TEResult(
        scheme="drawn",
        assignment=FlowAssignment.from_flat(
            np.array(assigned, dtype=np.int32), table.offsets
        ),
        demands=DemandMatrix.from_table(table),
        satisfied_volume=0.0,
        runtime_s=0.0,
    )


# Few endpoints and few pairs: duplicate (src, dst) rows, an endpoint's
# flows all going unassigned, and a config coming back unchanged are all
# common draws.
_flow = st.tuples(
    st.integers(0, NUM_PAIRS - 1),
    st.integers(0, 4),
    st.integers(0, 5),
    st.integers(0, 2),
)
_interval = st.tuples(
    st.integers(0, 1),
    st.lists(_flow, max_size=12),
    # Mostly every pair carries endpoint ids.
    st.lists(
        st.sampled_from([True, True, True, False]),
        min_size=NUM_PAIRS,
        max_size=NUM_PAIRS,
    ),
)


def _assert_same_puts(got: RecordingDatabase, want: RecordingDatabase) -> None:
    assert [key for key, _ in got.puts] == [key for key, _ in want.puts]
    for (key, value), (_, expected) in zip(got.puts, want.puts):
        # A packed-row view equals the reference's dict as a Mapping.
        assert value == expected, key
        if isinstance(value, EndpointConfig):
            assert isinstance(value.paths, Mapping)
            assert dict(value.paths) == expected.paths
            assert all(type(dst) is int for dst in value.paths)
            assert all(type(p) is tuple for p in value.paths.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(_interval, min_size=1, max_size=8), st.booleans())
def test_publish_matches_reference(intervals, delta_publish):
    database, expected = RecordingDatabase(), RecordingDatabase()
    controller = TEController(database, delta_publish=delta_publish)
    reference = ReferencePublisher(expected, delta_publish)
    for n, (variant, flows, has_endpoints) in enumerate(intervals):
        result = _result(variant, flows, has_endpoints)
        topology = TOPOLOGIES[variant]
        first_put = len(database.puts)
        version = controller.publish(topology, result, now=float(n))
        assert version == reference.publish(topology, result, now=float(n))
        assert controller.last_publish_writes == reference.last_publish_writes
        _assert_same_puts(database, expected)
        assert {
            database.committed_version(s) for s in range(database.num_shards)
        } == {version}
        # Configs first, ascending by endpoint; the commit last.
        keys = [key for key, _ in database.puts[first_put:]]
        assert keys[-1] == VERSION_KEY and VERSION_KEY not in keys[:-1]
        endpoint_ids = [value.endpoint_id for _, value in database.puts[first_put:-1]]
        assert endpoint_ids == sorted(set(endpoint_ids))
    assert controller.current_version == len(intervals)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_interval, min_size=1, max_size=4),
    st.integers(0, 6),
    st.booleans(),
)
def test_interrupted_publish_resumes_like_reference(
    intervals, reject_put, delta_publish
):
    """A put rejected part-way leaves what already landed published: the
    retry rewrites only the rest (under delta publish) and both sides
    still agree on every later interval."""
    database = RecordingDatabase(reject_put=reject_put)
    expected = RecordingDatabase(reject_put=reject_put)
    controller = TEController(database, delta_publish=delta_publish)
    reference = ReferencePublisher(expected, delta_publish)
    for variant, flows, has_endpoints in intervals:
        result = _result(variant, flows, has_endpoints)
        for publisher in (controller, reference):
            try:
                publisher.publish(TOPOLOGIES[variant], result)
            except QueryRejected:
                publisher.publish(TOPOLOGIES[variant], result)
        assert controller.current_version == reference.current_version
        assert controller.last_publish_writes == reference.last_publish_writes
        _assert_same_puts(database, expected)


def test_endpoint_with_all_flows_unassigned_keeps_its_config():
    """The documented edge: no publishable flow this interval means the
    endpoint is neither rewritten nor forgotten."""
    database = RecordingDatabase()
    controller = TEController(database)
    everything = [True] * NUM_PAIRS
    controller.publish(
        TOPOLOGIES[0], _result(0, [(0, 1, 2, 1), (1, 3, 4, 2)], everything)
    )
    config, _ = database.get(config_key(1))
    # Endpoint 1's only flow goes unassigned: nothing is written for it...
    controller.publish(
        TOPOLOGIES[0], _result(0, [(0, 1, 2, 0), (1, 3, 4, 2)], everything)
    )
    assert controller.last_publish_writes == 0
    assert database.get(config_key(1))[0] is config
    # ...and when the flow comes back on the same path, still nothing.
    controller.publish(
        TOPOLOGIES[0], _result(0, [(0, 1, 2, 1), (1, 3, 4, 2)], everything)
    )
    assert controller.last_publish_writes == 0
    # On another path it is rewritten.
    controller.publish(
        TOPOLOGIES[0], _result(0, [(0, 1, 2, 2), (1, 3, 4, 2)], everything)
    )
    assert controller.last_publish_writes == 1
    assert database.get(config_key(1))[0].paths != config.paths


def test_same_path_under_shifted_index_is_not_rewritten():
    """Path ids, not tunnel indices, are what the diff compares."""
    healthy, cut = TOPOLOGIES
    survivor = cut.catalog.tunnels(0)[0].path
    index = [t.path for t in healthy.catalog.tunnels(0)].index(survivor)
    assert index != 0
    controller = TEController(RecordingDatabase())
    everything = [True] * NUM_PAIRS
    controller.publish(healthy, _result(0, [(0, 1, 2, 1 + index)], everything))
    assert controller.last_publish_writes == 1
    controller.publish(cut, _result(1, [(0, 1, 2, 1)], everything))
    assert controller.last_publish_writes == 0


def test_tunnel_index_outside_the_catalog_is_rejected():
    """A result solved on the healthy catalog, published on the cut one."""
    result = _result(0, [(0, 1, 2, 2)], [True] * NUM_PAIRS)
    assert result.assignment.assigned_tunnel.tolist() == [1]
    database = RecordingDatabase()
    with pytest.raises(IndexError):
        TEController(database).publish(TOPOLOGIES[1], result)
    assert database.puts == []


@pytest.mark.parametrize("bad", [-1, 2**31])
def test_endpoint_id_that_cannot_be_packed_is_rejected(bad):
    result = _result(0, [(0, bad, 2, 1)], [True] * NUM_PAIRS)
    with pytest.raises(ValueError):
        TEController(RecordingDatabase()).publish(TOPOLOGIES[0], result)


def test_largest_packable_endpoint_id_is_diffed_correctly():
    top = 2**31 - 1
    database = RecordingDatabase()
    controller = TEController(database)
    result = _result(0, [(0, top, top, 1), (0, top, 0, 2)], [True] * NUM_PAIRS)
    controller.publish(TOPOLOGIES[0], result)
    assert [key for key, _ in database.puts] == [config_key(top), VERSION_KEY]
    assert set(database.puts[0][1].paths) == {0, top}
    controller.publish(TOPOLOGIES[0], result)
    assert controller.last_publish_writes == 0


def test_unchanged_config_pins_nothing_of_later_publishes():
    """One endpoint keeps its config while every other one is rewritten
    for 50 publishes: its config stays the object first written, holds
    only its own rows, and resident bytes do not grow with the
    publishes."""
    everything = [True] * NUM_PAIRS
    # Endpoint 0: one flow, never moves.  Endpoints 1..40: 20 flows
    # each, all flipping tunnels every publish.
    steady = (0, 0, 1, 1)
    results = [
        _result(
            0,
            [steady]
            + [(k, src, dst, 1 + flip) for src in range(1, 41)
               for k, dst in ((dst % NUM_PAIRS, dst) for dst in range(20))],
            everything,
        )
        for flip in (0, 1)
    ]
    database = TEDatabase(enforce_capacity=False)
    controller = TEController(database)
    controller.publish(TOPOLOGIES[0], results[0])
    config = database.get(config_key(0))[0]

    def publish(n: int) -> None:
        for i in range(n):
            controller.publish(TOPOLOGIES[0], results[(i + 1) % 2])
            assert controller.last_publish_writes == 40

    tracemalloc.start()
    try:
        publish(10)  # every live config is now a traced allocation
        settled = tracemalloc.get_traced_memory()[0]
        publish(40)
        grown = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
    assert database.get(config_key(0)) == (config, 1)
    assert config.paths == {1: TOPOLOGIES[0].catalog.tunnels(0)[0].path}
    # Its row store is a 16-byte object of its own, not a window on a
    # publish-wide buffer.
    assert sys.getsizeof(config.paths._rows) == sys.getsizeof(bytes(16))
    assert grown < 4_096, grown


def test_packed_paths_walk_their_rows_once(monkeypatch):
    """An install walks every destination of a config: ``items()`` and
    ``values()`` read the rows in one pass instead of looking each key
    up again (quadratic in a config's rows)."""
    catalog = TOPOLOGIES[0].catalog
    database = TEDatabase(enforce_capacity=False)
    flows = [(dst % NUM_PAIRS, 1, dst, 1) for dst in range(300)]
    TEController(database).publish(
        TOPOLOGIES[0], _result(0, flows, [True] * NUM_PAIRS)
    )
    paths = database.get(config_key(1))[0].paths
    expected = {
        dst: catalog.tunnels(dst % NUM_PAIRS)[0].path for dst in range(300)
    }
    assert paths[299] == expected[299] and 300 not in paths
    monkeypatch.setattr(
        type(paths), "__getitem__", lambda self, dst: pytest.fail("lookup")
    )
    assert dict(paths.items()) == expected
    assert list(paths.values()) == list(expected.values())
    assert list(paths) == list(expected)


# -- the segment index and the published rows --------------------------------


def _assert_published(controller: TEController, reference) -> None:
    """The controller's segment index is the one its published rows
    imply, and those rows are the reference's published configs."""
    key = controller._pub_key
    assert (np.diff(key) > 0).all()  # ascending, one row per (src, dst)
    assert controller._pub_path.shape == key.shape
    endpoints, starts = np.unique(key >> 32, return_index=True)
    np.testing.assert_array_equal(controller._pub_endpoints, endpoints)
    np.testing.assert_array_equal(
        controller._pub_offsets, np.append(starts, key.size)
    )
    table = controller._path_table
    published: dict[int, dict[int, tuple[str, ...]]] = {}
    for row, path_id in zip(key.tolist(), controller._pub_path.tolist()):
        published.setdefault(row >> 32, {})[row & (2**32 - 1)] = table[path_id]
    assert published == reference.published


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_interval, min_size=1, max_size=8),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 12)),
)
def test_segment_index_follows_every_publish(intervals, delta_publish, reject):
    """After every publish — cold (every endpoint written), warm, with
    endpoints appearing and disappearing, and one whose ``put_many`` is
    rejected part-way and then retried — the segment index matches one
    recomputed from ``_pub_key``, and the published rows are what the
    reference published."""
    database = RecordingDatabase(reject_put=reject)
    expected = RecordingDatabase(reject_put=reject)
    controller = TEController(database, delta_publish=delta_publish)
    reference = ReferencePublisher(expected, delta_publish)
    _assert_published(controller, reference)
    for variant, flows, has_endpoints in intervals:
        result = _result(variant, flows, has_endpoints)
        rejected = []
        for publisher in (controller, reference):
            try:
                publisher.publish(TOPOLOGIES[variant], result)
            except QueryRejected:
                rejected.append(publisher)
        if rejected:
            assert rejected == [controller, reference]
            _assert_published(controller, reference)
            for publisher in rejected:
                publisher.publish(TOPOLOGIES[variant], result)
        assert controller.last_publish_writes == reference.last_publish_writes
        _assert_published(controller, reference)


def test_cold_publish_of_many_endpoints_then_every_one_moves():
    """Hundreds of endpoints written at once, twice: a cold publish, then
    one where every path moves."""
    everything = [True] * NUM_PAIRS
    database, expected = RecordingDatabase(), RecordingDatabase()
    controller = TEController(database)
    reference = ReferencePublisher(expected, delta_publish=True)
    for choice in (1, 2):
        flows = [
            (src % NUM_PAIRS, src, dst, choice)
            for src in range(300)
            for dst in range(src % 4)
        ]
        result = _result(0, flows, everything)
        controller.publish(TOPOLOGIES[0], result)
        reference.publish(TOPOLOGIES[0], result)
        assert controller.last_publish_writes == 225
        _assert_published(controller, reference)
        _assert_same_puts(database, expected)


class _LookupOnly:
    """Paths view whose whole-dict build fails the test."""

    def _as_dict(self):
        pytest.fail("a lookup built the whole dict")


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 2**31 - 1), st.integers(0, 2), max_size=40),
    st.lists(
        st.one_of(
            st.integers(-3, 2**32),
            st.floats(allow_nan=True),
            st.text(max_size=2),
            st.none(),
        ),
        max_size=20,
    ),
)
def test_packed_path_lookups_equal_the_dicts(paths_by_dst, probes):
    """``[]``, ``get`` and ``in`` answer as the dict would, by a binary
    search of the rows — never by building the dict."""
    from repro.controlplane.controller import _RowPaths

    table = [("a",), ("a", "b"), ("a", "c", "b")]
    rows = np.array(sorted(paths_by_dst.items()), dtype=np.int64).reshape(-1, 2)
    view = type("Probe", (_LookupOnly, _RowPaths), {})(rows.tobytes(), table)
    expected = {dst: table[i] for dst, i in paths_by_dst.items()}
    missing = object()
    for probe in [*probes, *expected]:
        assert view.get(probe, missing) == expected.get(probe, missing)
        assert (probe in view) == (probe in expected)
        if probe in expected:
            assert view[probe] == expected[probe]
        else:
            with pytest.raises(KeyError):
                view[probe]
