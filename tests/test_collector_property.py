"""Property tests: the buffered-then-vectorised collector against the
per-record dict model it replaced.

``DemandCollector.ingest`` only buffers; site resolution, unroutable
accounting and same-pair aggregation happen in one vectorised drain.
:class:`ReferenceCollector` below is the implementation that drain
replaced — one dict probe per record, arbitrary-precision sums — kept
here as the oracle.  Any interleaving of ingests, peeks and builds must
give the reference's table column for column (volumes bit for bit) and
the same cumulative ``unroutable_bytes`` / ``num_flows``.

The drain sorts by one packed ``(pair, src, dst)`` int64 key when the
catalog and layout are small enough for it to fit and by ``lexsort``
otherwise; the properties run on a layout on each side of that line.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import DemandCollector, FlowRecord
from repro.core.qos import QoSClass
from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout

INTERVAL_S = 60.0
QOS = list(QoSClass)


def _topology(extra_endpoints: int = 0) -> TwoLayerTopology:
    """Four sites (one without endpoints), three catalog pairs whose
    index order differs from their site order, the rest unroutable.
    ``extra_endpoints`` more hang off the last site, past every id the
    properties draw."""
    net = SiteNetwork(name="square")
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        net.add_duplex_link(u, v, capacity=10.0, latency_ms=1.0)
    catalog = build_tunnels(
        net,
        site_pairs=[("c", "a"), ("a", "b"), ("a", "c")],
        tunnels_per_pair=2,
    )
    layout = EndpointLayout(
        {"a": 3, "b": 2, "d": 0, "c": 3 + extra_endpoints}
    )
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


TOPOLOGY = _topology()
NUM_ENDPOINTS = TOPOLOGY.layout.num_endpoints
#: Same sites for the drawn ids, but too many endpoints for the packed
#: sort key: this one drains through ``lexsort``.
WIDE_TOPOLOGY = _topology(extra_endpoints=2**31)
_topologies = st.sampled_from([TOPOLOGY, WIDE_TOPOLOGY])


def test_the_layouts_straddle_the_packed_key_limit():
    """The premise of drawing the topology below."""
    bits = [
        t.catalog.num_pairs.bit_length()
        + 2 * t.layout.num_endpoints.bit_length()
        for t in (TOPOLOGY, WIDE_TOPOLOGY)
    ]
    assert bits[0] <= 63 < bits[1]


class ReferenceCollector:
    """The per-record dict collector the vectorised drain replaced."""

    def __init__(self, topology: TwoLayerTopology) -> None:
        self.topology = topology
        self.flows: dict[tuple[int, int], list] = {}
        self.unroutable_bytes = 0

    def ingest(self, src: int, dst: int, sent: int, qos: int) -> None:
        layout, catalog = self.topology.layout, self.topology.catalog
        sites = layout.site_of(src), layout.site_of(dst)
        if not catalog.has_pair(*sites):
            self.unroutable_bytes += sent
            return
        entry = self.flows.get((src, dst))
        if entry is None:
            self.flows[(src, dst)] = [sent, qos, catalog.pair_index(*sites)]
        else:
            entry[0] += sent
            entry[1] = qos  # latest registration wins

    def build(self, clear: bool) -> dict[str, np.ndarray]:
        rows = sorted(
            (k, src, dst, sent, qos)
            for (src, dst), (sent, qos, k) in self.flows.items()
        )
        ks = np.array([r[0] for r in rows], dtype=np.int64)
        byte_counts = np.array([r[3] for r in rows], dtype=np.float64)
        counts = np.bincount(
            ks, minlength=self.topology.catalog.num_pairs
        )
        if clear:
            self.flows.clear()
        return {
            "offsets": np.concatenate(([0], np.cumsum(counts))),
            "volumes": byte_counts * 8.0 / INTERVAL_S / 1e9,
            "qos": np.array([r[4] for r in rows], dtype=np.int8),
            "src_endpoints": np.array([r[1] for r in rows], dtype=np.int64),
            "dst_endpoints": np.array([r[2] for r in rows], dtype=np.int64),
            "has_endpoints": counts > 0,
        }


def _assert_same_table(table, want: dict[str, np.ndarray]) -> None:
    for column, expected in want.items():
        got = getattr(table, column)
        assert got.dtype == expected.dtype, column
        np.testing.assert_array_equal(got, expected, err_msg=column)


_endpoint = st.integers(min_value=0, max_value=NUM_ENDPOINTS - 1)
_record = st.tuples(
    st.just("ingest"),
    _endpoint,
    _endpoint,
    # Sums of a few dozen of these stay inside int64; the large ones
    # exceed float64's 53-bit mantissa, so the order of summing and
    # converting matters.
    st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=2**56),
    ),
    st.sampled_from(QOS),
)
_ops = st.lists(
    st.one_of(
        _record,
        _record,
        _record,
        st.tuples(st.just("build"), st.booleans()),
        st.tuples(st.just("peek")),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_ops, _topologies)
def test_collector_matches_reference(ops, topology):
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    reference = ReferenceCollector(topology)
    # A final clearing build covers whatever the drawn ops left behind.
    for op in [*ops, ("build", False), ("build", True), ("build", True)]:
        if op[0] == "ingest":
            _, src, dst, sent, qos = op
            collector.ingest(FlowRecord(src, dst, sent, qos))
            reference.ingest(src, dst, sent, qos.value)
            continue  # stays buffered until a build or a peek drains it
        if op[0] == "build":
            _assert_same_table(
                collector.build_matrix(clear=op[1]).table,
                reference.build(clear=op[1]),
            )
        assert collector.num_flows == len(reference.flows)
        assert collector.unroutable_bytes == reference.unroutable_bytes
    assert collector.num_flows == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_record, max_size=30),
    st.randoms(use_true_random=False),
    _topologies,
)
def test_ingest_order_only_decides_the_qos_tie(records, rng, topology):
    """Shuffling the reports changes nothing but which same-pair report
    came last (whose qos wins) — and the reference agrees on that too."""
    shuffled = list(records)
    rng.shuffle(shuffled)
    tables = []
    for ordering in (records, shuffled):
        collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
        reference = ReferenceCollector(topology)
        for _, src, dst, sent, qos in ordering:
            collector.ingest(FlowRecord(src, dst, sent, qos))
            reference.ingest(src, dst, sent, qos.value)
        table = collector.build_matrix().table
        _assert_same_table(table, reference.build(clear=True))
        tables.append(table)
    for column in ("offsets", "volumes", "src_endpoints", "dst_endpoints"):
        np.testing.assert_array_equal(
            getattr(tables[0], column), getattr(tables[1], column)
        )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_record, min_size=20, max_size=300),
    st.randoms(use_true_random=False),
    st.sets(st.integers(0, 299), max_size=3),
    _topologies,
)
def test_duplicate_heavy_shuffled_reports_match_reference(
    records, rng, peeks, topology
):
    """Hundreds of reports over a handful of endpoints, in shuffled
    order: nearly every (src, dst) group holds several reports, so the
    drain's unstable sort scrambles each group and only the tie repair
    keeps "the latest report's qos wins".  Peeks drain part-way, so
    drained rows and fresh reports share groups too."""
    shuffled = list(records)
    rng.shuffle(shuffled)
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    reference = ReferenceCollector(topology)
    for i, (_, src, dst, sent, qos) in enumerate(shuffled):
        collector.ingest(FlowRecord(src, dst, sent, qos))
        reference.ingest(src, dst, sent, qos.value)
        if i in peeks:
            assert collector.num_flows == len(reference.flows)
    _assert_same_table(
        collector.build_matrix().table, reference.build(clear=True)
    )


def test_packed_key_orders_the_largest_ids_it_admits():
    """Endpoint ids at the top of the widest layout that still packs."""
    topology = _topology(extra_endpoints=2**30 - 1 - NUM_ENDPOINTS)
    top = topology.layout.num_endpoints - 1
    assert (
        topology.catalog.num_pairs.bit_length() + 2 * top.bit_length() == 62
    )
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    reference = ReferenceCollector(topology)
    for src, dst in ((0, top), (top, 0), (0, top - 1), (top - 1, 1), (top, 0)):
        collector.ingest(FlowRecord(src, dst, 10))
        reference.ingest(src, dst, 10, QoSClass.CLASS2.value)
    _assert_same_table(
        collector.build_matrix().table, reference.build(clear=True)
    )


def test_empty_interval():
    collector = DemandCollector(TOPOLOGY, interval_seconds=INTERVAL_S)
    table = collector.build_matrix().table
    _assert_same_table(table, ReferenceCollector(TOPOLOGY).build(clear=True))
    assert table.num_flows == 0
    assert table.num_pairs == TOPOLOGY.catalog.num_pairs
    assert not table.has_endpoints.any()


def test_catalog_grown_after_construction_is_seen():
    """The site-pair table follows the catalog it was built from."""
    topology = _topology()
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    b = topology.layout.endpoint_ids("b")[0]
    c = topology.layout.endpoint_ids("c")[0]
    collector.ingest(FlowRecord(b, c, 100))
    assert collector.unroutable_bytes == 100
    topology.catalog.add_pair(
        "b", "c", build_tunnels(
            topology.network, site_pairs=[("b", "c")], tunnels_per_pair=1
        ).tunnels(0),
    )
    collector.ingest(FlowRecord(b, c, 100))
    assert collector.unroutable_bytes == 100
    assert collector.num_flows == 1
    table = collector.build_matrix().table
    assert table.counts.tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize("clear", [True, False])
def test_built_table_is_detached_from_later_ingests(clear):
    """A matrix handed out must not change when the collector moves on."""
    collector = DemandCollector(TOPOLOGY, interval_seconds=INTERVAL_S)
    collector.ingest(FlowRecord(0, 3, 1_000))
    table = collector.build_matrix(clear=clear).table
    before = {c: getattr(table, c).copy() for c in ("volumes", "qos", "src_endpoints")}
    collector.ingest(FlowRecord(0, 3, 5_000, QoSClass.CLASS1))
    collector.ingest(FlowRecord(1, 4, 7))
    collector.build_matrix()
    for column, expected in before.items():
        np.testing.assert_array_equal(getattr(table, column), expected)


# -- drawn layouts and catalogs ----------------------------------------------

SITES = ("a", "b", "c", "d")
_INT64_MAX = 2**63 - 1


@st.composite
def _drawn_topologies(draw) -> TwoLayerTopology:
    """A ring of four sites under a drawn layout and catalog: zero-count
    sites, catalog pairs whose sites the layout lacks, pair indices in
    any order, and now and then a site pair the catalog lists twice."""
    net = SiteNetwork(name="square")
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        net.add_duplex_link(u, v, capacity=10.0, latency_ms=1.0)
    in_layout = draw(
        st.lists(st.sampled_from(SITES), min_size=1, max_size=4, unique=True)
    )
    layout = EndpointLayout(
        {site: draw(st.integers(0, 3)) for site in in_layout}
    )
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(SITES), st.sampled_from(SITES)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    catalog = build_tunnels(net, site_pairs=pairs, tunnels_per_pair=1)
    if draw(st.booleans()):
        # ``add_pair`` refuses a repeat, so list one behind its back:
        # the catalog's own index keeps the first registration.
        repeated = draw(st.integers(0, len(pairs) - 1))
        catalog._pairs.append(catalog._pairs[repeated])
        catalog._tunnels.append(list(catalog._tunnels[repeated]))
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


def _overflows(reference: ReferenceCollector) -> bool:
    return any(sent > _INT64_MAX for sent, _, _ in reference.flows.values())


@settings(max_examples=300, deadline=None)
@given(_drawn_topologies(), st.data())
def test_drawn_layouts_and_catalogs_match_reference(topology, data):
    """Any layout and catalog, duplicate-heavy reports over a handful of
    endpoints, ``clear=False`` merges and peeks: the table, the flow
    count and the unroutable bytes are the reference's.  A same-pair sum
    beyond int64 raises ``OverflowError`` at the drain and leaves the
    collector as it was."""
    n = topology.layout.num_endpoints
    endpoint = st.integers(0, max(n - 1, 0))
    sent = st.one_of(
        st.integers(0, 10**6),
        st.integers(0, 2**56),
        st.integers(2**61, _INT64_MAX),
    )
    report = st.tuples(st.just("ingest"), endpoint, endpoint, sent,
                       st.sampled_from(QOS))  # fmt: skip
    ops = data.draw(
        st.lists(
            st.one_of(
                report, report, report, report,
                st.tuples(st.just("build"), st.booleans()),
                st.tuples(st.just("peek")),
            ),
            max_size=60 if n else 4,
        )
    )  # fmt: skip
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    reference = ReferenceCollector(topology)
    for op in [*ops, ("build", False), ("build", True)]:
        if op[0] == "ingest":
            if n:
                _, src, dst, size, qos = op
                collector.ingest(FlowRecord(src, dst, size, qos))
                reference.ingest(src, dst, size, qos.value)
            continue
        if _overflows(reference):
            with pytest.raises(OverflowError):
                collector.build_matrix(clear=True)
            with pytest.raises(OverflowError):
                collector.num_flows
            return
        if op[0] == "build":
            _assert_same_table(
                collector.build_matrix(clear=op[1]).table,
                reference.build(clear=op[1]),
            )
        assert collector.num_flows == len(reference.flows)
        assert collector.unroutable_bytes == reference.unroutable_bytes


def test_repeated_catalog_pair_keeps_its_first_index():
    topology = _topology()
    catalog = topology.catalog
    catalog._pairs.append(catalog._pairs[2])  # ("a", "c") at 2 and 3
    catalog._tunnels.append(list(catalog._tunnels[2]))
    a = topology.layout.endpoint_ids("a")[0]
    c = topology.layout.endpoint_ids("c")[0]
    collector = DemandCollector(topology, interval_seconds=INTERVAL_S)
    collector.ingest(FlowRecord(a, c, 100))
    assert collector.build_matrix().table.counts.tolist() == [0, 0, 1, 0]
