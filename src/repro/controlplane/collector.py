"""The measurement backend: host flow reports → demand matrix.

Closes the loop the paper describes in §5.1: every TE interval, each
endpoint agent reads its host's ``traffic_map ⨝ inf_map`` and ships
``(instance, destination, bytes)`` records to a backend; the backend
aggregates them into the endpoint-pair demand matrix the optimizer
consumes next interval.

This module is that backend.  It knows the endpoint→site attachment (the
layout) and the catalog's site-pair ordering, converts byte counts over
the interval into Gbps demands, and tags each pair with its QoS class
(provided by the tenant's service registration).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import checks
from ..core.flowtable import FlowTable, concat_ranges, csr_offsets
from ..core.qos import QoSClass
from ..obs import get_registry, get_tracer
from ..traffic.demand import DemandMatrix

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology

__all__ = ["FlowRecord", "DemandCollector"]


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One agent-reported flow measurement.

    Attributes:
        src_endpoint: Source endpoint (instance) id.
        dst_endpoint: Destination endpoint id.
        bytes_sent: Bytes observed during the interval.
        qos: The flow's service class.
    """

    src_endpoint: int
    dst_endpoint: int
    bytes_sent: int
    qos: QoSClass = QoSClass.CLASS2

    def __post_init__(self) -> None:
        # One record per flow report: the test stays inline (NaN fails
        # it) and only a failure calls repro.checks.
        if not self.bytes_sent >= 0:
            checks.nonnegative("bytes_sent", self.bytes_sent)
        _check_qos(self.qos)


_QOS_CLASSES = frozenset(QoSClass)


def _check_qos(qos: int) -> None:
    """Reject a service class no class-solve would pick up."""
    if qos not in _QOS_CLASSES:
        raise ValueError(f"unknown QoS class {qos!r}")


_INT64_MAX = int(np.iinfo(np.int64).max)

#: One buffered report: src, dst, bytes, qos, packed little-endian.
_ROW = struct.Struct("<qqqb")
_pack = _ROW.pack
_ROW_DTYPE = np.dtype(
    [("src", "<i8"), ("dst", "<i8"), ("bytes", "<i8"), ("qos", "i1")]
)
assert _ROW_DTYPE.itemsize == _ROW.size


def _group_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact int64 sum of each run of ``values`` beginning at ``starts``.

    Raises:
        OverflowError: when a run's sum does not fit int64 (where a bare
            ``np.add.reduceat`` would wrap silently).
    """
    sums = np.add.reduceat(values, starts)
    longest = max(
        int(np.diff(starts).max(initial=0)), values.size - int(starts[-1])
    )
    if max(int(values.max()), -int(values.min())) * longest > _INT64_MAX:
        # A run may have wrapped.  Summing the 32-bit halves separately
        # cannot, and their carry-adjusted high half says whether the
        # true sum fits.
        high = np.add.reduceat(values >> 32, starts) + (
            np.add.reduceat(values & 0xFFFFFFFF, starts) >> 32
        )
        if ((high < -(2**31)) | (high >= 2**31)).any():
            raise OverflowError(
                "per-flow byte sum does not fit the int64 accumulator"
            )
    return sums


def _no_rows() -> tuple[np.ndarray, ...]:
    """Empty ``(src, dst, bytes, qos, k)`` columns."""
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int8),
        np.empty(0, dtype=np.int32),
    )


class DemandCollector:
    """Aggregates per-interval flow records into a demand matrix.

    Args:
        topology: Supplies the endpoint→site layout and the site-pair
            ordering the matrix must align with.
        interval_seconds: TE interval length (converts bytes → Gbps).

    :meth:`ingest` only validates a report and appends it to one buffer
    as a packed 25-byte row (src, dst, bytes as int64, qos as int8), whole
    or not at all.  Everything per-flow — endpoint→site resolution,
    site-pair lookup, unroutable accounting and same-``(src, dst)``
    aggregation — happens vectorised in one *drain* that
    :meth:`build_matrix`, :attr:`num_flows` and :attr:`unroutable_bytes`
    trigger.

    Records for endpoint pairs whose site pair is not in the catalog are
    counted in :attr:`unroutable_bytes` instead of the matrix (the
    optimizer could not act on them anyway).
    """

    def __init__(
        self,
        topology: "TwoLayerTopology",
        interval_seconds: float = 300.0,
    ) -> None:
        checks.positive("interval_seconds", interval_seconds)
        self.topology = topology
        self.interval_seconds = interval_seconds
        self._num_endpoints = topology.layout.num_endpoints
        # Reports not drained yet, one packed ``_ROW`` each.
        self._rows = bytearray()
        # Drained reports as (src, dst, bytes, qos, k) columns: one row
        # per distinct (src, dst), ordered (site pair k, src, dst), with
        # exact int64 byte sums.
        self._drained = _no_rows()
        self._unroutable_bytes = 0
        # Catalog pair index (int32, -1 if none) of every site pair, at
        # ``src_site * S + dst_site``, and the catalog pair count it was
        # built for (built at the first drain).
        self._pair_table = np.empty(0, dtype=np.int32)
        self._pair_table_pairs = -1

    def ingest(self, record: FlowRecord) -> None:
        """Add one agent report (same-pair reports accumulate).

        Raises:
            IndexError: for an endpoint id outside the layout.
            OverflowError: for a byte count beyond int64.
            TypeError: for a field that is not an integer.

        A report that raises leaves nothing behind.
        """
        src = record.src_endpoint
        dst = record.dst_endpoint
        n = self._num_endpoints
        if not 0 <= src < n:
            raise IndexError(f"endpoint {src} out of range")
        if not 0 <= dst < n:
            raise IndexError(f"endpoint {dst} out of range")
        try:
            self._rows += _pack(src, dst, record.bytes_sent, record.qos)
        except struct.error:
            # struct has one error for both ways a field can fail: a
            # non-integer raises TypeError here, so the rest is range.
            for field in (src, dst, record.bytes_sent, record.qos):
                operator.index(field)
            raise OverflowError("byte count does not fit int64") from None

    def ingest_host_report(
        self,
        volumes_by_instance: dict[int, int],
        destination_of: dict[int, int],
        qos_of: dict[int, QoSClass] | None = None,
    ) -> None:
        """Convenience: ingest a host's ``collect_flows()`` output.

        Args:
            volumes_by_instance: ``HostStack.collect_flows()`` result.
            destination_of: Instance id -> destination endpoint id (from
                the tenant's connection registry).
            qos_of: Optional instance id -> QoS class.

        Raises:
            ValueError: for a negative byte count or an unknown QoS
                class.
        """
        qos_of = qos_of or {}
        for instance, byte_count in volumes_by_instance.items():
            checks.nonnegative("bytes_sent", byte_count)
            if instance not in destination_of:
                self._unroutable_bytes += byte_count
                continue
            qos = qos_of.get(instance, QoSClass.CLASS2)
            self.ingest(
                FlowRecord(instance, destination_of[instance], byte_count, qos)
            )

    @property
    def num_flows(self) -> int:
        """Distinct routable ``(src, dst)`` pairs reported so far."""
        self._drain()
        return int(self._drained[0].size)

    @property
    def unroutable_bytes(self) -> int:
        """Bytes reported for pairs the catalog cannot route (cumulative)."""
        self._drain()
        return self._unroutable_bytes

    def _site_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Catalog pair index of each ``(src, dst)`` row, ``-1`` if none:
        three gathers (endpoint -> site twice, site pair -> catalog pair)."""
        catalog = self.topology.catalog
        layout = self.topology.layout
        num_sites = len(layout.sites)
        if self._pair_table_pairs != catalog.num_pairs:
            index = {site: i for i, site in enumerate(layout.sites)}
            cells = [
                (index[a] * num_sites + index[b], k)
                for k, (a, b) in enumerate(catalog.pairs)
                if a in index and b in index
            ]
            table = np.full(num_sites * num_sites, -1, dtype=np.int32)
            if cells:
                cell, pair = np.array(cells, dtype=np.int64).T
                # A repeated site pair keeps its first catalog index.
                cell, first = np.unique(cell, return_index=True)
                table[cell] = pair[first]
            self._pair_table = table
            self._pair_table_pairs = catalog.num_pairs
        cell = np.multiply(
            layout.site_indices(src),
            num_sites,
            dtype=np.min_scalar_type(-self._pair_table.size),
        )
        cell += layout.site_indices(dst)
        return np.take(self._pair_table, cell)

    def _drain(self) -> None:
        """Fold the buffered reports into the drained flow rows.

        A byte sum that does not fit int64 raises ``OverflowError`` and
        leaves both the buffers and the drained rows as they were.
        """
        if not self._rows:
            return
        # The endpoint columns are copied out of the packed rows once:
        # the site gathers, the sort key and the final gathers all read
        # them, several times faster from contiguous memory than from the
        # strided, unaligned fields.  Bytes and qos stay views until
        # their one copy, after the sort.
        buffered = np.frombuffer(self._rows, dtype=_ROW_DTYPE)
        src = np.ascontiguousarray(buffered["src"])
        dst = np.ascontiguousarray(buffered["dst"])
        sent, qos = buffered["bytes"], buffered["qos"]
        k = self._site_pairs(src, dst)
        rows = (src, dst, sent, qos, k)
        unroutable = 0
        routable = k >= 0
        if not routable.all():
            # Summed in 32-bit halves, which cannot wrap, into a Python
            # int, which cannot either.
            lost = sent[~routable]
            unroutable = (int((lost >> 32).sum()) << 32) + int(
                (lost & 0xFFFFFFFF).sum()
            )
            rows = tuple(column[routable] for column in rows)
        del routable
        if self._drained[0].size:
            # Earlier rows first: a row's index is its report order.
            rows = tuple(
                np.concatenate(both) for both in zip(self._drained, rows)
            )
        src, dst, sent, qos, k = rows
        # (k, src, dst) order, and whether each sorted row repeats the
        # (src, dst) before it.
        n = self._num_endpoints
        pairs = self.topology.catalog.num_pairs
        repeats = np.zeros(k.size, dtype=bool)
        if pairs.bit_length() + 2 * n.bit_length() <= 63:
            # One unstable sort of (k * n + src) * n + dst, which fits
            # int64, is several times faster than a stable one or three.
            key = np.multiply(k, n, dtype=np.int64)
            key += src
            key *= n
            key += dst
            order = np.argsort(key)
            key = np.take(key, order)
            np.equal(key[1:], key[:-1], out=repeats[1:])
        else:
            # lexsort's last key is primary.
            order = np.lexsort((dst, src, k))
            key = np.take(src, order)
            np.equal(key[1:], key[:-1], out=repeats[1:])
            key = np.take(dst, order)
            repeats[1:] &= key[1:] == key[:-1]
        del key
        sent = np.ascontiguousarray(sent)
        qos = np.ascontiguousarray(qos)
        # Each (src, dst) group's first sorted row leads it.  Only groups
        # of several reports are reduced: their bytes summed (in any
        # order, exactly), the latest report's qos (the latest
        # registration) taken — the highest row index in the group,
        # wherever the unstable sort put it.
        rows = (src, dst, sent, qos, k)
        if not repeats.any():
            drained = tuple(np.take(column, order) for column in rows)
        else:
            first = np.flatnonzero(~repeats)
            size = np.diff(first, append=k.size)
            multi = np.flatnonzero(size > 1)
            members = np.take(
                order, concat_ranges(first[multi], size[multi])
            )
            bounds = csr_offsets(size[multi])[:-1]
            sums = _group_sums(np.take(sent, members), bounds)
            latest = np.maximum.reduceat(members, bounds)
            del members, size
            leader = np.take(order, first)
            del order, first
            drained = tuple(np.take(column, leader) for column in rows)
            drained[2][multi] = sums
            drained[3][multi] = np.take(qos, latest)
        self._drained = drained
        self._unroutable_bytes += unroutable
        # A fresh buffer: the old one stays pinned by the views above.
        self._rows = bytearray()

    def build_matrix(self, clear: bool = True) -> DemandMatrix:
        """The interval's demand matrix, aligned with the catalog.

        Byte counts convert to Gbps:
        ``bytes * 8 / interval_seconds / 1e9``.

        The matrix is emitted columnar — the drained rows become one
        :class:`~repro.core.flowtable.FlowTable` directly, with no
        per-pair rebuild — and **deterministically ordered**: flows are
        sorted by ``(site pair, src endpoint, dst endpoint)``, so the
        same set of reports yields the same matrix regardless of ingest
        order.

        Args:
            clear: Reset the accumulator for the next interval.
        """
        with get_tracer().span("collector.build_matrix") as sp:
            self._drain()
            src, dst, sent, qos, k = self._drained
            sp.set_attribute("num_flows", int(k.size))
            # Rows are in pair order: one boundary search per pair.
            offsets = np.searchsorted(
                k, np.arange(self.topology.catalog.num_pairs + 1, dtype=k.dtype)
            )
            volumes = sent * 8.0
            volumes /= self.interval_seconds
            volumes /= 1e9
            table = FlowTable(
                offsets,
                volumes,
                qos,
                src,
                dst,
                has_endpoints=np.diff(offsets) > 0,
            )
            if clear:
                self._drained = _no_rows()
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "megate_collector_build_seconds",
                "Time to flatten accumulated flow reports into a "
                "demand matrix",
            ).observe(sp.duration_s)
            registry.counter(
                "megate_collector_flows_total",
                "Flow records flattened into demand matrices",
            ).inc(int(k.size))
        return DemandMatrix.from_table(table)
