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
from ..core.flowtable import FlowTable, csr_offsets
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
        np.empty(0, dtype=np.int64),
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
        # Sorted ``src_site * S + dst_site`` keys of the catalog's pairs
        # and the pair index of each (built at the first drain).
        self._pair_keys: np.ndarray | None = None
        self._pair_of_key: np.ndarray | None = None

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
        """Catalog pair index of each ``(src, dst)`` row, ``-1`` if none."""
        catalog = self.topology.catalog
        layout = self.topology.layout
        sites = layout.sites
        if self._pair_keys is None or (
            self._pair_keys.size != catalog.num_pairs + 1
        ):
            index = {site: i for i, site in enumerate(sites)}
            keys = np.array(
                [
                    index[a] * len(sites) + index[b]
                    if a in index and b in index
                    else -1
                    for a, b in catalog.pairs
                ],
                dtype=np.int64,
            )
            order = np.argsort(keys, kind="stable")
            # A sentinel past every real key keeps searchsorted's
            # insertion point a valid index.
            self._pair_keys = np.append(keys[order], _INT64_MAX)
            self._pair_of_key = np.append(order, -1)
        key = layout.site_indices(src)
        key *= len(sites)
        key += layout.site_indices(dst)
        at = np.searchsorted(self._pair_keys, key)
        return np.where(
            self._pair_keys[at] == key, self._pair_of_key[at], -1
        )

    def _drain(self) -> None:
        """Fold the buffered reports into the drained flow rows.

        A byte sum that does not fit int64 raises ``OverflowError`` and
        leaves both the buffers and the drained rows as they were.
        """
        if not self._rows:
            return
        # Views of the packed rows' fields, not copies: a copy of the
        # endpoint columns would raise the epoch's peak memory.  Gathers
        # from them use ``np.take``, several times faster than ``[]`` on
        # strided, unaligned fields.
        buffered = np.frombuffer(self._rows, dtype=_ROW_DTYPE)
        src, dst = buffered["src"], buffered["dst"]
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
        if self._drained[0].size:
            # Earlier rows first: a row's index is its report order.
            rows = tuple(
                np.concatenate(both) for both in zip(self._drained, rows)
            )
        src, dst, _, _, k = rows
        # (k, src, dst) order.  Indexing by it also copies the rows out
        # of the report buffers.
        n = self._num_endpoints
        pairs = self.topology.catalog.num_pairs
        if pairs.bit_length() + 2 * n.bit_length() <= 63:
            # One unstable sort of (k * n + src) * n + dst, which fits
            # int64, is several times faster than a stable one or three.
            key = k * n
            key += src
            key *= n
            key += dst
            order = np.argsort(key)
        else:
            # lexsort's last key is primary.
            order = np.lexsort((dst, src, k))
        src, dst, sent, qos, k = (np.take(column, order) for column in rows)
        new_group = np.ones(k.size, dtype=bool)
        np.not_equal(src[1:], src[:-1], out=new_group[1:])
        new_group[1:] |= dst[1:] != dst[:-1]
        if not new_group.all():
            # Several reports for one (src, dst): sum their bytes (in
            # any order, exactly); the latest report's qos (the latest
            # registration) wins — the highest row index in the group,
            # wherever the unstable sort put it.
            first = np.flatnonzero(new_group)
            sent = _group_sums(sent, first)
            qos = np.take(rows[3], np.maximum.reduceat(order, first))
            src, dst, k = src[first], dst[first], k[first]
        self._drained = (src, dst, sent, qos, k)
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
            counts = np.bincount(
                k, minlength=self.topology.catalog.num_pairs
            )
            table = FlowTable(
                csr_offsets(counts),
                sent * 8.0 / self.interval_seconds / 1e9,
                qos,
                src,
                dst,
                has_endpoints=counts > 0,
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
