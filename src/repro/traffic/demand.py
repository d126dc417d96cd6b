"""Endpoint-granular demand matrices.

The TE input of Table 1: for each site pair ``k`` a set of endpoint pairs
``i ∈ I_k``, each with a bandwidth demand ``d_k^i`` (Gbps over one TE
interval) and a QoS class.  Demands are stored columnar — one
:class:`~repro.core.flowtable.FlowTable` holding flat ``volumes`` /
``qos`` / endpoint-id arrays CSR-sliced by site pair — so a matrix with
hundreds of thousands of endpoint pairs is aggregated (``SiteMerge``),
class-sliced, and realized in bulk NumPy passes.  The per-pair
:class:`PairDemands` accessors are zero-copy views of the flat columns,
kept so pair-at-a-time call sites work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .. import checks
from ..core.flowtable import FlowTable, segment_sums
from ..core.qos import QoSClass

__all__ = ["PairDemands", "DemandMatrix"]


@dataclass
class PairDemands:
    """Demands of the endpoint pairs that connect one site pair ``k``.

    Attributes:
        volumes: ``d_k^i`` per endpoint pair, in Gbps (float array).
        qos: QoS class value per endpoint pair (int array, values 1-3).
        src_endpoints: Global id of each pair's source endpoint.
        dst_endpoints: Global id of each pair's destination endpoint.
    """

    volumes: np.ndarray
    qos: np.ndarray
    src_endpoints: np.ndarray | None = None
    dst_endpoints: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.volumes = np.asarray(self.volumes, dtype=np.float64)
        self.qos = np.asarray(self.qos, dtype=np.int8)
        if self.volumes.ndim != 1:
            raise ValueError("volumes must be one-dimensional")
        if self.qos.shape != self.volumes.shape:
            raise ValueError("qos and volumes must align")
        checks.nonnegative_array("volumes", self.volumes)
        valid = np.isin(self.qos, [q.value for q in QoSClass])
        if not bool(np.all(valid)):
            raise ValueError("qos values must be 1, 2 or 3")
        for name in ("src_endpoints", "dst_endpoints"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64)
                if arr.shape != self.volumes.shape:
                    raise ValueError(f"{name} must align with volumes")
                setattr(self, name, arr)

    @property
    def num_pairs(self) -> int:
        """``|I_k|`` — endpoint pairs on this site pair."""
        return int(self.volumes.size)

    @property
    def total(self) -> float:
        """``D_k = Σ_i d_k^i`` — the SiteMerge aggregate."""
        return float(self.volumes.sum())

    def select(self, mask: np.ndarray) -> "PairDemands":
        """The sub-demands where ``mask`` is true (indices not preserved)."""
        return PairDemands(
            volumes=self.volumes[mask],
            qos=self.qos[mask],
            src_endpoints=(
                None
                if self.src_endpoints is None
                else self.src_endpoints[mask]
            ),
            dst_endpoints=(
                None
                if self.dst_endpoints is None
                else self.dst_endpoints[mask]
            ),
        )

    def for_qos(self, qos: QoSClass) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, volumes)`` of the pairs in one QoS class.

        Indices refer to positions within this :class:`PairDemands`, so a
        per-class sub-solution can be scattered back into full-size arrays.
        """
        idx = np.flatnonzero(self.qos == qos.value)
        return idx, self.volumes[idx]

    @classmethod
    def empty(cls) -> "PairDemands":
        return cls(
            volumes=np.empty(0, dtype=np.float64),
            qos=np.empty(0, dtype=np.int8),
        )

    @classmethod
    def _view(
        cls,
        volumes: np.ndarray,
        qos: np.ndarray,
        src_endpoints: np.ndarray | None,
        dst_endpoints: np.ndarray | None,
    ) -> "PairDemands":
        """Trusted zero-copy view constructor (skips re-validation)."""
        self = object.__new__(cls)
        self.volumes = volumes
        self.qos = qos
        self.src_endpoints = src_endpoints
        self.dst_endpoints = dst_endpoints
        return self


class DemandMatrix:
    """All endpoint-pair demands for one TE interval.

    Indexed by site-pair index ``k``, aligned with a
    :class:`~repro.topology.tunnels.TunnelCatalog`'s pair ordering.
    Canonically backed by one columnar
    :class:`~repro.core.flowtable.FlowTable` (see :attr:`table`); the
    per-pair accessors return zero-copy views of its flat columns.
    """

    def __init__(
        self,
        per_pair: Sequence[PairDemands] | None = None,
        *,
        table: FlowTable | None = None,
    ) -> None:
        if table is None:
            if per_pair is None:
                raise TypeError("DemandMatrix needs per_pair or table")
            pairs = list(per_pair)
            table = FlowTable.from_columns(
                [p.volumes for p in pairs],
                [p.qos for p in pairs],
                [p.src_endpoints for p in pairs],
                [p.dst_endpoints for p in pairs],
            )
        self._table = table
        self._views: list[PairDemands] | None = None

    @classmethod
    def from_table(cls, table: FlowTable) -> "DemandMatrix":
        """Wrap an existing columnar table without copying."""
        return cls(table=table)

    def with_volumes(self, volumes: np.ndarray) -> "DemandMatrix":
        """The same flows carrying ``volumes`` (other columns shared)."""
        t = self._table
        return DemandMatrix.from_table(
            FlowTable(
                offsets=t.offsets,
                volumes=volumes,
                qos=t.qos,
                src_endpoints=t.src_endpoints,
                dst_endpoints=t.dst_endpoints,
                has_endpoints=t.has_endpoints,
            )
        )

    @property
    def table(self) -> FlowTable:
        """The canonical columnar store."""
        return self._table

    @property
    def _per_pair(self) -> list[PairDemands]:
        """Per-pair zero-copy views of the flat columns (built lazily)."""
        if self._views is None:
            t = self._table
            offsets = t.offsets
            views = []
            for k in range(t.num_pairs):
                s = slice(offsets[k], offsets[k + 1])
                if t.has_endpoints[k]:
                    src, dst = t.src_endpoints[s], t.dst_endpoints[s]
                else:
                    src = dst = None
                views.append(
                    PairDemands._view(t.volumes[s], t.qos[s], src, dst)
                )
            self._views = views
        return self._views

    @property
    def num_site_pairs(self) -> int:
        return self._table.num_pairs

    def pair(self, k: int) -> PairDemands:
        """Demands of site pair ``k`` (zero-copy view)."""
        return self._per_pair[k]

    def __iter__(self) -> Iterator[PairDemands]:
        return iter(self._per_pair)

    @property
    def num_endpoint_pairs(self) -> int:
        """Total endpoint pairs across all site pairs."""
        return self._table.num_flows

    @property
    def total_demand(self) -> float:
        """Total demand volume across the matrix (Gbps).

        Summed per pair then across pairs (not one flat ``sum``), to stay
        bit-identical with the legacy per-pair representation — load
        calibration divides by this, so its last ulp matters to replay
        digests.
        """
        t = self._table
        return sum(segment_sums(t.volumes, t.offsets).tolist())

    def site_demands(self, qos: QoSClass | None = None) -> np.ndarray:
        """``SiteMerge``: aggregated demand ``D_k`` per site pair.

        Each ``D_k`` is bit-identical to its pair's ``volumes.sum()``.

        Args:
            qos: Restrict to one QoS class; ``None`` aggregates all classes.
        """
        t = self._table
        if qos is None:
            return segment_sums(t.volumes, t.offsets)
        idx = np.flatnonzero(t.qos == qos.value)
        return segment_sums(t.volumes[idx], np.searchsorted(idx, t.offsets))

    def for_qos(self, qos: QoSClass) -> "DemandMatrix":
        """The sub-matrix containing only one QoS class's pairs.

        One columnar mask over the flat table — no per-pair loop.
        """
        return DemandMatrix(
            table=self._table.select(self._table.qos == qos.value)
        )

    def qos_share(self) -> dict[QoSClass, float]:
        """Fraction of total volume per QoS class."""
        total = self.total_demand
        shares: dict[QoSClass, float] = {}
        for qos in QoSClass:
            vol = sum(self.site_demands(qos).tolist())
            shares[qos] = vol / total if total > 0 else 0.0
        return shares

    def subsample(self, fraction: float, seed: int = 0) -> "DemandMatrix":
        """Randomly keep a fraction of endpoint pairs on every site pair.

        This implements §6.1's scale sweep: "for different topology scales
        ... we randomly select the traffic demands from endpoint pairs
        connecting to the same site pair."
        """
        checks.in_range("fraction", fraction, 0, 1, "(]")
        rng = np.random.default_rng(seed)
        out = []
        for pair in self._per_pair:
            keep = max(1, round(pair.num_pairs * fraction))
            if pair.num_pairs == 0:
                out.append(pair)
                continue
            idx = rng.choice(pair.num_pairs, size=keep, replace=False)
            mask = np.zeros(pair.num_pairs, dtype=bool)
            mask[np.sort(idx)] = True
            out.append(pair.select(mask))
        return DemandMatrix(out)
