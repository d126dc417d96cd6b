"""CSR-style columnar flow tables — the repo's canonical data layout.

MegaTE's defining constraint is endpoint granularity at millions of flows,
so per-flow state must be processable in bulk.  This module provides the
compressed-sparse-row layout every layer shares: one flat array per column
(``volumes``, ``qos``, ``src_endpoints``, ``dst_endpoints``,
``assigned_tunnel``) plus an ``offsets`` array such that site pair ``k``'s
flows occupy ``offsets[k]:offsets[k + 1]`` of every column.

Invariants:

* ``offsets`` is int64, non-decreasing, ``offsets[0] == 0`` and
  ``offsets[-1] == num_flows``; there is one segment per site pair, in
  catalog order.
* Column dtypes are fixed: ``volumes`` float64, ``qos`` int8,
  ``src_endpoints``/``dst_endpoints`` int64, ``assigned_tunnel`` int32.
* Per-pair access is *zero-copy*: a pair's view is a NumPy slice of the
  flat column, so in-place writes through a view mutate the canonical
  store (this is what keeps the legacy per-pair call sites working).
* Endpoint ids are optional per pair (a trace may omit them); pairs
  without them carry ``-1`` fill in the flat columns and are flagged off
  in the per-pair ``has_endpoints`` mask, so views faithfully round-trip
  the legacy ``None``.

:class:`DemandMatrix <repro.traffic.demand.DemandMatrix>`,
:class:`FlowAssignment <repro.core.types.FlowAssignment>` and
:class:`SiteAllocation <repro.core.types.SiteAllocation>` are all backed
by this layout; the solver triage, the flow simulator, the latency and
metric passes, and the measurement collector consume the flat columns
directly (``np.bincount`` / ``np.add.reduceat`` over segments) instead of
looping pair by pair in Python.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

from .. import checks

__all__ = [
    "csr_offsets", "concat_ranges", "segment_sums", "PairViews", "FlowTable",
]  # fmt: skip


def csr_offsets(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """The int64 offsets array of a CSR layout with the given row sizes."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + counts[i] - 1`` for every ``i``, one run
    after another, as one int64 array (every count at least 1).

    A single cumulative sum of unit steps, each run's first step jumping
    from the previous run's end to its start; no ``repeat`` or ``arange``
    temporaries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if not counts.size:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    step = np.ones(int(counts.sum()), dtype=np.int64)
    step[0] = starts[0]
    step[np.cumsum(counts[:-1])] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(step, out=step)


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[offsets[k]:offsets[k + 1]].sum()`` for every ``k``, bit
    for bit, in a few array passes instead of one call per segment.

    NumPy sums a float64 run of ``n`` elements into an identity ``0.0``
    in a fixed order: ``n < 8`` adds sequentially; ``8 ≤ n ≤ 128`` (its
    pairwise block size) keeps eight strided lanes, adds them as the tree
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then adds the ``n mod 8``
    tail sequentially.  Those runs replay that order here across all
    segments at once; longer runs (which NumPy splits recursively) call
    ``.sum()`` themselves.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    starts = offsets[:-1]
    counts = np.diff(offsets)
    out = np.zeros(counts.size, dtype=np.float64)

    short = np.flatnonzero(counts < 8)
    for i in range(7):
        short = short[counts[short] > i]
        if not short.size:
            break
        out[short] += values[starts[short] + i]

    block = np.flatnonzero((counts >= 8) & (counts <= 128))
    if block.size:
        # Longest first, so the rows still adding lane block b are a
        # prefix: rows[b - 1] of them.
        block = block[np.argsort(-counts[block], kind="stable")]
        n = counts[block]
        blocks = n // 8
        rows = np.searchsorted(-blocks, -np.arange(1, 17))
        lane = starts[block][:, None] + np.arange(8)
        lanes = values[lane]
        for b in range(1, int(blocks[0])):
            lanes[: rows[b - 1]] += values[lane[: rows[b - 1]] + 8 * b]
        pairs = lanes[:, 0::2] + lanes[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        res = quads[:, 0] + quads[:, 1]
        # The tail, zero-padded to seven terms: adding +0.0 is exact but
        # for a zero's sign, which the final ``0.0 +`` erases.
        tail = starts[block][:, None] + 8 * blocks[:, None] + np.arange(7)
        pad = np.arange(7) >= (n % 8)[:, None]
        tail[pad] = 0
        terms = values[tail]
        terms[pad] = 0.0
        for i in range(7):
            res += terms[:, i]
        out[block] += res

    for k in np.flatnonzero(counts > 128).tolist():
        out[k] = values[offsets[k] : offsets[k + 1]].sum()
    return out


class PairViews:
    """List-like zero-copy per-pair views over one flat CSR column.

    ``views[k]`` is a NumPy slice of the flat array, so in-place writes
    (``views[k][idx] = t``, ``views[k] += delta``) mutate the canonical
    columnar store.  Whole-element assignment (``views[k] = arr``) copies
    the values *into* the slice instead of rebinding, so legacy call sites
    that replace a pair's array wholesale keep writing the flat column
    rather than silently detaching from it.  Each view is built on first
    access and kept, so construction costs O(1) and a pair's view is the
    same object every time.
    """

    __slots__ = ("flat", "offsets", "_views")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        self.flat = flat
        self.offsets = offsets
        self._views: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.offsets.size - 1

    def _view(self, k: int) -> np.ndarray:
        view = self._views.get(k)
        if view is None:
            view = self._views[k] = self.flat[
                self.offsets[k] : self.offsets[k + 1]
            ]
        return view

    def __getitem__(self, k):
        if type(k) is int and k in self._views:
            return self._views[k]
        if isinstance(k, slice):
            return [self._view(i) for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"pair index {k} out of range for {n} pairs")
        return self._view(k % n)

    def __setitem__(self, k: int, value) -> None:
        view = self[k]
        arr = np.asarray(value, dtype=view.dtype)
        if arr.shape != view.shape:
            raise ValueError(
                f"pair {k}: cannot assign shape {arr.shape} into CSR "
                f"segment of shape {view.shape}"
            )
        view[...] = arr

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self._view(k) for k in range(len(self)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PairViews(num_pairs={len(self)}, flat={self.flat!r})"


class FlowTable:
    """Columnar (CSR) store of per-flow demand state for one TE interval.

    Attributes:
        offsets: int64, shape ``(num_pairs + 1,)`` — pair ``k``'s flows
            occupy ``offsets[k]:offsets[k + 1]`` of every column.
        volumes: float64 demand ``d_k^i`` per flow (Gbps).
        qos: int8 QoS class value per flow.
        src_endpoints: int64 source endpoint id per flow (``-1`` fill for
            pairs without endpoint ids).
        dst_endpoints: int64 destination endpoint id per flow.
        has_endpoints: bool per *pair* — whether the pair's endpoint
            columns carry real ids (legacy ``None`` round-trips as False).
        assigned_tunnel: optional int32 per flow — assigned tunnel index
            within the pair's tunnel set, ``-1`` = unassigned.
    """

    __slots__ = (
        "offsets",
        "volumes",
        "qos",
        "src_endpoints",
        "dst_endpoints",
        "has_endpoints",
        "assigned_tunnel",
        "_pair_ids",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        volumes: np.ndarray,
        qos: np.ndarray,
        src_endpoints: np.ndarray | None = None,
        dst_endpoints: np.ndarray | None = None,
        has_endpoints: np.ndarray | None = None,
        assigned_tunnel: np.ndarray | None = None,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.volumes = np.asarray(volumes, dtype=np.float64)
        self.qos = np.asarray(qos, dtype=np.int8)
        n = self.volumes.size
        num_pairs = self.offsets.size - 1
        if src_endpoints is None:
            src_endpoints = np.full(n, -1, dtype=np.int64)
            dst_endpoints = np.full(n, -1, dtype=np.int64)
            if has_endpoints is None:
                has_endpoints = np.zeros(num_pairs, dtype=bool)
        elif has_endpoints is None:
            has_endpoints = np.ones(num_pairs, dtype=bool)
        self.src_endpoints = np.asarray(src_endpoints, dtype=np.int64)
        self.dst_endpoints = np.asarray(dst_endpoints, dtype=np.int64)
        self.has_endpoints = np.asarray(has_endpoints, dtype=bool)
        self.assigned_tunnel = (
            None
            if assigned_tunnel is None
            else np.asarray(assigned_tunnel, dtype=np.int32)
        )
        self._pair_ids: np.ndarray | None = None

    # -- shape ----------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        return self.offsets.size - 1

    @property
    def num_flows(self) -> int:
        return int(self.volumes.size)

    @property
    def counts(self) -> np.ndarray:
        """Flows per site pair (``|I_k|`` as an int64 vector)."""
        return np.diff(self.offsets)

    def pair_slice(self, k: int) -> slice:
        """The flat-index slice of pair ``k``'s flows."""
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    def pair_ids(self) -> np.ndarray:
        """Site-pair index of every flow (cached ``np.repeat``)."""
        if self._pair_ids is None:
            self._pair_ids = np.repeat(
                np.arange(self.num_pairs, dtype=np.int64), self.counts
            )
        return self._pair_ids

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        volumes_per_pair: Sequence[np.ndarray],
        qos_per_pair: Sequence[np.ndarray],
        src_per_pair: Sequence[np.ndarray | None] | None = None,
        dst_per_pair: Sequence[np.ndarray | None] | None = None,
    ) -> "FlowTable":
        """Flatten legacy per-pair column lists into one table.

        ``src_per_pair``/``dst_per_pair`` entries may be ``None`` per pair
        (the legacy "no endpoint ids" case); those pairs get ``-1`` fill
        and ``has_endpoints[k] = False``.
        """
        num_pairs = len(volumes_per_pair)
        counts = [np.asarray(v).size for v in volumes_per_pair]
        offsets = csr_offsets(counts)
        n = int(offsets[-1])
        if num_pairs == 0:
            return cls(
                offsets,
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int8),
            )
        volumes = np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in volumes_per_pair]
        )
        qos = np.concatenate(
            [np.asarray(q, dtype=np.int8) for q in qos_per_pair]
        )
        has_endpoints = np.zeros(num_pairs, dtype=bool)
        src = np.full(n, -1, dtype=np.int64)
        dst = np.full(n, -1, dtype=np.int64)
        if src_per_pair is not None:
            for k in range(num_pairs):
                s = src_per_pair[k]
                d = None if dst_per_pair is None else dst_per_pair[k]
                if s is None or d is None:
                    continue
                has_endpoints[k] = True
                src[offsets[k] : offsets[k + 1]] = np.asarray(
                    s, dtype=np.int64
                )
                dst[offsets[k] : offsets[k + 1]] = np.asarray(
                    d, dtype=np.int64
                )
        return cls(offsets, volumes, qos, src, dst, has_endpoints)

    def select(self, mask: np.ndarray) -> "FlowTable":
        """The sub-table of flows where ``mask`` is true (order kept).

        Segment boundaries are recomputed columnar (``np.bincount`` over
        the masked pair ids); per-pair ``has_endpoints`` flags carry over
        (a pair that loses all flows keeps its flag, matching the legacy
        per-pair ``select``).
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_flows,):
            raise ValueError("mask must align with the flow count")
        counts = np.bincount(
            self.pair_ids()[mask], minlength=self.num_pairs
        )
        return FlowTable(
            csr_offsets(counts),
            self.volumes[mask],
            self.qos[mask],
            self.src_endpoints[mask],
            self.dst_endpoints[mask],
            self.has_endpoints.copy(),
            None
            if self.assigned_tunnel is None
            else self.assigned_tunnel[mask],
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the CSR invariants; raises ``ValueError`` on violation."""
        offsets = self.offsets
        if offsets.size < 1 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        n = int(offsets[-1])
        for name in ("volumes", "qos", "src_endpoints", "dst_endpoints"):
            col = getattr(self, name)
            if col.size != n:
                raise ValueError(f"{name} must have {n} entries")
        if self.has_endpoints.size != self.num_pairs:
            raise ValueError("has_endpoints must have one flag per pair")
        if self.assigned_tunnel is not None:
            if self.assigned_tunnel.size != n:
                raise ValueError(f"assigned_tunnel must have {n} entries")
        checks.nonnegative_array("volumes", self.volumes)
