"""Array-batched FastSSP: one padded array program for all site pairs.

At million-endpoint scale the per-pair scalar :func:`repro.core.fastssp.
fast_ssp` loop becomes the wall: stage 2 calls it once per (pair, tunnel)
with Python-level clustering and greedy per call — exactly the
batchable-kernel shape GATE and Teal exploit.  This module restructures
one *fill-order step* across all contended site pairs into a single
padded array program over the CSR columns of
:mod:`repro.core.flowtable`:

* **Sort** — one stable ``np.argsort`` over the padded ``(P, L)`` value
  matrix on a composite key (``-value`` for eligible demands, ``+inf``
  for oversized demands and padding) orders every pair's segment
  descending at once.
* **Cluster** — an adaptive-window sliced ``cumsum`` per cluster over
  each row's sorted values finds the position where the running total
  crosses the threshold ``M = ε·F/3`` by bisection (trailing
  under-threshold clusters kept, as in the scalar path).
* **DP** — quantized subset-sum with first-reacher choice tracking, the
  scalar reference sweep (:func:`repro.core.ssp.dp_ssp`) row by row.
* **Greedy** — first-fit-decreasing over each pair's residual demands.

Bit-identity contract
---------------------
The scalar path stays the digest-pinned reference; the batched kernel
reproduces it **bit for bit** (property-tested in
``tests/test_fastssp_batch_property.py``).  That drives three design
rules the naive vectorization would break:

1. NumPy's ``ndarray.sum()`` uses *pairwise* summation while ``cumsum``
   and ``reduceat`` accumulate *sequentially* — so every quantity the
   scalar path computes with ``.sum()`` (grand totals, cluster sums,
   DP volumes) is computed here with ``.sum()`` on the same value
   sequence, and every quantity it accumulates sequentially (the
   clustering running total, the greedy remaining/total) is computed
   with row-wise ``cumsum`` or an explicitly sequential scan.
2. ``(cap - a) - b != cap - (a + b)`` in floating point, so the greedy
   phase replays the exact scalar op order (skip / subtract / add per
   item) instead of a prefix-sum sweep; oversized residual demands can
   be skipped *exactly* because they are strictly larger than the
   remaining capacity and sort ahead of every eligible demand.
3. Ties sort identically: the composite-key argsort is stable over the
   original column order, matching the scalar ``argsort(-vals[eligible],
   kind="stable")`` per pair.

Backends
--------
Selection follows :mod:`repro.core.lp_backend`'s pattern — explicit
argument > ``REPRO_SSP_BACKEND`` env var > ``numpy`` — via
:func:`resolve_ssp_backend_name`.  ``"numpy"`` is this kernel;
``"scalar"`` routes dispatch layers back to the per-pair reference path
the property tests compare it against.
"""

from __future__ import annotations

import os
from bisect import bisect_left

import numpy as np

from ..obs import get_registry, get_tracer, monotonic
from .fastssp import FastSSPResult
from .incremental import reconcile_leftovers
from .ssp import dp_ssp
from .types import UNASSIGNED

__all__ = [
    "SSP_BACKEND_ENV",
    "SSP_BACKEND_NAMES",
    "SSP_PHASE_KEYS",
    "BatchedSSPResult",
    "fast_ssp_batch",
    "fill_pairs_batch",
    "resolve_ssp_backend_name",
]

#: Environment variable consulted when no backend is passed explicitly
#: (same precedence pattern as ``REPRO_LP_BACKEND``).
SSP_BACKEND_ENV = "REPRO_SSP_BACKEND"

#: Valid backend spellings.  ``"scalar"`` means "do not batch at all" —
#: dispatch layers route it to the per-pair reference path.
SSP_BACKEND_NAMES = ("scalar", "numpy")

#: Keys of the batched kernel's phase-timing breakdown.
SSP_PHASE_KEYS = (
    "pad",
    "sort",
    "cluster",
    "dp",
    "mask",
    "greedy",
    "extract",
)


def resolve_ssp_backend_name(requested: str | None = None) -> str:
    """Resolve the effective SSP backend name.

    Precedence: explicit argument > ``REPRO_SSP_BACKEND`` env var >
    ``"numpy"``.  Unknown names raise ``ValueError``.
    """
    name = requested if requested is not None else (
        os.environ.get(SSP_BACKEND_ENV) or None
    )
    name = (name or "numpy").strip().lower()
    if name not in SSP_BACKEND_NAMES:
        raise ValueError(
            f"unknown SSP backend {name!r}; "
            f"expected one of {SSP_BACKEND_NAMES}"
        )
    return name


def _greedy_row(row: np.ndarray, remaining: float) -> tuple[list, float]:
    """Exact first-fit-decreasing scan of one descending row.

    Replays :func:`repro.core.ssp.greedy_ssp`'s op order — take each
    value that fits, in descending order — but jumps over runs of
    too-large values with a binary search (skipped items change no
    state, so the jump is exact).  Returns (chosen positions, total).
    """
    vals = row.tolist()
    neg = (-row).tolist()  # ascending, for bisect (float64 negation is exact)
    n = len(vals)
    total = 0.0
    chosen: list[int] = []
    j = 0
    while j < n:
        v = vals[j]
        if v <= remaining:
            chosen.append(j)
            total += v
            remaining -= v
            j += 1
        else:
            # Descending row: the next value that can fit is the first
            # one <= remaining; everything before it is skipped exactly
            # as the scalar scan would.
            j = bisect_left(neg, -remaining, lo=j + 1)
    return chosen, total


def _dp_select(normalized, qcap):
    """Per-row first-reacher DP via the scalar reference sweep.

    Contended batches are small while cluster counts can reach
    thousands, so the row-by-row :func:`repro.core.ssp.dp_ssp`
    (integer, bit-identical by construction — it *is* the scalar DP)
    beats a padded array sweep, which pays a ``(P, C)`` gather per
    cluster.  Padding clusters are 0 and skipped by the sweep's own
    ``v == 0`` rule.
    """
    P, m = normalized.shape
    sel = np.zeros((P, m), dtype=bool)
    if m == 0:
        return sel
    for p in range(P):
        cap = int(qcap[p])
        if cap <= 0:
            continue
        dp = dp_ssp(normalized[p], cap)
        if dp.selected:
            sel[p, np.asarray(dp.selected, dtype=np.int64)] = True
    return sel


def _greedy_scan(svals, resid_mask, remaining0, gate):
    """Per-row exact FFD over residual positions of the sorted rows.

    Returns ``(fits, totals)``: a boolean mask over *sorted*
    positions and the per-pair greedy volume.
    """
    P, L = svals.shape
    fits = np.zeros((P, L), dtype=bool)
    totals = np.zeros(P, dtype=np.float64)
    for p in np.flatnonzero(gate):
        pos = np.flatnonzero(resid_mask[p])
        if pos.size == 0:
            continue
        chosen, total = _greedy_row(svals[p, pos], float(remaining0[p]))
        if chosen:
            fits[p, pos[np.asarray(chosen, dtype=np.int64)]] = True
        totals[p] = total
    return fits, totals


# ---------------------------------------------------------------------------
# The padded array program.


class BatchedSSPResult:
    """Columnar outcome of :func:`fast_ssp_batch` — one row per instance.

    Selections are stored as one CSR pair (``selected_flat`` indexed by
    ``selected_offsets``); every per-instance scalar matches the
    corresponding :class:`~repro.core.fastssp.FastSSPResult` field bit
    for bit.
    """

    __slots__ = (
        "selected_flat",
        "selected_offsets",
        "totals",
        "capacities",
        "num_clusters",
        "dp_volumes",
        "greedy_volumes",
        "error_bounds",
        "backend",
        "phase_s",
        "contended",
    )

    def __init__(
        self,
        selected_flat: np.ndarray,
        selected_offsets: np.ndarray,
        totals: np.ndarray,
        capacities: np.ndarray,
        num_clusters: np.ndarray,
        dp_volumes: np.ndarray,
        greedy_volumes: np.ndarray,
        error_bounds: np.ndarray,
        backend: str,
        phase_s: dict[str, float],
        contended: np.ndarray | None = None,
    ) -> None:
        self.selected_flat = selected_flat
        self.selected_offsets = selected_offsets
        self.totals = totals
        self.capacities = capacities
        self.num_clusters = num_clusters
        self.dp_volumes = dp_volumes
        self.greedy_volumes = greedy_volumes
        self.error_bounds = error_bounds
        self.backend = backend
        self.phase_s = phase_s
        # Which instances went through the contended solve (vs the
        # fits-entirely / trivial fast paths) — callers batching across
        # fill steps use it to decide which pairs are worth pre-sorting.
        self.contended = (
            contended
            if contended is not None
            else np.zeros(int(totals.size), dtype=bool)
        )

    def __len__(self) -> int:
        return int(self.totals.size)

    def selected(self, i: int) -> np.ndarray:
        """Instance ``i``'s selected indices (ascending, int64)."""
        lo = self.selected_offsets[i]
        hi = self.selected_offsets[i + 1]
        return self.selected_flat[lo:hi]

    def result(self, i: int) -> FastSSPResult:
        """Materialize instance ``i`` as a scalar-shaped result."""
        return FastSSPResult(
            selected_array=self.selected(i),
            total=float(self.totals[i]),
            capacity=float(self.capacities[i]),
            num_clusters=int(self.num_clusters[i]),
            dp_selected_volume=float(self.dp_volumes[i]),
            greedy_selected_volume=float(self.greedy_volumes[i]),
            error_bound=float(self.error_bounds[i]),
        )


def _pad_segments(flat, starts, lens):
    """Zero-padded ``(P, L)`` matrix from CSR segments."""
    P = int(lens.size)
    L = int(lens.max()) if P else 0
    padded = np.zeros((P, L), dtype=np.float64)
    total = int(lens.sum())
    if total:
        rows = np.repeat(np.arange(P), lens)
        ends = np.cumsum(lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            ends - lens, lens
        )
        padded[rows, within] = flat[np.repeat(starts, lens) + within]
    return padded


def _cluster_rounds(svals, elig_len, threshold):
    """Cluster boundaries and sums per pair, row by row.

    Each row's sorted eligible values are left-scanned with a sequential
    running total — a short plain-Python accumulation for small clusters,
    a sliced ``cumsum`` (the same IEEE add sequence) over an adaptive
    lookahead window for large ones; the cluster ends at the first
    position whose running total crosses the pair's threshold.  Non-negative demands make the running total monotone,
    so the first crossing is a ``searchsorted`` bisection, and the
    window never crossing is detected from its last element alone.
    When a window ends short of the threshold the scan *restarts* from
    the cluster start with a wider window, so the running total stays
    the exact sequential accumulation; a tail that never crosses
    becomes the final, under-threshold cluster (kept, as in the scalar
    path).  Descending values mean cluster item counts only grow along
    a row, so each cluster's size seeds the next window — contended
    rows at million-endpoint scale reach thousands of clusters, and
    this keeps the per-cluster cost at one short cumsum over a
    contiguous view instead of a padded all-rows gather.

    Returns ``(bounds, counts, csums)``: bounds[p, r] .. bounds[p, r+1]
    is cluster ``r`` of pair ``p`` (positions into the sorted row),
    ``counts[p]`` its cluster count, and ``csums[p, r]`` its pairwise
    ``.sum()`` over the contiguous sorted slice — the same value
    sequence as the scalar ``vals[cluster].sum()``.
    """
    P = int(elig_len.size)
    counts = np.zeros(P, dtype=np.int64)
    row_bounds: list[list[int]] = []
    row_sums: list[list[float]] = []
    small = 48
    for p in range(P):
        row = svals[p]
        n = int(elig_len[p])
        t = threshold[p]
        vals = row[:n].tolist()
        b = [0]
        sums: list[float] = []
        pos = 0
        lookahead = 128
        while pos < n:
            # Small-cluster fast path: a plain Python running total over
            # the next few items.  ``running += v`` is the same IEEE add
            # sequence as the sliced cumsum (and as the scalar scan), so
            # the crossing decision is bit-identical; a NaN total never
            # compares >= t and falls through to the windowed scan.
            boundary = -1
            running = 0.0
            stop = min(pos + small, n)
            for k in range(pos, stop):
                running += vals[k]
                if running >= t:
                    boundary = k + 1
                    break
            if boundary > 0 and boundary - pos < 8:
                # numpy's pairwise ``.sum()`` reduces sequentially
                # below its 8-element block size, so the running total
                # at the crossing IS the cluster's ``.sum()`` value.
                sums.append(running)
                lookahead = max(2 * (boundary - pos), 64)
                b.append(boundary)
                pos = boundary
                continue
            if boundary < 0:
                if stop == n:
                    boundary = n
                else:
                    # Restart from the cluster start with a widening
                    # cumsum window: the running total stays the exact
                    # sequential accumulation from the cluster start.
                    w = max(lookahead, 2 * small)
                    while True:
                        end = min(pos + w, n)
                        cum = np.cumsum(row[pos:end])
                        if cum[-1] >= t:
                            boundary = pos + int(np.searchsorted(cum, t)) + 1
                            break
                        if end == n:
                            boundary = n
                            break
                        w *= 4
            sums.append(float(row[pos:boundary].sum()))
            lookahead = max(2 * (boundary - pos), 64)
            b.append(boundary)
            pos = boundary
        counts[p] = len(b) - 1
        row_bounds.append(b)
        row_sums.append(sums)
    m_max = int(counts.max()) if P else 0
    bounds = np.zeros((P, m_max + 1), dtype=np.int64)
    csums = np.zeros((P, m_max), dtype=np.float64)
    for p in range(P):
        b = row_bounds[p]
        bounds[p, : len(b)] = b
        bounds[p, len(b):] = b[-1]
        if row_sums[p]:
            csums[p, : counts[p]] = row_sums[p]
    return bounds, counts, csums


def _solve_contended(
    flat, starts, lens, caps, epsilon, phase_s, pre_orders=None
):
    """The padded four-step program over the contended instances.

    Returns ``(selected_rows, num_clusters, dp_vol, greedy_vol, totals,
    err)`` where ``selected_rows[p]`` is pair ``p``'s ascending selected
    index array.  ``pre_orders[p]``, when given, is a full descending
    stable order of instance ``p``'s segment (see
    :func:`fast_ssp_batch`) that replaces its argsort.
    """
    P = int(caps.size)
    t0 = monotonic()
    padded = _pad_segments(flat, starts, lens)
    phase_s["pad"] += monotonic() - t0
    L = padded.shape[1]

    # Step 1a: stable sort orders every pair's eligible demands
    # descending, with oversized demands (> capacity) after them —
    # preserving original column order among ties exactly like the
    # scalar per-pair argsort.
    t0 = monotonic()
    cols = np.arange(L)[None, :]
    valid = cols < lens[:, None]
    # Row lengths differ, so each row sorts only its valid prefix (the
    # padding would all key to +inf and land at the tail anyway — and
    # the tail past ``lens[p]`` is never read).  Where the caller
    # supplied the row's full descending order, the capacity split is a
    # bisection: values are descending, so the eligible ones (<= cap)
    # are exactly the positions from the first crossing on, in the same
    # stable descending order the composite-key argsort would produce.
    # The oversized values rotate to the tail — their order differs
    # from the argsort's (by value, not original column), but the tail
    # beyond ``elig_len`` is only ever read by order-free reductions
    # (min / count), never selected or extracted.
    order = np.broadcast_to(cols, (P, L)).copy()
    svals = np.zeros_like(padded)
    elig_len = np.zeros(P, dtype=np.int64)
    for p in range(P):
        n = int(lens[p])
        seg = padded[p, :n]
        po = None if pre_orders is None else pre_orders[p]
        if po is not None:
            vs = seg[po]
            k = int(np.searchsorted(-vs, -float(caps[p]), side="left"))
            o = np.concatenate((po[k:], po[:k]))
            elig_len[p] = n - k
        else:
            ok = seg <= caps[p]
            key = np.where(ok, -seg, np.inf)
            o = np.argsort(key, kind="stable")
            elig_len[p] = int(np.count_nonzero(ok))
        order[p, :n] = o
        svals[p, :n] = seg[o]
    phase_s["sort"] += monotonic() - t0

    # Step 1b: clustering (boundaries and per-cluster sums in one pass).
    t0 = monotonic()
    threshold = epsilon * caps / 3.0
    bounds, counts, csums = _cluster_rounds(svals, elig_len, threshold)
    m_max = int(counts.max()) if P else 0
    phase_s["cluster"] += monotonic() - t0

    # Step 2: normalization (guarding the subnormal-capacity underflow
    # exactly like the scalar path: delta == 0 or a non-finite cap/delta
    # means an empty DP and greedy-only packing).
    delta = epsilon * threshold / 3.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(delta > 0, caps / np.where(delta > 0, delta, 1.0),
                         np.inf)
    dp_on = (delta > 0) & np.isfinite(ratio)
    normalized = np.zeros((P, m_max), dtype=np.int64)
    qcap = np.zeros(P, dtype=np.int64)
    if dp_on.any():
        normalized[dp_on] = np.ceil(
            csums[dp_on] / delta[dp_on, None]
        ).astype(np.int64)
        qcap[dp_on] = np.floor(ratio[dp_on]).astype(np.int64)

    # Step 3: quantized subset-sum DP, the per-row reference sweep.
    t0 = monotonic()
    sel_clusters = _dp_select(normalized, qcap)
    phase_s["dp"] += monotonic() - t0
    t0 = monotonic()

    # Selected clusters -> sorted-position mask via +1/-1 boundary
    # markers and an integer cumsum (clusters are contiguous ranges).
    markers = np.zeros((P, L + 1), dtype=np.int32)
    rows, rs = np.nonzero(sel_clusters)
    if rows.size:
        np.add.at(markers, (rows, bounds[rows, rs]), 1)
        np.add.at(markers, (rows, bounds[rows, rs + 1]), -1)
    dp_mask = np.cumsum(markers[:, :L], axis=1) > 0

    dp_vol = np.zeros(P, dtype=np.float64)
    for p in range(P):
        sel = svals[p][dp_mask[p]]
        if sel.size:
            # Gathered copy then ``.sum()`` — matches the scalar
            # ``vals[dp_indices].sum()`` value sequence exactly.
            dp_vol[p] = sel.sum()

    phase_s["mask"] += monotonic() - t0
    # Step 4: greedy over the residuals.  The scalar path feeds *all*
    # unselected demands (including oversized ones) to the FFD scan;
    # oversized demands are strictly larger than every eligible one and
    # than the residual capacity, so they change no state — scanning
    # only the eligible residuals is exact.
    t0 = monotonic()
    resid_cap = caps - dp_vol
    # Sorting permutes within each row, so the valid region stays the
    # leading ``lens[p]`` positions — the step-1a mask carries over.
    sorted_valid = valid
    resid_all = sorted_valid & ~dp_mask
    n_resid = np.count_nonzero(resid_all, axis=1)
    min_resid = np.min(
        svals, axis=1, where=resid_all, initial=np.inf
    )
    gate = (n_resid > 0) & (
        (resid_cap > 0.0) | ((resid_cap == 0.0) & (min_resid <= 0.0))
    )
    resid_elig = (cols < elig_len[:, None]) & ~dp_mask
    greedy_mask, greedy_totals = _greedy_scan(
        svals, resid_elig, resid_cap, gate
    )
    greedy_vol = np.where(gate, greedy_totals, 0.0)
    phase_s["greedy"] += monotonic() - t0

    t0 = monotonic()
    sel_sorted = dp_mask | greedy_mask
    totals = dp_vol + greedy_vol

    # Error bound: min unselected demand / capacity (capacity > 0 for
    # every contended instance).  ``min`` is order-free, so reducing
    # through the ``where=`` mask matches the masked-copy reduction.
    unsel = sorted_valid & ~sel_sorted
    has_unsel = unsel.any(axis=1)
    min_unsel = np.min(
        svals, axis=1, where=unsel, initial=np.inf
    )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        err = np.where(has_unsel, min_unsel / caps, 0.0)

    # Map sorted positions back to original (ascending) indices, row by
    # row — the indices are distinct ints, so a plain sort replaces the
    # global stable lexsort.
    selected_rows = []
    for p in range(P):
        pos = np.flatnonzero(sel_sorted[p])
        orig = order[p, pos]
        orig.sort()
        selected_rows.append(orig)
    phase_s["extract"] += monotonic() - t0
    return selected_rows, counts, dp_vol, greedy_vol, totals, err


def fast_ssp_batch(
    values: np.ndarray,
    offsets: np.ndarray,
    capacities: np.ndarray,
    epsilon: float = 0.1,
    backend: str | None = None,
    presorted: list[np.ndarray | None] | None = None,
) -> BatchedSSPResult:
    """Solve a batch of FastSSP instances as one padded array program.

    Args:
        values: Flat non-negative demand volumes — instance ``i`` owns
            ``values[offsets[i]:offsets[i + 1]]`` (CSR, the layout of
            :mod:`repro.core.flowtable`).
        offsets: int64 CSR offsets, ``len == len(capacities) + 1``.
        capacities: Per-instance allocation ``F_{k,t}`` to fill.
        epsilon: FastSSP precision knob (shared by the batch).
        backend: Backend name (see :func:`resolve_ssp_backend_name`);
            ``None`` consults ``REPRO_SSP_BACKEND``.
        presorted: Optional per-instance sort hints — entry ``i`` is
            either ``None`` or a permutation of ``arange(lens[i])``
            ordering instance ``i``'s segment by ``(-value, position)``
            (descending stable; must not be used when the segment holds
            NaNs).  Callers that fill many tunnel steps from a
            shrinking demand set (:func:`fill_pairs_batch`) maintain
            these incrementally so the kernel's sort step becomes a
            capacity bisection.  The result is bit-identical with or
            without hints.

    Returns:
        A :class:`BatchedSSPResult` whose per-instance fields are
        bit-identical to per-instance :func:`~repro.core.fastssp.
        fast_ssp` calls.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64)
    offs = np.asarray(offsets, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.float64)
    B = int(caps.size)
    if offs.size != B + 1:
        raise ValueError("offsets must have len(capacities) + 1 entries")
    if flat.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if np.any(flat < 0):
        raise ValueError("demands must be non-negative")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    resolved = resolve_ssp_backend_name(backend)
    if resolved == "scalar":
        # The kernel itself is the batched path; "scalar" only has
        # meaning for dispatch layers.  Run the host reference.
        resolved = "numpy"
    phase_s = dict.fromkeys(SSP_PHASE_KEYS, 0.0)

    lens = offs[1:] - offs[:-1]
    if np.any(lens < 0) or (B and int(offs[-1]) > flat.size):
        raise ValueError("offsets must be monotone and within values")
    grand = np.zeros(B, dtype=np.float64)
    for i in range(B):
        seg = flat[offs[i]: offs[i + 1]]
        if seg.size:
            # Pairwise ``.sum()`` on the contiguous segment — the exact
            # value the scalar fast path compares against.
            grand[i] = seg.sum()

    trivial = (caps <= 0.0) | (lens == 0)
    fits = ~trivial & (grand <= caps)
    contended = ~trivial & ~fits

    totals = np.zeros(B, dtype=np.float64)
    caps_out = np.where(trivial, np.maximum(caps, 0.0), caps)
    num_clusters = np.zeros(B, dtype=np.int64)
    dp_volumes = np.zeros(B, dtype=np.float64)
    greedy_volumes = np.zeros(B, dtype=np.float64)
    error_bounds = np.zeros(B, dtype=np.float64)
    selections: list[np.ndarray | None] = [None] * B

    totals[fits] = grand[fits]
    dp_volumes[fits] = grand[fits]

    ks = np.flatnonzero(contended)
    if ks.size:
        (
            selected_rows,
            c_counts,
            c_dp,
            c_greedy,
            c_totals,
            c_err,
        ) = _solve_contended(
            flat,
            offs[:-1][ks],
            lens[ks],
            caps[ks],
            epsilon,
            phase_s,
            pre_orders=(
                None
                if presorted is None
                else [presorted[int(i)] for i in ks]
            ),
        )
        num_clusters[ks] = c_counts
        dp_volumes[ks] = c_dp
        greedy_volumes[ks] = c_greedy
        totals[ks] = c_totals
        error_bounds[ks] = c_err
        for j, i in enumerate(ks):
            selections[i] = selected_rows[j]

    empty = np.empty(0, dtype=np.int64)
    parts: list[np.ndarray] = []
    sel_counts = np.zeros(B, dtype=np.int64)
    for i in range(B):
        if fits[i]:
            sel = np.arange(int(lens[i]), dtype=np.int64)
        else:
            sel = selections[i] if selections[i] is not None else empty
        sel_counts[i] = sel.size
        parts.append(sel)
    selected_flat = (
        np.concatenate(parts) if parts else empty
    ).astype(np.int64, copy=False)
    selected_offsets = np.concatenate(
        ([0], np.cumsum(sel_counts))
    ).astype(np.int64)

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "megate_ssp_batch_instances_total",
            "SSP instances solved by the batched kernel, by triage",
            labelnames=("backend", "kind"),
        ).labels(backend=resolved, kind="contended").inc(int(ks.size))
        registry.counter(
            "megate_ssp_batch_instances_total",
            "SSP instances solved by the batched kernel, by triage",
            labelnames=("backend", "kind"),
        ).labels(backend=resolved, kind="fast_path").inc(
            int(B - ks.size)
        )
        hist = registry.histogram(
            "megate_ssp_batch_phase_seconds",
            "Batched FastSSP kernel phase durations",
            labelnames=("backend", "phase"),
        )
        for name, seconds in phase_s.items():
            hist.labels(backend=resolved, phase=name).observe(seconds)

    return BatchedSSPResult(
        selected_flat=selected_flat,
        selected_offsets=selected_offsets,
        totals=totals,
        capacities=caps_out,
        num_clusters=num_clusters,
        dp_volumes=dp_volumes,
        greedy_volumes=greedy_volumes,
        error_bounds=error_bounds,
        backend=resolved,
        phase_s=phase_s,
        contended=contended,
    )


def fill_pairs_batch(
    pair_volumes: list[np.ndarray],
    pair_allocs: list[np.ndarray],
    pair_orders: list[np.ndarray],
    epsilon: float,
    backend: str | None = None,
    phase_out: dict[str, float] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """MaxEndpointFlow for many site pairs, one kernel call per step.

    The batched twin of :func:`repro.core.pairfill.fill_pair`: for each
    fill-order step ``t`` every pair's still-free demands and the step's
    tunnel capacity form one instance of a :func:`fast_ssp_batch` call,
    so the cluster/normalize/DP/greedy work of all contended pairs runs
    as a single padded array program.  Free-index arrays shrink in place
    (no per-tunnel rescan) and the per-pair leftover reconciliation is
    the shared scalar tail — the composition is bit-identical to calling
    ``fill_pair`` per pair.

    Args:
        pair_volumes / pair_allocs / pair_orders: Per-pair arguments of
            ``fill_pair`` (demand volumes, per-tunnel allocation, fill
            order).
        epsilon: FastSSP precision knob.
        backend: SSP backend name (``None`` consults the env var).
        phase_out: Optional dict accumulating the kernel's per-phase
            seconds (keys :data:`SSP_PHASE_KEYS`) across steps.

    Returns:
        One ``(assigned, placed_per_tunnel)`` tuple per pair, in input
        order.
    """
    num = len(pair_volumes)
    resolved = resolve_ssp_backend_name(backend)
    if resolved == "scalar":
        resolved = "numpy"
    assigned = [
        np.full(v.size, UNASSIGNED, dtype=np.int32) for v in pair_volumes
    ]
    placed = [
        np.zeros(a.size, dtype=np.float64) for a in pair_allocs
    ]
    live = [
        pair_volumes[p].size > 0 and pair_allocs[p].size > 0
        for p in range(num)
    ]
    free = [
        np.arange(pair_volumes[p].size, dtype=np.int64)
        if live[p]
        else None
        for p in range(num)
    ]
    # A pair's descending demand order is capacity-independent and only
    # loses members as steps assign them, so once a pair proves
    # contended we sort it once and thereafter hand the kernel a
    # maintained order (``presorted``) instead of re-sorting every
    # step.  ``spre[p]`` holds the hint in segment-position space —
    # the positions of the pair's still-free demands within the
    # step's gathered segment, in ``(-volume, index)`` order — and is
    # remapped through each step's removal mask.  Pairs whose demands
    # contain NaN never promote (a NaN poisons the predicted grand
    # total, and the bisection split needs comparable values).
    spre: list[np.ndarray | None] = [None] * num
    max_steps = max(
        (int(pair_orders[p].size) for p in range(num) if live[p]),
        default=0,
    )
    with get_tracer().span(
        "te.phase.ssp_batch", backend=resolved, pairs=num
    ) as span:
        instances_total = 0
        for step in range(max_steps):
            batch_ps: list[int] = []
            batch_vals: list[np.ndarray] = []
            batch_caps: list[float] = []
            batch_ts: list[int] = []
            batch_pre: list[np.ndarray | None] = []
            for p in range(num):
                if not live[p] or step >= pair_orders[p].size:
                    continue
                if free[p].size == 0:
                    live[p] = False
                    continue
                t_index = int(pair_orders[p][step])
                capacity = float(pair_allocs[p][t_index])
                if capacity <= 0:
                    continue
                seg = pair_volumes[p][free[p]]
                pre = spre[p]
                if pre is None and seg.size:
                    # Promote on the first predicted-contended step so
                    # the promotion sort doubles as this step's hint.
                    # The prediction uses the same pairwise ``.sum()``
                    # over the same gathered values as the kernel's
                    # triage, so it matches the kernel's contended set
                    # exactly (a NaN total never compares > capacity).
                    if seg.sum() > capacity:
                        pre = np.argsort(-seg, kind="stable")
                        spre[p] = pre
                batch_ps.append(p)
                batch_vals.append(seg)
                batch_caps.append(capacity)
                batch_ts.append(t_index)
                batch_pre.append(pre)
            if not batch_ps:
                continue
            sizes = [v.size for v in batch_vals]
            offs = np.concatenate(
                ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
            )
            flat = (
                np.concatenate(batch_vals)
                if offs[-1]
                else np.empty(0, dtype=np.float64)
            )
            res = fast_ssp_batch(
                flat,
                offs,
                np.asarray(batch_caps, dtype=np.float64),
                epsilon=epsilon,
                backend=resolved,
                presorted=batch_pre,
            )
            instances_total += len(batch_ps)
            if phase_out is not None:
                for name, seconds in res.phase_s.items():
                    phase_out[name] = phase_out.get(name, 0.0) + seconds
            for j, p in enumerate(batch_ps):
                sel = res.selected(j)
                t_index = batch_ts[j]
                assigned[p][free[p][sel]] = t_index
                placed[p][t_index] = res.totals[j]
                if sel.size:
                    keep = np.ones(free[p].size, dtype=bool)
                    keep[sel] = False
                    free[p] = free[p][keep]
                    if spre[p] is not None:
                        # Surviving hint entries keep their relative
                        # (descending) order; removals shift positions
                        # down by the number removed before them.
                        remap = np.cumsum(keep) - 1
                        sp = spre[p]
                        sp = sp[keep[sp]]
                        spre[p] = remap[sp]
        span.set_attribute("instances", instances_total)
        span.set_attribute("steps", max_steps)

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "megate_ssp_batch_pairs_total",
            "Site pairs filled through the batched FastSSP kernel",
            labelnames=("backend",),
        ).labels(backend=resolved).inc(num)

    for p in range(num):
        if not (pair_volumes[p].size and pair_allocs[p].size):
            continue
        leftovers = pair_allocs[p] - placed[p]
        reconcile_leftovers(
            pair_volumes[p],
            assigned[p],
            placed[p],
            leftovers,
            pair_orders[p],
        )
    return list(zip(assigned, placed))
