"""FastSSP: MegaTE's approximate subset-sum algorithm (§4.2, Appendix A.2).

The exact DP is ``O(|I_k| · F_{k,t})`` — hopeless when a site pair carries
hundreds of thousands of tiny endpoint demands.  FastSSP is a four-step
*semi-DP* with controllable precision ``ε'``:

1. **Clustering** — aggregate demands into ``m`` clusters, each meeting or
   exceeding ``M = (1/3) ε' F``, so ``m ≤ 3/ε'`` is a small constant.
2. **Normalization** — quantize cluster sizes by ``δ = (ε'/3) M = (ε'²/9) F``
   (demands rounded up, capacity rounded down, so quantized feasibility
   implies true feasibility).
3. **DP** — exact subset-sum over the ``m`` quantized clusters with capacity
   ``⌊F/δ⌋``; cost ``O(m · ⌊F/δ⌋)``, independent of ``|I_k|``.
4. **Sorted greedy** — first-fit-decreasing packs the leftover (unselected)
   demands into the residual capacity.  The final gap is smaller than the
   smallest leftover demand, giving error rate ``β ≤ min(residual)/F``.

Total cost ``O(m⌊F/δ⌋ + |I_k| log |I_k|)``.

Two implementations of one ``(site pair, tunnel)`` instance live here:

* :func:`fast_ssp` — the reference: the four steps as written above,
  index lists and a per-item Python clustering loop.  The replay
  digests are pinned on it and the property tests compare against it.
* :func:`fast_ssp_sorted` — the production kernel: the same four steps
  over the instance's *descending-sorted row*, where a cluster is a
  contiguous range, the DP's choice a position mask, the greedy a scan
  of vectorized skip and take runs and every minimum a last element.
  It takes an optional order hint so a caller filling several tunnels
  from one shrinking demand set (:func:`repro.core.pairfill.fill_pair`)
  sorts once and bisects on capacity afterwards.

Bit-identity contract
---------------------
The kernel reproduces the reference **bit for bit** in every result
field (property-tested in ``tests/test_fastssp_batch_property.py``),
which fixes its numerics:

1. NumPy's ``ndarray.sum()`` is *pairwise* while ``cumsum`` accumulates
   *sequentially* — so what the reference computes with ``.sum()``
   (grand total, cluster sums, the DP volume) is a ``.sum()`` over the
   same value sequence here, and what it accumulates item by item (the
   clustering running total, the greedy total and remaining capacity)
   is a ``cumsum`` or an explicitly sequential scan.
2. ``(cap - a) - b != cap - (a + b)`` in floating point, so the greedy
   replays the reference's op order (skip / subtract / add per item)
   with ``np.subtract.accumulate`` / ``np.add.accumulate`` — sequential
   by definition — instead of a prefix-sum sweep; skipped items change
   no state, so jumping over a run of them is exact.
3. Ties sort identically: :func:`descending_order` reproduces the
   stable sort's permutation, ties in original index order.
4. Oversized demands are never eligible and never selected, but they
   do reach the two minima the reference takes over *all* unselected
   demands (the greedy gate and ``error_bound``), so the kernel carries
   their minimum beside the row.  (A ``NaN`` demand never gets here:
   both reject it, :mod:`repro.checks`.)
"""

from __future__ import annotations

import numpy as np

from .. import checks
from ..obs import monotonic
from .ssp import dp_ssp, greedy_ssp

__all__ = [
    "SSP_PHASE_KEYS",
    "FastSSPResult",
    "descending_order",
    "fast_ssp",
    "fast_ssp_sorted",
]

#: Keys of the kernel's phase-timing breakdown, in execution order.
SSP_PHASE_KEYS = ("sort", "cluster", "dp", "greedy", "extract")

_EMPTY_SELECTION = np.empty(0, dtype=np.int64)


class FastSSPResult:
    """Outcome of one FastSSP solve.

    The selection is stored array-native (``selected_array``) so hot
    callers index demand arrays without a tuple round-trip; ``selected``
    stays available as a lazily materialized tuple for existing
    consumers.  Either form may be passed at construction — the other is
    derived on first access.

    Attributes:
        selected: Indices of demands allocated (ascending), as a tuple.
        selected_array: The same indices as an int64 ndarray.
        total: Total allocated volume (``≤ capacity``).
        capacity: The capacity ``F_{k,t}`` solved against.
        num_clusters: ``m``, clusters formed in step 1.
        dp_selected_volume: Volume chosen by the DP phase (steps 1-3).
        greedy_selected_volume: Volume added by the greedy phase (step 4).
        error_bound: The a-posteriori bound ``β ≤ min(residual)/F`` on the
            gap to a full allocation (0 when everything fit or F == 0).
    """

    __slots__ = (
        "_selected",
        "_selected_array",
        "total",
        "capacity",
        "num_clusters",
        "dp_selected_volume",
        "greedy_selected_volume",
        "error_bound",
    )

    def __init__(
        self,
        selected: tuple[int, ...] | None = None,
        total: float = 0.0,
        capacity: float = 0.0,
        num_clusters: int = 0,
        dp_selected_volume: float = 0.0,
        greedy_selected_volume: float = 0.0,
        error_bound: float = 0.0,
        *,
        selected_array: np.ndarray | None = None,
    ) -> None:
        if selected is None and selected_array is None:
            raise TypeError(
                "FastSSPResult needs selected or selected_array"
            )
        self._selected = tuple(selected) if selected is not None else None
        self._selected_array = selected_array
        self.total = total
        self.capacity = capacity
        self.num_clusters = num_clusters
        self.dp_selected_volume = dp_selected_volume
        self.greedy_selected_volume = greedy_selected_volume
        self.error_bound = error_bound

    @property
    def selected(self) -> tuple[int, ...]:
        if self._selected is None:
            self._selected = tuple(self._selected_array.tolist())
        return self._selected

    @property
    def selected_array(self) -> np.ndarray:
        if self._selected_array is None:
            self._selected_array = (
                np.asarray(self._selected, dtype=np.int64)
                if self._selected
                else _EMPTY_SELECTION
            )
        return self._selected_array

    @property
    def utilization(self) -> float:
        """Fraction of capacity filled."""
        return self.total / self.capacity if self.capacity > 0 else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FastSSPResult):
            return NotImplemented
        return (
            self.selected == other.selected
            and self.total == other.total
            and self.capacity == other.capacity
            and self.num_clusters == other.num_clusters
            and self.dp_selected_volume == other.dp_selected_volume
            and self.greedy_selected_volume == other.greedy_selected_volume
            and self.error_bound == other.error_bound
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FastSSPResult(num_selected={self.selected_array.size}, "
            f"total={self.total!r}, capacity={self.capacity!r}, "
            f"num_clusters={self.num_clusters}, "
            f"error_bound={self.error_bound!r})"
        )


def _cluster(
    order: np.ndarray, values: np.ndarray, threshold: float
) -> list[np.ndarray]:
    """Greedily pack demands (descending) into clusters of size >= threshold.

    The final cluster may fall short of the threshold when the tail runs
    out; it is kept so every demand belongs to exactly one cluster.
    """
    clusters: list[np.ndarray] = []
    current: list[int] = []
    current_total = 0.0
    for idx in order:
        current.append(int(idx))
        current_total += float(values[idx])
        if current_total >= threshold:
            clusters.append(np.asarray(current, dtype=np.int64))
            current = []
            current_total = 0.0
    if current:
        clusters.append(np.asarray(current, dtype=np.int64))
    return clusters


def descending_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")``, from one unstable sort.

    NumPy's default argsort (SIMD where the CPU has it) leaves equal
    keys in arbitrary order, so each run of equal keys is put back in
    index order afterwards — the stable sort's tie rule.  ``±0.0``
    compare equal and share a run; ``NaN``, which every NumPy sort
    places last, forms the final run.  Only the tied positions are
    re-sorted, by the unique key ``run * n + index``.
    """
    neg = -np.asarray(values, dtype=np.float64)
    order = np.argsort(neg)
    n = order.size
    if n < 2:
        return order
    keys = neg[order]
    tie = keys[1:] == keys[:-1]
    if keys[-1] != keys[-1]:
        nan = np.isnan(keys)
        tie |= nan[1:] & nan[:-1]
    if not tie.any():
        return order
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(~tie, out=run[1:])
    tied = np.zeros(n, dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    pos = np.flatnonzero(tied)
    key = run[pos] * n + order[pos]
    key.sort()
    order[pos] = key % n
    return order


def _triage(
    values: np.ndarray, capacity: float, epsilon: float
) -> tuple[np.ndarray, FastSSPResult | None]:
    """Validate one instance and settle it when nothing needs solving.

    Returns the demands as a float64 vector and — for a trivial instance
    (no capacity, no demands) or one whose demands all fit — the
    finished result; ``None`` means contended.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError("values must be one-dimensional")
    checks.nonnegative_array("values", vals)
    checks.in_range("epsilon", epsilon, 0, 1, "()")
    # inf: a capacity that never binds; below 0 it clamps to 0.
    checks.finite("capacity", capacity, allow_inf=True)
    if capacity <= 0 or vals.size == 0:
        return vals, FastSSPResult(
            selected_array=_EMPTY_SELECTION,
            total=0.0,
            capacity=float(max(capacity, 0.0)),
            num_clusters=0,
            dp_selected_volume=0.0,
            greedy_selected_volume=0.0,
            error_bound=0.0,
        )
    # Everything fits — no need to cluster or solve anything.
    grand_total = float(vals.sum())
    if grand_total <= capacity:
        return vals, FastSSPResult(
            selected_array=np.arange(vals.size, dtype=np.int64),
            total=grand_total,
            capacity=float(capacity),
            num_clusters=0,
            dp_selected_volume=grand_total,
            greedy_selected_volume=0.0,
            error_bound=0.0,
        )
    return vals, None


def fast_ssp(
    values: np.ndarray,
    capacity: float,
    epsilon: float = 0.1,
) -> FastSSPResult:
    """Approximately solve subset sum over endpoint demands.

    Args:
        values: Non-negative demand volumes ``{d_k^i}`` (Gbps).
        capacity: Site-level allocation ``F_{k,t}`` to fill.
        epsilon: Precision knob ``ε'`` of Appendix A.2 (smaller = more
            clusters, finer quantization, slower, more accurate).

    Returns:
        A :class:`FastSSPResult`; ``selected`` indexes into ``values``.
    """
    vals, settled = _triage(values, capacity, epsilon)
    if settled is not None:
        return settled

    # Step 1: clustering.  Demands larger than capacity can never be
    # selected; exclude them up front so they do not poison clusters.
    eligible = np.flatnonzero(vals <= capacity)
    threshold = epsilon * capacity / 3.0
    order = eligible[np.argsort(-vals[eligible], kind="stable")]
    clusters = _cluster(order, vals, threshold)
    cluster_sums = np.array(
        [float(vals[c].sum()) for c in clusters], dtype=np.float64
    )

    # Step 2: normalization by delta = (eps/3) * M = (eps^2/9) * F.
    # capacity/delta = 9/eps^2 by construction, but subnormal capacities
    # can underflow delta to 0 — fall back to an empty DP phase (the
    # greedy step still handles such degenerate instances correctly).
    delta = epsilon * threshold / 3.0
    if delta > 0 and np.isfinite(capacity / delta):
        normalized = np.ceil(cluster_sums / delta).astype(np.int64)
        quantized_capacity = int(np.floor(capacity / delta))
        # Step 3: exact DP over the m quantized clusters.
        dp = dp_ssp(normalized, quantized_capacity)
    else:
        dp = dp_ssp(np.empty(0, dtype=np.int64), 0)
    dp_indices: list[int] = []
    for cluster_idx in dp.selected:
        dp_indices.extend(clusters[cluster_idx].tolist())
    dp_volume = float(vals[dp_indices].sum()) if dp_indices else 0.0

    # Step 4: sorted greedy over the residual demands and capacity.  The
    # greedy can only select anything when residual capacity remains (or
    # zero-valued residual demands exist, which fit a zero residual), so
    # the common fully-packed case skips the call entirely.
    selected_mask = np.zeros(vals.size, dtype=bool)
    if dp_indices:
        selected_mask[dp_indices] = True
    residual_capacity = float(capacity) - dp_volume
    residual_indices = np.flatnonzero(~selected_mask)
    greedy_volume = 0.0
    if residual_indices.size and (
        residual_capacity > 0.0
        or (
            residual_capacity == 0.0
            and float(vals[residual_indices].min()) <= 0.0
        )
    ):
        greedy = greedy_ssp(vals[residual_indices], residual_capacity)
        greedy_indices = residual_indices[
            np.asarray(greedy.selected, dtype=np.int64)
        ]
        selected_mask[greedy_indices] = True
        greedy_volume = float(greedy.total)

    total = dp_volume + greedy_volume
    unselected = np.flatnonzero(~selected_mask)
    if unselected.size and capacity > 0:
        error_bound = float(vals[unselected].min()) / float(capacity)
    else:
        error_bound = 0.0
    return FastSSPResult(
        selected_array=np.flatnonzero(selected_mask).astype(
            np.int64, copy=False
        ),
        total=total,
        capacity=float(capacity),
        num_clusters=len(clusters),
        dp_selected_volume=dp_volume,
        greedy_selected_volume=greedy_volume,
        error_bound=error_bound,
    )


def _cluster_row(row: np.ndarray, threshold: float) -> tuple[list, list]:
    """Cluster boundaries and sums of one descending row.

    The row is left-scanned with a sequential running total — a short
    plain-Python accumulation for small clusters, a sliced ``cumsum``
    (the same IEEE add sequence) over an adaptive lookahead window for
    large ones; a cluster ends at the first position whose running
    total crosses the threshold.  Non-negative demands make the running
    total monotone, so the first crossing is a ``searchsorted``
    bisection, and a window that never crosses shows in its last element
    alone.  When a window ends short of the threshold the scan
    *restarts* from the cluster start with a wider window, so the
    running total stays the exact sequential accumulation; a tail that
    never crosses becomes the final, under-threshold cluster (kept, as
    in the reference).  Descending values mean cluster item counts only
    grow along the row, so each cluster's size seeds the next window —
    contended rows at million-endpoint scale reach thousands of
    clusters, and this keeps the per-cluster cost at one short cumsum
    over a contiguous view.  The same monotonicity retires the
    small-cluster scan for good once a cluster outgrows it, and that
    scan reads the row through a list buffer converted chunk by chunk,
    only as far as it reads.

    Returns ``(bounds, sums)``: cluster ``r`` is positions
    ``bounds[r]:bounds[r + 1]`` and ``sums[r]`` its pairwise ``.sum()``
    over that contiguous slice — the same value sequence as the
    reference's ``vals[cluster].sum()``.
    """
    n = int(row.size)
    t = threshold
    b = [0]
    sums: list[float] = []
    small = 48
    buf: list[float] = []  # row[base:end] as Python floats
    base = end = 0
    pos = 0
    lookahead = 128
    while pos < n:
        boundary = -1
        if small:
            # Small-cluster fast path: a plain Python running total over
            # the next few items.  ``running += v`` is the same IEEE add
            # sequence as the sliced cumsum (and as the reference scan),
            # so the crossing decision is bit-identical.
            stop = pos + small
            if stop > n:
                stop = n
            if stop > end:
                base = pos
                buf = row[pos : pos + 16 * lookahead].tolist()
                end = base + len(buf)
            running = 0.0
            for k in range(pos - base, stop - base):
                running += buf[k]
                if running >= t:
                    boundary = base + k + 1
                    break
            if boundary > 0 and boundary - pos < 8:
                # numpy's pairwise ``.sum()`` reduces sequentially below
                # its 8-element block size, so the running total at the
                # crossing IS the cluster's ``.sum()`` value.
                sums.append(running)
                lookahead = max(2 * (boundary - pos), 64)
                b.append(boundary)
                pos = boundary
                continue
            if boundary < 0 and stop == n:
                boundary = n
            elif boundary < 0:
                # No crossing within ``small`` items: no later cluster
                # (of smaller values) crosses within them either.
                small = 0
        if boundary < 0:
            # Restart from the cluster start with a widening cumsum
            # window: the running total stays the exact sequential
            # accumulation from the cluster start.
            w = max(lookahead, 96)
            while True:
                stop = min(pos + w, n)
                cum = np.cumsum(row[pos:stop])
                if cum[-1] >= t:
                    boundary = pos + int(np.searchsorted(cum, t)) + 1
                    break
                if stop == n:
                    boundary = n
                    break
                w *= 4
        sums.append(float(row[pos:boundary].sum()))
        lookahead = max(2 * (boundary - pos), 64)
        b.append(boundary)
        pos = boundary
    return b, sums


def _greedy_row(
    svals: np.ndarray, selected: np.ndarray, remaining: float
) -> float:
    """Exact first-fit-decreasing scan of a descending row's free values.

    Replays :func:`repro.core.ssp.greedy_ssp`'s op order over the
    positions ``selected`` leaves free — take each value that fits, in
    descending order — marks what it takes in ``selected`` and returns
    the greedy total.  It moves a run at a time, not an item at a time.
    A run of too-large values is one ``searchsorted`` skip (skipped
    items change no state, so the jump is exact).  A run of takes is
    one ``np.subtract.accumulate`` of the remaining capacity and one
    ``np.add.accumulate`` of the total — the same sequential IEEE ops
    as the scalar loop — over a window that doubles while the run fills
    it; the run ends at the first value that does not fit.  A row of at
    most 64 values costs less as one list scanned by the scalar loop
    itself than as the dozen numpy calls of one run.
    """
    total = 0.0
    if svals.size <= 64:
        for k, (v, taken) in enumerate(
            zip(svals.tolist(), selected.tolist())
        ):
            if not taken and v <= remaining:
                selected[k] = True
                total += v
                remaining -= v
        return total
    residual = np.flatnonzero(~selected)
    row = svals[residual]
    n = row.size
    neg = -row  # ascending, for searchsorted (float64 negation is exact)
    take = np.zeros(n, dtype=bool)
    j = 0
    w = 8
    while True:
        # Descending row: the next value that can fit is the first one
        # <= remaining; everything before it is skipped exactly as the
        # reference scan would.
        j = max(j, int(np.searchsorted(neg, -remaining)))
        if j >= n:
            break
        seg = row[j : j + w]
        left = np.subtract.accumulate(np.concatenate(([remaining], seg)))
        fits = seg <= left[:-1]
        k = int(fits.argmin())  # first value that does not fit ...
        if fits[k]:
            k = seg.size  # ... or the whole window fit
            w *= 2
        remaining = float(left[k])
        total = float(
            np.add.accumulate(np.concatenate(([total], seg[:k])))[-1]
        )
        take[j : j + k] = True
        j += k
    selected[residual[take]] = True
    return total


def _min_unselected(
    svals: np.ndarray, selected: np.ndarray, over_min: float
) -> float:
    """``min`` over every unselected demand (``inf`` when there is none).

    The row is descending, so its unselected minimum is its last
    unselected element; ``np.minimum`` folds in the oversized minimum.
    """
    rest = np.flatnonzero(~selected)
    low = svals[rest[-1]] if rest.size else np.inf
    return float(np.minimum(low, over_min))


def fast_ssp_sorted(
    values: np.ndarray,
    capacity: float,
    epsilon: float = 0.1,
    order: np.ndarray | None = None,
    phase_out: dict[str, float] | None = None,
) -> FastSSPResult:
    """:func:`fast_ssp` over the instance's descending-sorted row.

    Args:
        values / capacity / epsilon: As for :func:`fast_ssp`.
        order: Optional sort hint — a permutation of
            ``arange(len(values))`` ordering the demands by ``(-value,
            index)`` (descending, stable).  With it the sort step is a
            capacity bisection.  The result is bit-identical with or without.
        phase_out: Optional dict accumulating the seconds a contended
            instance spends in each phase (keys :data:`SSP_PHASE_KEYS`).

    Returns:
        A :class:`FastSSPResult` equal to ``fast_ssp``'s in every field.
    """
    vals, settled = _triage(values, capacity, epsilon)
    if settled is not None:
        return settled
    cap = float(capacity)

    # Sort: eligible demands (<= capacity) descending, ties in index
    # order, exactly like the reference's argsort.  The rest, oversized,
    # can never be selected; only their minimum is needed.
    # A hinted row is already descending, so its eligible demands are
    # the positions from the first value <= capacity on.
    t0 = monotonic()
    if order is None:
        ok = vals <= cap
        eligible = np.flatnonzero(ok)
        index = eligible[descending_order(vals[eligible])]
        svals = vals[index]
        over = vals[~ok]
    else:
        row = vals[order]
        k = int(np.searchsorted(-row, -cap, side="left"))
        index, svals, over = order[k:], row[k:], row[:k]
    over_min = float(over.min()) if over.size else np.inf

    # Step 1: clustering — contiguous ranges of the row.
    t1 = monotonic()
    threshold = epsilon * cap / 3.0
    bounds, sums = _cluster_row(svals, threshold)

    # Steps 2-3: normalization and the quantized DP, guarded against the
    # subnormal-capacity underflow exactly like the reference.
    t2 = monotonic()
    delta = epsilon * threshold / 3.0
    clusters: tuple[int, ...] = ()
    if delta > 0 and np.isfinite(cap / delta):
        normalized = np.ceil(
            np.asarray(sums, dtype=np.float64) / delta
        ).astype(np.int64)
        clusters = dp_ssp(normalized, int(np.floor(cap / delta))).selected
    selected = np.zeros(svals.size, dtype=bool)
    for r in clusters:
        selected[bounds[r] : bounds[r + 1]] = True
    # Gathered copy then ``.sum()`` — the reference's
    # ``vals[dp_indices].sum()`` value sequence.
    dp_volume = float(svals[selected].sum()) if clusters else 0.0

    # Step 4: greedy over the residuals, behind the reference's gate.
    # Oversized demands exceed the residual capacity too, so scanning
    # only the row's residuals is exact.
    t3 = monotonic()
    residual_capacity = cap - dp_volume
    greedy_volume = 0.0
    if residual_capacity > 0.0 or (
        residual_capacity == 0.0
        and _min_unselected(svals, selected, over_min) <= 0.0
    ):
        greedy_volume = _greedy_row(svals, selected, residual_capacity)

    # Error bound, and sorted positions back to ascending indices.
    t4 = monotonic()
    lowest = _min_unselected(svals, selected, over_min)
    picked = index[selected]
    picked.sort()
    t5 = monotonic()
    if phase_out is not None:
        ticks = (t0, t1, t2, t3, t4, t5)
        for key, begin, end in zip(SSP_PHASE_KEYS, ticks, ticks[1:]):
            phase_out[key] = phase_out.get(key, 0.0) + (end - begin)
    return FastSSPResult(
        selected_array=picked.astype(np.int64, copy=False),
        total=dp_volume + greedy_volume,
        capacity=cap,
        num_clusters=len(sums),
        dp_selected_volume=dp_volume,
        greedy_selected_volume=greedy_volume,
        error_bound=(
            lowest / cap if over.size or not selected.all() else 0.0
        ),
    )
