"""Subset-sum algorithms: exact DP, greedy, and a brute-force oracle.

``MaxEndpointFlow`` (paper §4.2 / Appendix A.2) is a subset-sum problem
(SSP): pick endpoint demands whose total is as close as possible to, without
exceeding, the site-level allocation ``F_{k,t}``.  This module provides the
classic building blocks FastSSP composes, plus reference implementations
used as test oracles.

All solvers return **selected indices** into the input array, so callers can
map choices back to endpoint pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import checks

__all__ = [
    "SSPSolution",
    "dp_ssp",
    "greedy_ssp",
    "brute_force_ssp",
    "meet_in_the_middle_ssp",
]


@dataclass(frozen=True)
class SSPSolution:
    """Result of a subset-sum solve.

    Attributes:
        selected: Indices of chosen items (ascending).
        total: Sum of the chosen values.
    """

    selected: tuple[int, ...]
    total: float

    @property
    def num_selected(self) -> int:
        return len(self.selected)


def dp_ssp(values: np.ndarray, capacity: int) -> SSPSolution:
    """Exact subset sum by dynamic programming (Bellman 1957).

    Args:
        values: Non-negative **integer** item values.
        capacity: Integer capacity.

    Returns:
        The subset with maximum total not exceeding ``capacity``.

    Complexity ``O(n * capacity)`` time — the cost FastSSP's normalization
    step exists to shrink.

    The reachable sums are one Python-int bitset (bit ``s`` set when some
    subset of the items seen so far sums to ``s``), so an item costs one
    shift-and-or over ``capacity / 64`` machine words.  Each change of the
    bitset is kept, with the item that made it, as the *reach history*;
    the item that first reached a sum is then the owner of the first
    history entry holding its bit, found by binary search.
    """
    vals = np.asarray(values)
    if vals.size and not np.issubdtype(vals.dtype, np.integer):
        raise TypeError("dp_ssp requires integer values; normalize first")
    if not isinstance(capacity, (int, np.integer)):
        raise TypeError(
            f"dp_ssp requires an integer capacity, got {capacity!r}"
        )
    checks.nonnegative_array("values", vals)
    checks.nonnegative("capacity", capacity)
    capacity = int(capacity)
    if vals.size == 0 or capacity == 0:
        return SSPSolution(selected=(), total=0.0)

    full = (1 << (capacity + 1)) - 1
    reach = 1  # only the empty sum
    owners: list[int] = []  # item that changed the bitset ...
    history: list[int] = []  # ... and the bitset after it
    items = vals.tolist()
    for idx, v in enumerate(items):
        if v == 0 or v > capacity:
            continue
        grown = reach | ((reach << v) & full)
        if grown != reach:
            reach = grown
            owners.append(idx)
            history.append(reach)
            if reach >> capacity:
                # Capacity itself is reachable: later items can only add
                # sums whose first reacher is later still, and the walk
                # below never reads one.
                break

    best = reach.bit_length() - 1
    # Reconstruct: walk back through first-reacher items.  The item that
    # *first* made s reachable is the owner of the first history entry
    # holding bit s; the predecessor sum s - v was reachable from earlier
    # items only, so each search is bounded by the previous hit and the
    # walk yields distinct indices.
    selected: list[int] = []
    s = best
    hi = len(history)
    while s > 0:
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if history[mid] >> s & 1:
                hi = mid
            else:
                lo = mid + 1
        idx = owners[hi]
        selected.append(idx)
        s -= items[idx]
    selected.reverse()
    return SSPSolution(selected=tuple(selected), total=float(best))


def greedy_ssp(values: np.ndarray, capacity: float) -> SSPSolution:
    """First-fit-decreasing greedy subset sum.

    Scans items in descending value order, taking each that still fits.
    After the scan every unselected item exceeds the remaining gap, which is
    what gives FastSSP its error bound ``β ≤ min(residual)/F`` (App. A.2).

    Works on real-valued inputs; ``O(n log n)``.
    """
    vals = np.asarray(values, dtype=np.float64)
    checks.nonnegative_array("values", vals)
    checks.nonnegative("capacity", capacity, allow_inf=True)  # never binds
    order = np.argsort(-vals, kind="stable")
    remaining = float(capacity)
    selected: list[int] = []
    total = 0.0
    for idx in order:
        v = float(vals[idx])
        if v <= remaining:
            selected.append(int(idx))
            total += v
            remaining -= v
    selected.sort()
    return SSPSolution(selected=tuple(selected), total=total)


def brute_force_ssp(values: np.ndarray, capacity: float) -> SSPSolution:
    """Optimal subset sum by exhaustive search — test oracle only.

    Raises:
        ValueError: for more than 22 items (2^n blowup).
    """
    vals = np.asarray(values, dtype=np.float64)
    n = int(vals.size)
    if n > 22:
        raise ValueError("brute force limited to 22 items")
    best_total = -1.0
    best_mask = 0
    # Same ulp-level slack as meet_in_the_middle_ssp: a subset that fills
    # the capacity exactly can land a few ulps above it when its items are
    # accumulated in a different order than the caller's capacity was.
    slack = capacity * (1.0 + 1e-12) + 1e-12
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += float(vals[i])
        if total <= slack and total > best_total:
            best_total = total
            best_mask = mask
    selected = tuple(i for i in range(n) if best_mask >> i & 1)
    return SSPSolution(selected=selected, total=max(best_total, 0.0))


def meet_in_the_middle_ssp(
    values: np.ndarray, capacity: float
) -> SSPSolution:
    """Optimal subset sum by Horowitz-Sahni meet-in-the-middle (1974).

    The classic ``O(2^(n/2))`` exact algorithm the paper cites among SSP
    foundations: split the items in half, enumerate each half's subset
    sums, sort one side and binary-search the best partner for every
    subset of the other.  Practical up to ~40 items — a much larger exact
    oracle than brute force.

    Args:
        values: Non-negative item values (real-valued).
        capacity: Capacity bound.

    Raises:
        ValueError: for more than 40 items.
    """
    vals = np.asarray(values, dtype=np.float64)
    checks.nonnegative_array("values", vals)
    n = int(vals.size)
    if n > 40:
        raise ValueError("meet-in-the-middle limited to 40 items")
    if n == 0 or capacity <= 0:
        return SSPSolution(selected=(), total=0.0)
    half = n // 2
    left, right = vals[:half], vals[half:]

    def enumerate_sums(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = items.size
        masks = np.arange(1 << m, dtype=np.int64)
        sums = np.zeros(1 << m, dtype=np.float64)
        for bit in range(m):
            sums[(masks >> bit) & 1 == 1] += items[bit]
        return sums, masks

    left_sums, left_masks = enumerate_sums(left)
    right_sums, right_masks = enumerate_sums(right)
    order = np.argsort(right_sums, kind="stable")
    right_sorted = right_sums[order]

    best_total = -1.0
    best_pair = (0, 0)
    for l_sum, l_mask in zip(left_sums, left_masks):
        budget = capacity - l_sum
        if budget < 0:
            continue
        # Relative slack: the two halves' sums are accumulated in a
        # different order than a caller's total, so an exactly-full
        # subset can land a few ulps above the remaining budget.  The
        # returned total may exceed the capacity by at most ~1e-12
        # relative — far below any physical bandwidth resolution.
        slack = budget * (1.0 + 1e-12) + 1e-12
        idx = int(np.searchsorted(right_sorted, slack, side="right")) - 1
        if idx < 0:
            continue
        total = l_sum + right_sorted[idx]
        if total > best_total:
            best_total = total
            best_pair = (int(l_mask), int(right_masks[order[idx]]))
    if best_total < 0:
        return SSPSolution(selected=(), total=0.0)
    l_mask, r_mask = best_pair
    selected = [i for i in range(half) if l_mask >> i & 1]
    selected += [half + i for i in range(n - half) if r_mask >> i & 1]
    return SSPSolution(selected=tuple(selected), total=float(best_total))
