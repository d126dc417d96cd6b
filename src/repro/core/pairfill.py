"""The per-site-pair MaxEndpointFlow fill, shared by every dispatch path.

:func:`fill_pair` is one contended site pair's second-stage solve — walk
the tunnels in fill order, pack endpoint flows into each tunnel's
allocation via FastSSP, then reconcile leftovers.  :func:`fill_pairs`
is the optimizer's stage-2 seam: the fill callable
:meth:`MegaTEOptimizer._fill <repro.core.twostage.MegaTEOptimizer>`
calls in-process, and the function the shared-memory shard workers
(:mod:`repro.core.sharded`) run in *other processes* — both execute
byte-for-byte the same code; the sharded path's bit-identity contract
rests on that.  It composes the cold fill with the carried
cross-interval warm start (:func:`repro.core.incremental.warm_fill_pair`)
behind one call, so the worker-side incremental fast path cannot drift
from the in-process one.
"""

from __future__ import annotations

import numpy as np

from .fastssp import fast_ssp
from .incremental import reconcile_leftovers, warm_fill_pair
from .types import UNASSIGNED

__all__ = ["fill_pair", "fill_pairs"]


def fill_pair(
    volumes: np.ndarray,
    alloc_k: np.ndarray,
    fill_order: np.ndarray,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """MaxEndpointFlow for one site pair and class.

    Tunnels are processed in ascending order of the class's preferred
    attribute — latency for classes 1-2, cost for class 3 — so the most
    preferred tunnel's allocation is filled first (App. A.2's sequential
    dependency) and each subsequent tunnel chooses among the still
    unassigned flows.

    Returns:
        ``(assigned, placed_per_tunnel)``: int32 tunnel index per flow
        (:data:`UNASSIGNED` = rejected) and float64 volume placed per
        tunnel of the pair.
    """
    assigned = np.full(volumes.size, UNASSIGNED, dtype=np.int32)
    placed = np.zeros(alloc_k.size, dtype=np.float64)
    if volumes.size == 0 or alloc_k.size == 0:
        return assigned, placed
    # Shrinking free-index array: each tunnel removes what it selected
    # instead of rescanning every flow's assignment per tunnel.
    free = np.arange(volumes.size, dtype=np.int64)
    for t_index in fill_order:
        capacity = alloc_k[t_index]
        if capacity <= 0:
            continue
        if free.size == 0:
            break
        result = fast_ssp(volumes[free], capacity, epsilon=epsilon)
        sel = result.selected_array
        assigned[free[sel]] = t_index
        placed[t_index] = result.total
        if sel.size:
            keep = np.ones(free.size, dtype=bool)
            keep[sel] = False
            free = free[keep]
    # Reconciliation pass: FastSSP may leave slack on several tunnels
    # that no single remaining flow fit at the time; retry the largest
    # leftover flows against each tunnel's remaining allocation.
    leftovers = alloc_k - placed
    reconcile_leftovers(volumes, assigned, placed, leftovers, fill_order)
    return assigned, placed


def fill_pairs(
    pair_volumes: list[np.ndarray],
    pair_allocs: list[np.ndarray],
    pair_orders: list[np.ndarray],
    epsilon: float,
    prev_assigned: list[np.ndarray | None] | None = None,
    ssp_backend: str | None = None,
    phase_out: dict[str, float] | None = None,
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Fill many site pairs: warm starts per pair, cold fills batched.

    Every pair whose carried assignment passes the warm gate
    (:func:`~repro.core.incremental.warm_fill_pair`) reuses it, and
    the remaining cold pairs run through the array-batched FastSSP
    kernel (:func:`repro.core.fastssp_batch.fill_pairs_batch`) as one
    padded array program per fill-order step.  Used by the in-process
    dispatch and the shard workers so neither can drift from the other.

    Args:
        pair_volumes / pair_allocs / pair_orders: Per-pair ``fill_pair``
            arguments, in pair order.
        epsilon: FastSSP precision knob.
        prev_assigned: Optional carried assignment per pair (``None``
            entries, or ``None`` overall, force a cold solve).
        ssp_backend: Batched-kernel backend name (``"scalar"`` routes
            cold pairs through the per-pair reference path).
        phase_out: Optional dict accumulating batched-kernel per-phase
            seconds.

    Returns:
        One ``(assigned, placed_per_tunnel, warm)`` tuple per pair.
    """
    from .fastssp_batch import fill_pairs_batch, resolve_ssp_backend_name

    num = len(pair_volumes)
    out: list[tuple[np.ndarray, np.ndarray, bool] | None] = [None] * num
    cold: list[int] = []
    for p in range(num):
        prev = prev_assigned[p] if prev_assigned is not None else None
        if prev is not None:
            warm = warm_fill_pair(
                pair_volumes[p],
                pair_allocs[p],
                pair_orders[p],
                prev,
                epsilon,
            )
            if warm is not None:
                out[p] = (warm[0], warm[1], True)
                continue
        cold.append(p)
    if cold:
        if resolve_ssp_backend_name(ssp_backend) == "scalar":
            for p in cold:
                assigned, placed = fill_pair(
                    pair_volumes[p],
                    pair_allocs[p],
                    pair_orders[p],
                    epsilon,
                )
                out[p] = (assigned, placed, False)
        else:
            filled = fill_pairs_batch(
                [pair_volumes[p] for p in cold],
                [pair_allocs[p] for p in cold],
                [pair_orders[p] for p in cold],
                epsilon=epsilon,
                backend=ssp_backend,
                phase_out=phase_out,
            )
            for j, p in enumerate(cold):
                out[p] = (filled[j][0], filled[j][1], False)
    return out  # type: ignore[return-value]
