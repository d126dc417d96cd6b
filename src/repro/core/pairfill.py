"""The per-site-pair MaxEndpointFlow fill, shared by every dispatch path.

:func:`fill_pair` is one contended site pair's second-stage solve, and
the only fill loop there is — walk the tunnels in fill order, pack
endpoint flows into each tunnel's allocation via FastSSP, then reconcile
leftovers.  The paper's second stage is per site pair by construction
(§4.2: "the MaxEndpointFlow problem with different site pairs can be
solved in parallel"), so nothing here batches across pairs: measured
contended steps hold 1-4 pairs, and every phase of the FastSSP kernel is
per instance anyway.

:func:`fill_pairs` is the optimizer's stage-2 call
(:meth:`MegaTEOptimizer._fill <repro.core.twostage.MegaTEOptimizer>`).
It composes the cold fill with the carried cross-interval warm start
(:func:`repro.core.incremental.warm_fill_pair`) behind one call.

FastSSP comes in two bit-identical implementations
(:mod:`repro.core.fastssp`), named by ``ssp_backend``: ``"numpy"``, the
sorted-row kernel production runs, and ``"scalar"``, the reference the
tests and ``benchmarks/`` compare it against.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry, get_tracer
from .fastssp import descending_order, fast_ssp, fast_ssp_sorted
from .incremental import reconcile_leftovers, warm_fill_pair
from .types import UNASSIGNED

__all__ = [
    "SSP_BACKEND_NAMES",
    "fill_pair",
    "fill_pairs",
    "resolve_ssp_backend_name",
]

#: Valid FastSSP implementation names: the reference and the kernel.
SSP_BACKEND_NAMES = ("scalar", "numpy")


def resolve_ssp_backend_name(requested: str | None = None) -> str:
    """Normalize a FastSSP implementation name; ``None`` is the kernel.

    Unknown names raise ``ValueError``.
    """
    name = (requested or "numpy").strip().lower()
    if name not in SSP_BACKEND_NAMES:
        raise ValueError(
            f"unknown SSP backend {name!r}; "
            f"expected one of {SSP_BACKEND_NAMES}"
        )
    return name


def fill_pair(
    volumes: np.ndarray,
    alloc_k: np.ndarray,
    fill_order: np.ndarray,
    epsilon: float,
    ssp_backend: str | None = None,
    phase_out: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """MaxEndpointFlow for one site pair and class.

    Tunnels are processed in ascending order of the class's preferred
    attribute — latency for classes 1-2, cost for class 3 — so the most
    preferred tunnel's allocation is filled first (App. A.2's sequential
    dependency) and each subsequent tunnel chooses among the still
    unassigned flows.

    ``ssp_backend="scalar"`` solves every tunnel with the reference
    :func:`~repro.core.fastssp.fast_ssp`, anything else with the kernel
    (same bits), whose per-phase seconds accumulate into ``phase_out``
    (keys :data:`~repro.core.fastssp.SSP_PHASE_KEYS`).

    Returns:
        ``(assigned, placed_per_tunnel)``: int32 tunnel index per flow
        (:data:`UNASSIGNED` = rejected) and float64 volume placed per
        tunnel of the pair.
    """
    backend = resolve_ssp_backend_name(ssp_backend)
    assigned = np.full(volumes.size, UNASSIGNED, dtype=np.int32)
    placed = np.zeros(alloc_k.size, dtype=np.float64)
    if volumes.size == 0 or alloc_k.size == 0:
        return assigned, placed
    # Shrinking free-index array: each tunnel removes what it selected
    # instead of rescanning every flow's assignment per tunnel.
    free = np.arange(volumes.size, dtype=np.int64)
    # The free demands' descending order is capacity-independent and
    # only loses members as tunnels assign them, so the pair is sorted
    # once — on its first contended tunnel, judged by the same pairwise
    # total the kernel's own triage compares — and the order is carried
    # as the kernel's hint from then on: positions into ``free``, in
    # ``(-volume, index)`` order, remapped through each tunnel's removal
    # mask.
    hint: np.ndarray | None = None
    steps = contended = 0
    for t_index in fill_order:
        capacity = float(alloc_k[t_index])
        if capacity <= 0:
            continue
        if free.size == 0:
            break
        seg = volumes[free]
        if backend == "scalar":
            result = fast_ssp(seg, capacity, epsilon=epsilon)
        else:
            if hint is None and seg.sum() > capacity:
                hint = descending_order(seg)
            result = fast_ssp_sorted(
                seg, capacity, epsilon, order=hint, phase_out=phase_out
            )
        sel = result.selected_array
        steps += 1
        # Only a contended instance clusters or leaves a demand out.
        contended += result.num_clusters > 0 or sel.size < seg.size
        assigned[free[sel]] = t_index
        placed[t_index] = result.total
        if sel.size:
            keep = np.ones(free.size, dtype=bool)
            keep[sel] = False
            free = free[keep]
            if hint is not None:
                # Surviving hint entries keep their relative
                # (descending) order; removals shift positions down by
                # the number removed before them.
                hint = (np.cumsum(keep) - 1)[hint[keep[hint]]]
    # Reconciliation pass: FastSSP may leave slack on several tunnels
    # that no single remaining flow fit at the time; retry the largest
    # leftover flows against each tunnel's remaining allocation.  The
    # carried hint already orders exactly the unassigned flows.
    leftovers = alloc_k - placed
    reconcile_leftovers(
        volumes,
        assigned,
        placed,
        leftovers,
        fill_order,
        order=free[hint] if hint is not None else None,
    )

    registry = get_registry()
    if registry.enabled:
        instances = registry.counter(
            "megate_ssp_batch_instances_total",
            "FastSSP instances solved by the cold fill, by triage",
            labelnames=("backend", "kind"),
        )
        instances.labels(backend=backend, kind="contended").inc(contended)
        instances.labels(backend=backend, kind="fast_path").inc(
            steps - contended
        )
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
    """Fill many site pairs: a warm start where it holds, else cold.

    Every pair whose carried assignment passes the warm gate
    (:func:`~repro.core.incremental.warm_fill_pair`) reuses it; the
    remaining cold pairs run :func:`fill_pair` one by one.

    Args:
        pair_volumes / pair_allocs / pair_orders: Per-pair ``fill_pair``
            arguments, in pair order.
        epsilon: FastSSP precision knob.
        prev_assigned: Optional carried assignment per pair (``None``
            entries, or ``None`` overall, force a cold solve).
        ssp_backend: FastSSP implementation of the cold fills (see
            :func:`fill_pair`).
        phase_out: Optional dict accumulating the kernel's per-phase
            seconds.

    Returns:
        One ``(assigned, placed_per_tunnel, warm)`` tuple per pair.
    """
    backend = resolve_ssp_backend_name(ssp_backend)
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
    if not cold:
        return out  # type: ignore[return-value]

    phase: dict[str, float] = {}
    with get_tracer().span(
        "te.phase.ssp_batch", backend=backend, pairs=len(cold)
    ):
        for p in cold:
            assigned, placed = fill_pair(
                pair_volumes[p],
                pair_allocs[p],
                pair_orders[p],
                epsilon,
                ssp_backend=backend,
                phase_out=phase,
            )
            out[p] = (assigned, placed, False)
    if phase_out is not None:
        for name, seconds in phase.items():
            phase_out[name] = phase_out.get(name, 0.0) + seconds
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "megate_ssp_batch_pairs_total",
            "Site pairs filled cold through FastSSP",
            labelnames=("backend",),
        ).labels(backend=backend).inc(len(cold))
        hist = registry.histogram(
            "megate_ssp_batch_phase_seconds",
            "FastSSP kernel phase durations per fill",
            labelnames=("backend", "phase"),
        )
        for name, seconds in phase.items():
            hist.labels(backend=backend, phase=name).observe(seconds)
    return out  # type: ignore[return-value]
