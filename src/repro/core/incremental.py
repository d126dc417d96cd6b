"""Cross-interval incremental solve state (the interval fast paths).

The control loop re-solves the same topology every TE interval on
demands that drift diurnally — consecutive intervals differ by a small
per-pair delta, not by a new problem.  This module carries state across
:meth:`~repro.core.twostage.MegaTEOptimizer.solve` calls and exploits
that temporal locality twice:

* **Demand-delta fast path** (:func:`patch_class_allocation`): per QoS
  class, diff the new site demands against the previous interval's and,
  when the previous allocation fully satisfied its demands and the
  changed pairs fit within the current link headroom, *patch* the
  allocation — trim decreases off the least-preferred tunnels, place
  increases onto the most-preferred tunnels with headroom — instead of
  re-solving the LP.  Guarded: any violated precondition falls back to
  the full LP, so patched intervals are always feasible.

* **Carried second-stage state** (:func:`warm_fill_pair`): a contended
  site pair's previous flow→tunnel assignment is re-validated against
  the new volumes and allocation (trim each tunnel's keep-prefix to its
  allocation, retry evicted flows largest-first) — skipping FastSSP's
  cluster/DP machinery when the warm fill lands within the FastSSP
  precision target ``(1 − ε')·min(demand, allocation)``.

Equivalence contract: with ``delta_threshold = 0.0`` both fast paths
fire only on *bit-identical* inputs (where the deterministic cold solve
would reproduce the cached result exactly), so the incremental engine
is bit-for-bit equal to the cold path.  With a positive threshold the
engine trades exact LP re-optimization for speed; feasibility is always
preserved, optimality is approximate within the guards above.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import checks
from .fastssp import descending_order
from .types import UNASSIGNED

if TYPE_CHECKING:
    from .siteflow import SiteFlowSolver
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = [
    "ClassLPState",
    "IncrementalConfig",
    "IncrementalState",
    "PatchOutcome",
    "patch_class_allocation",
    "reconcile_leftovers",
    "warm_fill_pair",
]

#: Absolute slack for "demand satisfied" / "fits headroom" comparisons.
_ABS_TOL = 1e-9
#: Floor for relative-delta denominators (pairs appearing from zero
#: demand always exceed any finite threshold).
_REL_FLOOR = 1e-12


@dataclass
class IncrementalConfig:
    """Knobs of the incremental solve engine.

    Attributes:
        delta_threshold: Maximum per-pair relative demand change for
            which the LP may be patched instead of re-solved.  ``0.0``
            restricts reuse to bit-identical inputs (exact); values
            around 1-2 work well under diurnal drift — the link-headroom
            guard, not the threshold, is then the binding check.
        carry_ssp_state: Warm-start contended second-stage pairs from
            the previous interval's assignment (only when
            ``delta_threshold > 0`` — at 0.0 the cold path runs so the
            digest contract holds).
        refresh_every: Force a cold solve every N intervals to
            re-optimize away accumulated patch drift (0 = never).
    """

    delta_threshold: float = 0.0
    carry_ssp_state: bool = True
    refresh_every: int = 0

    def __post_init__(self) -> None:
        checks.nonnegative("delta_threshold", self.delta_threshold)
        checks.nonnegative("refresh_every", self.refresh_every)


@dataclass
class ClassLPState:
    """First-stage state of one QoS class from the previous interval.

    Attributes:
        demands: The ``D_k`` vector the allocation was computed for.
        alloc_flat: The flat ``F_{k,t}`` allocation.
        residual_in: Residual link capacities *entering* the class.
    """

    demands: np.ndarray
    alloc_flat: np.ndarray
    residual_in: np.ndarray


@dataclass
class PatchOutcome:
    """Result of one :func:`patch_class_allocation` attempt.

    Attributes:
        alloc: The patched flat allocation, or ``None`` on fallback.
        pairs_patched: Demand-changed pairs absorbed by the patch.
        reason: Fallback reason when ``alloc`` is ``None`` (one of
            ``"threshold"``, ``"residual_shift"``,
            ``"unsatisfied_previous"``, ``"headroom"``).
    """

    alloc: np.ndarray | None
    pairs_patched: int = 0
    reason: str | None = None


class IncrementalState:
    """Mutable cross-interval state owned by one optimizer instance.

    Valid only while the topology object and the demand matrix's flow
    population (CSR offsets) stay the same; :meth:`revalidate` resets
    the state automatically when either changes, so a replay over a new
    scenario never reuses stale artifacts.
    """

    def __init__(self) -> None:
        self.topology_ref: weakref.ref | None = None
        self.offsets: np.ndarray | None = None
        #: Intervals solved since the state was (re)created.
        self.interval_index = 0
        #: Per-QoS-class first-stage state, keyed by class value.
        self.lp: dict[int, ClassLPState] = {}
        #: Previous flow→tunnel assignment per ``(qos, pair)``.
        self.ssp_assigned: dict[tuple[int, int], np.ndarray] = {}
        #: Previous per-class flow index arrays (population fingerprint).
        self.cls_idx: dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self.topology_ref = None
        self.offsets = None
        self.interval_index = 0
        self.lp.clear()
        self.ssp_assigned.clear()
        self.cls_idx.clear()

    def revalidate(
        self, topology: "TwoLayerTopology", demands: "DemandMatrix"
    ) -> bool:
        """True when carried state is usable against this interval."""
        held = (
            self.topology_ref() if self.topology_ref is not None else None
        )
        table = demands.table
        if (
            held is topology
            and self.offsets is not None
            and np.array_equal(self.offsets, table.offsets)
        ):
            return True
        self.reset()
        self.topology_ref = weakref.ref(topology)
        self.offsets = np.asarray(table.offsets, dtype=np.int64).copy()
        return False

    def sync_class_population(
        self, qos_value: int, cls_idx: np.ndarray
    ) -> bool:
        """Record a class's flow population; True when it is unchanged.

        On a population change the class's carried second-stage
        assignments are dropped — they index flow positions that no
        longer mean the same endpoints.
        """
        prev = self.cls_idx.get(qos_value)
        same = prev is not None and np.array_equal(prev, cls_idx)
        if not same:
            self.cls_idx[qos_value] = cls_idx.copy()
            for key in [k for k in self.ssp_assigned if k[0] == qos_value]:
                del self.ssp_assigned[key]
        return same


def patch_class_allocation(
    solver: "SiteFlowSolver",
    state: ClassLPState,
    new_demands: np.ndarray,
    residual_in: np.ndarray,
    ordered_cols: np.ndarray,
    threshold: float,
) -> PatchOutcome:
    """Patch the previous interval's allocation onto new demands.

    Preconditions checked (any failure → fallback, ``alloc=None``):

    1. every changed pair's relative demand delta is within
       ``threshold`` (at 0.0 only bit-identical inputs are reused —
       then the deterministic LP would reproduce the cached allocation
       exactly, so reuse is bit-for-bit);
    2. the previous allocation fully satisfied the previous demand of
       every changed pair (a capacity-bound pair's allocation is the
       LP's global tradeoff — patch arithmetic does not apply to it);
    3. after trimming, the allocation fits the residual capacities
       entering the class this interval (upstream classes may have
       shifted their placements);
    4. every pair's demand increase fits the link headroom of its
       tunnels, filled in preference order.

    The decrease pass is a vectorized reverse-fill-order position sweep
    (disjoint columns per pair); the increase pass walks changed pairs
    sequentially because tunnels of different pairs share links, and a
    simultaneous placement could jointly overbook one.

    Returns:
        A :class:`PatchOutcome`; when ``alloc`` is set it satisfies
        ``Σ_t F_{k,t} = D_k`` per pair and all capacity constraints.
    """
    delta = new_demands - state.demands
    changed = np.flatnonzero(delta != 0.0)
    if changed.size == 0:
        if np.array_equal(residual_in, state.residual_in):
            # Identical demands *and* identical residuals: the cold LP
            # is deterministic, so its output is the cached allocation.
            return PatchOutcome(state.alloc_flat.copy(), 0, None)
        if threshold <= 0.0:
            return PatchOutcome(None, 0, "residual_shift")
    elif threshold <= 0.0:
        return PatchOutcome(None, 0, "threshold")
    else:
        rel = np.abs(delta[changed]) / np.maximum(
            state.demands[changed], _REL_FLOOR
        )
        if float(rel.max()) > threshold:
            return PatchOutcome(None, 0, "threshold")

    offsets = solver.tunnel_offsets
    seg_len = np.diff(offsets)

    # Patching treats each changed pair's previous allocation total as
    # "its demand was met": shedding |delta| lands exactly on the new
    # demand, placing +delta tops it up.  A capacity-bound pair (the LP
    # left part of its demand unserved) breaks that arithmetic — and
    # its allocation is the LP's global tradeoff, not something to
    # adjust locally — so any such changed pair forces a re-solve.
    for k in changed:
        total = float(
            state.alloc_flat[offsets[k] : offsets[k + 1]].sum()
        )
        if total + _ABS_TOL < float(state.demands[k]):
            return PatchOutcome(None, 0, "unsatisfied_previous")

    alloc = state.alloc_flat.copy()

    # Decrease pass: shed each shrinking pair's |delta| from its least
    # preferred tunnels first, sweeping back-positions vectorized (each
    # column belongs to exactly one pair, so the scatter is disjoint).
    need = np.where(delta < 0.0, -delta, 0.0)
    if need.size and float(need.max()) > _ABS_TOL:
        for back in range(int(seg_len.max())):
            active = np.flatnonzero((need > _ABS_TOL) & (seg_len > back))
            if active.size == 0:
                break
            cols = ordered_cols[
                offsets[active] + seg_len[active] - 1 - back
            ]
            take = np.minimum(alloc[cols], need[active])
            alloc[cols] -= take
            need[active] -= take
        if float(need.max()) > _ABS_TOL:
            # The previous allocation did not cover the previous
            # demand — the LP was capacity-bound; re-optimize.
            return PatchOutcome(None, 0, "unsatisfied_previous")

    # Headroom of every link w.r.t. the residuals entering the class
    # *this* interval (upstream classes may have moved).
    loads = solver.link_tunnel_matrix @ alloc
    headroom = np.maximum(residual_in, 0.0) - loads
    if headroom.size and float(headroom.min()) < -_ABS_TOL:
        return PatchOutcome(None, 0, "residual_shift")
    np.maximum(headroom, 0.0, out=headroom)

    # Increase pass: place each growing pair's delta onto its most
    # preferred tunnels with headroom, consuming headroom as we go.
    inc_rows = solver.incidence_rows
    bounds = solver.incidence_col_bounds
    for k in np.flatnonzero(delta > 0.0):
        need_k = float(delta[k])
        for c in ordered_cols[offsets[k] : offsets[k + 1]]:
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            links = inc_rows[lo:hi]
            room = (
                float(headroom[links].min()) if hi > lo else float("inf")
            )
            add = min(need_k, room)
            if add > 0.0:
                alloc[c] += add
                headroom[links] -= add
                need_k -= add
            if need_k <= _ABS_TOL:
                break
        if need_k > _ABS_TOL:
            return PatchOutcome(None, 0, "headroom")
    return PatchOutcome(alloc, int(changed.size), None)


def reconcile_leftovers(
    volumes: np.ndarray,
    assigned: np.ndarray,
    placed: np.ndarray,
    leftovers: np.ndarray,
    fill_order: np.ndarray,
    order: np.ndarray | None = None,
) -> None:
    """Retry unassigned flows, largest first, against tunnel leftovers.

    The shared tail of both second-stage paths (cold FastSSP fill and
    the warm re-fill): FastSSP may leave slack on several tunnels that
    no single remaining flow fit *at the time*; a final
    first-fit-decreasing pass packs what still fits.  Mutates
    ``assigned``, ``placed`` and ``leftovers`` in place.

    ``order`` is the unassigned flows in ``(-volume, index)`` order when
    the caller already holds it (the cold fill carries it as its sort
    hint); without it the pass sorts them itself.

    A flow larger than every tunnel's leftover changes no state, so the
    descending scan jumps over such runs with a binary search (exactly
    the skip-ahead the greedy kernel uses) — at overloaded
    million-endpoint scale almost every free flow is such a skip.  A
    flow that is not skipped fits the tunnel with the largest leftover,
    so apart from ``NaN`` volumes the scan visits only flows it places.
    """
    if order is None:
        free = np.flatnonzero(assigned == UNASSIGNED)
        if free.size == 0 or not np.any(leftovers > 0):
            return
        order = free[descending_order(volumes[free])]
    elif order.size == 0 or not np.any(leftovers > 0):
        return
    vals = volumes[order]
    neg = -vals  # ascending, for searchsorted
    n = vals.size
    lmax = float(leftovers[fill_order].max()) if fill_order.size else 0.0
    j = 0
    while j < n:
        volume = float(vals[j])
        if volume > lmax:
            j = max(j + 1, int(np.searchsorted(neg, -lmax)))
            continue
        for t_index in fill_order:
            if volume <= leftovers[t_index]:
                assigned[order[j]] = t_index
                placed[t_index] += volume
                leftovers[t_index] -= volume
                lmax = float(leftovers[fill_order].max())
                break
        j += 1


def warm_fill_pair(
    volumes: np.ndarray,
    alloc_k: np.ndarray,
    fill_order: np.ndarray,
    prev_assigned: np.ndarray,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Second-stage warm start from the previous interval's assignment.

    Re-validates the carried flow→tunnel assignment against the new
    volumes and allocation: per tunnel, the flows keep their slots in
    order while the running volume fits the tunnel's allocation, the
    rest are evicted; evicted and previously unassigned flows are then
    retried largest-first against the leftovers (the same reconciliation
    pass the cold path runs).

    Returns:
        ``(assigned, placed_per_tunnel)`` when the warm fill places at
        least ``(1 − ε')·min(Σ volumes, Σ alloc)`` — FastSSP's own
        precision target — else ``None`` (caller runs the cold solve).
    """
    if (
        prev_assigned.size != volumes.size
        or volumes.size == 0
        or alloc_k.size == 0
    ):
        return None
    assigned = prev_assigned.astype(np.int32, copy=True)
    # Entries must index this pair's tunnels; stale state never does,
    # but guard anyway (cheap) so corrupt state degrades to cold.
    if assigned.size and int(assigned.max()) >= alloc_k.size:
        return None
    placed = np.zeros(alloc_k.size, dtype=np.float64)
    for t_index in fill_order:
        members = np.flatnonzero(assigned == t_index)
        if members.size == 0:
            continue
        running = np.cumsum(volumes[members])
        keep = running <= alloc_k[t_index] + _ABS_TOL
        if not keep.all():
            assigned[members[~keep]] = UNASSIGNED
        placed[t_index] = float(running[keep][-1]) if keep.any() else 0.0
    leftovers = alloc_k - placed
    reconcile_leftovers(volumes, assigned, placed, leftovers, fill_order)
    target = min(float(volumes.sum()), float(alloc_k.sum()))
    if float(placed.sum()) + _ABS_TOL < (1.0 - epsilon) * target:
        return None
    return assigned, placed
