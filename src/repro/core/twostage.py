"""The MegaTE two-stage optimizer (paper Algorithm 1 + §4.1 QoS loop).

Per QoS class, in priority order, :meth:`MegaTEOptimizer.solve` runs six
named steps over one columnar interval context (:class:`_Interval`);
each step owns its ``te.phase.*`` span and its ``stats["phase_s"]`` key,
so the phases account for the solve by construction:

1. **merge** (``site_merge``) — SiteMerge: one mask over the flat qos
   column gives the class's flow indices, ``searchsorted`` against the
   CSR offsets recovers each pair's segment, and one segmented sum
   (:func:`~repro.core.flowtable.segment_sums`, bit-identical to each
   pair's ``.sum()``) gives every ``D_k``.
2. **allocate** (``lp_solve`` | ``delta_patch``) — MaxSiteFlow: the
   site-level LP over residual link capacities, yielding ``F_{k,t}``;
   in incremental mode the previous interval's allocation is patched
   under a demand-delta/headroom guard instead when it can be
   (:mod:`repro.core.incremental`).  The per-topology
   :class:`SiteFlowSolver` builds its constraint matrices once; the
   optimizer hands it the class's link prices from its previous solve
   as a hint and keeps the new ones (hint in, prices out — the solver
   itself carries nothing between calls).
3. **triage** (``triage``) — a pair whose class demand fits entirely
   into its most-preferred positive allocation — the overwhelming
   majority in production — needs no FastSSP; the rest are *contended*.
   ``second_stage="serial"``, the reference, passes every pair through.
4. **fill** (``contended_ssp``) — MaxEndpointFlow for the contended
   pairs, in-process through :func:`repro.core.pairfill.fill_pairs`
   (pair volumes, allocations, fill orders, carried assignments →
   ``(assigned, placed, warm)`` per pair): one
   :func:`~repro.core.pairfill.fill_pair` per pair, each tunnel one
   FastSSP instance.  A flow lands on exactly one tunnel or is
   rejected.
5. **scatter** (``scatter``) — write both kinds of pair into the flat
   assignment / allocation vectors and carry the incremental state.
6. **residual** (``residual_update``) — subtract the class's placed
   traffic from link capacities through the precomputed link-tunnel
   incidence in one ``np.subtract.at`` call — entry order matches the
   per-tunnel bookkeeping it replaces, so the update is bit-identical.

Every path (``"batched"`` with the FastSSP kernel or — under
``ssp_backend="scalar"`` — its reference, the reference ``"serial"``
stage, incremental at ``delta_threshold=0.0``) produces the identical
assignment (digest-pinned and property-tested).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .. import checks
from ..obs import get_registry, get_tracer, monotonic
from .flowtable import segment_sums
from .formulation import MaxAllFlowProblem
from .incremental import (
    ClassLPState,
    IncrementalConfig,
    IncrementalState,
    patch_class_allocation,
)
from .pairfill import fill_pairs, resolve_ssp_backend_name
from .qos import PRIORITY_ORDER, QoSClass
from .siteflow import LinkPrices, SiteFlowSolver
from .types import (
    PHASE_KEYS,
    UNASSIGNED,
    FlowAssignment,
    SiteAllocation,
    StatKey,
    TEResult,
)

if TYPE_CHECKING:  # imported lazily to avoid a core <-> traffic cycle
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix
    from .flowtable import FlowTable

__all__ = ["MegaTEOptimizer", "PHASE_KEYS"]

_SPAN_PREFIX = "te.phase."

#: The per-interval counters of ``TEResult.stats``.
_COUNT_KEYS = (
    StatKey.NUM_UNCONTENDED_PAIRS,
    StatKey.NUM_CONTENDED_PAIRS,
    StatKey.LP_WARM_START,
    StatKey.LP_SOLVES,
    StatKey.LP_SOLVES_SKIPPED,
    StatKey.PAIRS_DELTA_PATCHED,
    StatKey.SSP_STATE_REUSED,
)


@contextmanager
def _timed(phase: dict[str, float], key: str, **attributes) -> Iterator:
    """Run one step under its ``te.phase.<key>`` span.

    The span's duration is booked under the phase the span is named for
    *on exit* — the allocate step renames its span once it knows whether
    the LP or the delta patch ran — so the trace and ``phase_s`` can
    never disagree.
    """
    with get_tracer().span(_SPAN_PREFIX + key, **attributes) as sp:
        yield sp
    phase[sp.name.removeprefix(_SPAN_PREFIX)] += sp.duration_s


@dataclass
class _Interval:
    """Columnar state of one solve, shared by every step.

    The demand table's flat columns are read-only; the steps write
    ``residual``, the flat ``assignment`` / ``combined`` allocation
    vectors, the ``phase`` seconds and the ``counts`` (keyed by the
    :class:`StatKey` each is reported under).  ``warm_fill`` says
    whether carried second-stage assignments may warm-start the fill.
    """

    solver: SiteFlowSolver
    table: "FlowTable"
    lp_epsilon: float
    residual: np.ndarray
    assignment: FlowAssignment
    combined: SiteAllocation
    ssp_backend: str
    state: IncrementalState | None
    carried: bool
    warm_fill: bool
    phase: dict[str, float]
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_COUNT_KEYS, 0)
    )
    ssp_batch_phase: dict[str, float] = field(default_factory=dict)
    satisfied: float = 0.0
    satisfied_by_class: dict[int, float] = field(default_factory=dict)
    stage1: dict[int, dict] = field(default_factory=dict)


@dataclass
class _ClassStep:
    """One QoS class's columns; each step adds the fields the next reads.

    ``idx`` are the class's global flow indices, ``vol`` their volumes
    (gathered once — triage, the fill and the scatter all slice it),
    and ``seg[k]:seg[k + 1]`` pair ``k``'s segment of both.
    """

    qos: QoSClass
    idx: np.ndarray
    vol: np.ndarray
    seg: np.ndarray
    demands: np.ndarray
    # allocate
    orders: list[np.ndarray] = field(init=False)
    ordered_cols: np.ndarray = field(init=False)
    alloc_flat: np.ndarray = field(init=False)
    site_alloc: SiteAllocation = field(init=False)
    residual_in: np.ndarray | None = field(init=False)
    population_same: bool = field(init=False)
    # triage: pair indices, ascending
    first_cols: np.ndarray = field(init=False)
    fits: np.ndarray = field(init=False)
    contended: np.ndarray = field(init=False)
    # fill: one (assigned, placed, warm) per contended pair
    filled: list[tuple[np.ndarray, np.ndarray, bool]] = field(init=False)
    # scatter
    placed_flat: np.ndarray = field(init=False)


def _first_positive_columns(
    alloc_flat: np.ndarray,
    ordered_cols: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Per pair, the flat column of its first positive-allocation tunnel.

    "First" is in fill order (``ordered_cols`` lists each pair's flat
    variable indices in that order).  Returns -1 for pairs whose tunnels
    all received a zero allocation (or that have no tunnels).  One
    vectorized pass: a masked position array reduced per pair segment.
    """
    num_pairs = offsets.size - 1
    num_vars = alloc_flat.size
    first_cols = np.full(num_pairs, -1, dtype=np.int64)
    if num_vars == 0 or num_pairs == 0:
        return first_cols
    alloc_ordered = alloc_flat[ordered_cols]
    ordered_pos = np.where(
        alloc_ordered > 0.0, np.arange(num_vars), num_vars
    )
    # reduceat over the non-empty pairs only: their offsets are strictly
    # increasing and in range, and because empty pairs span no positions
    # each segment covers exactly one pair's tunnels.  (Clamping all
    # starts instead would truncate the last non-empty pair's segment
    # when trailing pairs — e.g. all-tunnels-dead pairs from a failure
    # scenario — are empty.)  Empty pairs keep the sentinel.
    nonempty = np.flatnonzero(np.diff(offsets) > 0)
    first = np.full(num_pairs, num_vars, dtype=np.int64)
    if nonempty.size:
        first[nonempty] = np.minimum.reduceat(
            ordered_pos, offsets[nonempty]
        )
    found = first < num_vars
    first_cols[found] = ordered_cols[first[found]]
    return first_cols


class MegaTEOptimizer:
    """Endpoint-granular TE via topology contraction and FastSSP.

    Args:
        fastssp_epsilon: Precision knob ``ε'`` of FastSSP (App. A.2).
        objective_epsilon: The ``ε`` of objective (1); ``None`` auto-scales.
        qos_order: Priority order of QoS classes; defaults to the paper's
            class 1 → 2 → 3.
        class_tunnel_attribute: Tunnel attribute each class's allocation
            prefers (the ``w_t`` of its MaxSiteFlow objective and the fill
            order of its MaxEndpointFlow stage).  Defaults to latency
            (``weight``) for classes 1-2 and per-Gbps cost for class 3 —
            §7's production policy: time-sensitive traffic takes the fast
            premium paths, bulk transfer is "accurately dispatched to the
            low-cost path".
        second_stage: ``"batched"`` (default) triages uncontended site
            pairs vectorized and runs FastSSP only on the contended
            residue; ``"serial"`` is the reference — the same pipeline
            with every pair passed to the scalar fill.  Both produce
            identical assignments (property-tested).
        incremental: Carry solve state across consecutive
            :meth:`solve` calls on the same topology and flow
            population (the TE interval loop) — see
            :mod:`repro.core.incremental`.  ``True`` builds an
            :class:`~repro.core.incremental.IncrementalConfig` from the
            three knobs below; an ``IncrementalConfig`` instance is
            used as-is; ``False`` (default) solves every interval cold.
        delta_threshold: Per-pair relative demand-change bound for the
            LP delta fast path (``0.0`` = bit-exact reuse only, so the
            incremental run reproduces the cold digests exactly).
        carry_ssp_state: Warm-start contended second-stage pairs from
            the previous interval's assignment (batched mode, threshold
            > 0 only).
        refresh_every: Force a cold re-solve every N intervals (0 =
            never) to re-optimize away accumulated patch drift.
        lp_backend: Accepted for existing callers only: ``None`` or
            ``"scipy"``, the one LP path there is.
        shard_workers: Accepted for existing callers only: ``None`` or
            ``0``; stage 2 always runs in-process.
        ssp_backend: FastSSP implementation of the contended second
            stage (:mod:`repro.core.fastssp`): ``"numpy"`` (the default,
            also ``None``) is the sorted-row kernel and ``"scalar"`` the
            reference the tests and benchmarks compare it against.
            Both are bit-identical (property-tested); only the batched
            second stage runs the kernel — ``second_stage="serial"``
            always runs the reference.

    Explicitly passed ``lp_backend`` / ``ssp_backend`` / ``shard_workers``
    values are validated at construction (``ValueError``).
    """

    scheme_name = "MegaTE"

    #: Default per-class tunnel preference (see class docstring).
    DEFAULT_CLASS_ATTRIBUTE: dict[QoSClass, str] = {
        QoSClass.CLASS1: "weight",
        QoSClass.CLASS2: "weight",
        QoSClass.CLASS3: "cost_per_gbps",
    }

    def __init__(
        self,
        fastssp_epsilon: float = 0.1,
        objective_epsilon: float | None = None,
        qos_order: tuple[QoSClass, ...] = PRIORITY_ORDER,
        class_tunnel_attribute: dict[QoSClass, str] | None = None,
        second_stage: str = "batched",
        incremental: bool | IncrementalConfig = False,
        delta_threshold: float = 0.0,
        carry_ssp_state: bool = True,
        refresh_every: int = 0,
        lp_backend: str | None = None,
        shard_workers: int | None = None,
        ssp_backend: str | None = None,
    ) -> None:
        checks.in_range("fastssp_epsilon", fastssp_epsilon, 0, 1, "()")
        if second_stage not in ("batched", "serial"):
            raise ValueError(
                "second_stage must be 'batched' or 'serial'"
            )
        for name, value, kept in (
            ("lp_backend", lp_backend, "scipy"),
            ("shard_workers", shard_workers, 0),
        ):
            if value not in (None, kept):
                raise ValueError(
                    f"{name}={value!r} was removed: stage 1 has one LP "
                    "path and stage 2 runs in-process; pass None or "
                    f"{kept!r}"
                )
        self.fastssp_epsilon = fastssp_epsilon
        self.objective_epsilon = objective_epsilon
        self.qos_order = qos_order
        self.class_tunnel_attribute = dict(
            self.DEFAULT_CLASS_ATTRIBUTE
            if class_tunnel_attribute is None
            else class_tunnel_attribute
        )
        self.second_stage = second_stage
        if isinstance(incremental, IncrementalConfig):
            self.incremental: IncrementalConfig | None = incremental
        elif incremental:
            self.incremental = IncrementalConfig(
                delta_threshold=delta_threshold,
                carry_ssp_state=carry_ssp_state,
                refresh_every=refresh_every,
            )
        else:
            self.incremental = None
        self.ssp_backend = resolve_ssp_backend_name(ssp_backend)
        self._state: IncrementalState | None = None
        #: Stage-1 link prices carried to the next solve: per topology's
        #: solver (weakly — a dead topology's prices go with it), per
        #: class.  This optimizer's own, never the shared solver's.
        self._prices: weakref.WeakKeyDictionary[
            SiteFlowSolver, dict[int, LinkPrices]
        ] = weakref.WeakKeyDictionary()

    def reset_incremental_state(self) -> None:
        """Drop carried cross-interval state (next solve runs cold)."""
        self._state = None
        self._prices.clear()

    def solve(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        """Compute the TE allocation for one interval.

        The whole solve runs under a ``te.solve`` span with one child
        span per phase (``te.phase.*``) — the same measurements that
        populate ``stats["phase_s"]``, so the trace and the stats dict
        can never disagree.  Telemetry never affects the result: the
        assignment is bit-identical with tracing on or off.

        Returns:
            A :class:`TEResult` whose assignment satisfies constraints
            (1a)-(1c): no link overloaded, at most one tunnel per flow.
            ``stats["phase_s"]`` breaks the runtime down by phase (see
            :data:`PHASE_KEYS`).
        """
        with get_tracer().span(
            "te.solve", scheme=self.scheme_name
        ) as span:
            result = self._solve_impl(topology, demands)
            span.set_attribute("num_flows", result.assignment.num_flows())
            # The volume, not the fraction: the offered total is an
            # O(pairs) Python sum — ≈ 10 ms at 9 900 pairs that no phase
            # would own.
            span.set_attribute("satisfied_volume", result.satisfied_volume)
        self._record_metrics(result)
        return result

    def _record_metrics(self, result: TEResult) -> None:
        """Fold one solve's diagnostics into the shared metrics registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        stats = result.stats
        registry.counter(
            "megate_solves_total", "TE interval solves completed"
        ).inc()
        pair_kinds = registry.counter(
            "megate_pairs_total",
            "Second-stage site pairs by triage outcome",
            labelnames=("kind",),
        )
        pair_kinds.labels(kind="uncontended").inc(
            stats[StatKey.NUM_UNCONTENDED_PAIRS]
        )
        pair_kinds.labels(kind="contended").inc(
            stats[StatKey.NUM_CONTENDED_PAIRS]
        )
        lp = registry.counter(
            "megate_lp_solves_total",
            "Stage-1 LP solves by outcome",
            labelnames=("outcome",),
        )
        lp.labels(outcome="solved").inc(stats[StatKey.LP_SOLVES])
        lp.labels(outcome="skipped").inc(stats[StatKey.LP_SOLVES_SKIPPED])
        lp.labels(outcome="warm_start").inc(stats[StatKey.LP_WARM_START])
        guided = registry.counter(
            "megate_lp_guided_total",
            "Stage-1 class-solves by price-guided outcome",
            labelnames=("outcome",),
        )
        for record in stats[StatKey.STAGE1].values():
            guided.labels(outcome=record["outcome"]).inc()
        reuse = registry.counter(
            "megate_incremental_reuse_total",
            "Incremental-engine fast paths taken",
            labelnames=("path",),
        )
        reuse.labels(path="delta_patch").inc(
            stats[StatKey.PAIRS_DELTA_PATCHED]
        )
        reuse.labels(path="ssp_state").inc(stats[StatKey.SSP_STATE_REUSED])
        phase_hist = registry.histogram(
            "megate_phase_seconds",
            "Per-interval solver phase durations",
            labelnames=("phase",),
        )
        for name, seconds in stats[StatKey.PHASE_S].items():
            phase_hist.labels(phase=name).observe(seconds)
        registry.histogram(
            "megate_solve_seconds", "Whole-interval solve duration"
        ).observe(result.runtime_s)
        registry.gauge(
            "megate_satisfied_fraction",
            "Satisfied demand fraction of the latest solve",
        ).set(result.satisfied_fraction)

    def _solve_impl(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        start = monotonic()
        iv = self._begin(topology, demands)
        for qos in self.qos_order:
            cls = self._merge(iv, qos)
            if cls is None:
                continue
            self._allocate(iv, cls)
            self._triage(iv, cls)
            self._fill(iv, cls)
            self._scatter(iv, cls)
            self._residual(iv, cls)
        return self._finish(iv, demands, start)

    def _begin(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> _Interval:
        """Set-up: per-topology matrices, then the interval context."""
        phase = dict.fromkeys(PHASE_KEYS, 0.0)
        with _timed(phase, StatKey.PHASE_MATRIX_BUILD):
            problem = MaxAllFlowProblem(
                topology, demands, epsilon=self.objective_epsilon
            )
            solver = SiteFlowSolver.for_topology(topology)
            if demands.num_site_pairs != solver.num_pairs:
                raise ValueError(
                    f"demand matrix has {demands.num_site_pairs} site "
                    f"pairs, catalog has {solver.num_pairs}"
                )
            # Incremental mode: revalidate the carried state against
            # this interval's topology and flow population; a mismatch
            # (or a scheduled refresh) solves cold and re-seeds it.
            inc = self.incremental
            state: IncrementalState | None = None
            carried = False
            if inc is not None:
                if self._state is None:
                    self._state = IncrementalState()
                state = self._state
                carried = state.revalidate(topology, demands) and not (
                    inc.refresh_every > 0
                    and state.interval_index % inc.refresh_every == 0
                )
            # Only the batched stage runs the FastSSP kernel or
            # warm-starts; the serial reference always fills scalar, cold.
            batched = self.second_stage == "batched"
            return _Interval(
                solver=solver,
                table=demands.table,
                lp_epsilon=problem.effective_epsilon,
                residual=problem.capacities.astype(np.float64).copy(),
                assignment=FlowAssignment.rejecting_all(demands),
                combined=SiteAllocation.from_flat(
                    np.zeros(solver.num_tunnel_vars, dtype=np.float64),
                    solver.tunnel_offsets,
                ),
                ssp_backend=self.ssp_backend if batched else "scalar",
                state=state,
                carried=carried,
                # Carried second-stage state is disabled at threshold 0
                # to keep the bit-exactness contract.
                warm_fill=(
                    carried
                    and batched
                    and inc.carry_ssp_state
                    and inc.delta_threshold > 0.0
                ),
                phase=phase,
            )

    def _merge(self, iv: _Interval, qos: QoSClass) -> _ClassStep | None:
        """SiteMerge; ``None`` when the class offers no demand."""
        with _timed(iv.phase, StatKey.PHASE_SITE_MERGE, qos=qos.value):
            table = iv.table
            idx = np.flatnonzero(table.qos == qos.value)
            vol = table.volumes[idx]
            seg = np.searchsorted(idx, table.offsets)
            # Not one reduceat: each D_k is bit-identical to the legacy
            # per-pair ``volumes.sum()`` feeding the LP.
            demands = segment_sums(vol, seg)
            if not np.any(demands > 0):
                return None
            return _ClassStep(qos, idx, vol, seg, demands)

    def _allocate(self, iv: _Interval, cls: _ClassStep) -> None:
        """MaxSiteFlow: patch the carried allocation, else solve the LP."""
        solver, state, qos = iv.solver, iv.state, cls.qos
        with _timed(iv.phase, StatKey.PHASE_LP_SOLVE, qos=qos.value) as sp:
            attribute = self.class_tunnel_attribute.get(qos, "weight")
            # Overridden weights (e.g. cost for bulk) get a stronger
            # ε so the LP actively steers toward preferred tunnels;
            # throughput still dominates (coefficients stay >= 0.7).
            if attribute == "weight":
                class_weights = None
                class_epsilon: float | None = iv.lp_epsilon
            else:
                class_weights = solver.tunnel_attribute(attribute)
                class_epsilon = None
                if class_weights.size:
                    max_w = float(class_weights.max())
                    class_epsilon = 0.3 / max_w if max_w > 0 else 0.0
            cls.orders, cls.ordered_cols = solver.fill_orders(attribute)
            cls.population_same = (
                state.sync_class_population(qos.value, cls.idx)
                if state is not None
                else False
            )
            cls.residual_in = (
                iv.residual.copy() if state is not None else None
            )
            alloc_flat = None
            prev = state.lp.get(qos.value) if iv.carried else None
            if prev is not None:
                patch = patch_class_allocation(
                    solver,
                    prev,
                    cls.demands,
                    iv.residual,
                    cls.ordered_cols,
                    self.incremental.delta_threshold,
                )
                if patch.alloc is not None:
                    alloc_flat = patch.alloc
                    iv.counts[StatKey.LP_SOLVES_SKIPPED] += 1
                    iv.counts[StatKey.PAIRS_DELTA_PATCHED] += (
                        patch.pairs_patched
                    )
                    sp.name = _SPAN_PREFIX + StatKey.PHASE_DELTA_PATCH
            if alloc_flat is None:
                # The class's link prices from this optimizer's previous
                # solve on this solver are the hint; the new ones replace
                # them.
                prices = self._prices.setdefault(solver, {})
                solved = solver.solve_priced(
                    cls.demands,
                    capacities=iv.residual,
                    tunnel_weights=class_weights,
                    epsilon=class_epsilon,
                    hint=prices.get(qos.value),
                )
                prices[qos.value] = solved.prices
                alloc_flat = solved.x
                iv.counts[StatKey.LP_SOLVES] += 1
                iv.counts[StatKey.LP_WARM_START] += solved.warm_start
                iv.stage1[qos.value] = {
                    "outcome": solved.outcome,
                    "pairs_fixed": solved.pairs_fixed,
                    "pairs_free": solved.pairs_free,
                    "pairs_moved": solved.pairs_moved,
                    "rounds": solved.rounds,
                }
            cls.alloc_flat = alloc_flat
            cls.site_alloc = solver.split(alloc_flat)

    def _triage(self, iv: _Interval, cls: _ClassStep) -> None:
        """Split the pairs into ``fits`` (no FastSSP) and ``contended``."""
        with _timed(iv.phase, StatKey.PHASE_TRIAGE, qos=cls.qos.value):
            if self.second_stage == "serial":
                # The reference stage: every pair takes the full fill.
                cls.fits = np.empty(0, dtype=np.int64)
                cls.contended = np.arange(iv.solver.num_pairs)
                return
            # A pair whose whole class demand fits its first
            # positive-allocation tunnel needs no FastSSP.  Candidates
            # (non-empty class segment, some positive allocation) and
            # the split come straight from the CSR segment bounds and
            # the SiteMerge sums — one vectorized comparison, and
            # bit-identical to summing per pair.
            seg = cls.seg
            cls.first_cols = _first_positive_columns(
                cls.alloc_flat, cls.ordered_cols, iv.solver.tunnel_offsets
            )
            candidates = np.flatnonzero(
                (seg[1:] > seg[:-1]) & (cls.first_cols >= 0)
            )
            fits = (
                cls.demands[candidates]
                <= cls.alloc_flat[cls.first_cols[candidates]]
            )
            cls.fits = candidates[fits]
            cls.contended = candidates[~fits]

    def _fill(self, iv: _Interval, cls: _ClassStep) -> None:
        """MaxEndpointFlow for the contended pairs.

        Tunnels are processed in ascending order of the class's
        preferred attribute — latency for classes 1-2, cost for class 3
        — so the most preferred tunnel's allocation is filled first
        (App. A.2's sequential dependency) and each subsequent tunnel
        chooses among the still-unassigned flows.
        """
        qos, seg, state = cls.qos, cls.seg, iv.state
        with _timed(
            iv.phase, StatKey.PHASE_CONTENDED_SSP, qos=qos.value
        ) as sp:
            ks = cls.contended.tolist()
            # Carried second-stage state: a pair whose previous
            # assignment, re-validated against the new volumes and
            # allocation, lands within the FastSSP precision target
            # skips the cold solve.  Only sound when the class's flow
            # population is unchanged (the assignment indexes flow
            # positions).
            prev = None
            if iv.warm_fill and cls.population_same:
                prev = [state.ssp_assigned.get((qos.value, k)) for k in ks]
            cls.filled = fill_pairs(
                [cls.vol[seg[k] : seg[k + 1]] for k in ks],
                [cls.site_alloc.per_pair[k] for k in ks],
                [cls.orders[k] for k in ks],
                self.fastssp_epsilon,
                prev_assigned=prev,
                ssp_backend=iv.ssp_backend,
                phase_out=iv.ssp_batch_phase,
            )
            sp.set_attribute("num_pairs", len(ks))
            iv.counts[StatKey.NUM_CONTENDED_PAIRS] += len(ks)
            iv.counts[StatKey.SSP_STATE_REUSED] += sum(
                warm for _, _, warm in cls.filled
            )

    def _scatter(self, iv: _Interval, cls: _ClassStep) -> None:
        """Write the class's pairs into the flat result vectors."""
        qos, seg = cls.qos, cls.seg
        with _timed(iv.phase, StatKey.PHASE_SCATTER, qos=qos.value):
            offsets = iv.solver.tunnel_offsets
            assigned_flat = iv.assignment.assigned_tunnel
            combined = iv.combined.values
            placed_flat = np.zeros(iv.solver.num_tunnel_vars)
            # Uncontended pairs: everything rides the preferred tunnel.
            # Each pair owns its column and each flow one class, so every
            # target is written once (the other pairs' flows are written
            # the UNASSIGNED they hold) and the array forms are exact.
            fits = cls.fits  # empty (and no first_cols) when serial
            cols = cls.first_cols[fits] if fits.size else fits
            totals = cls.demands[fits]
            tunnel_of = np.full(
                iv.solver.num_pairs, UNASSIGNED, dtype=assigned_flat.dtype
            )
            tunnel_of[fits] = cols - offsets[fits]
            assigned_flat[cls.idx] = np.repeat(tunnel_of, np.diff(seg))
            combined[cols] += totals
            placed_flat[cols] = totals
            contrib: dict[int, float] = dict(
                zip(fits.tolist(), totals.tolist())
            )
            contended = cls.contended.tolist()
            for k, (assigned, placed, _) in zip(contended, cls.filled):
                lo, hi = seg[k], seg[k + 1]
                mask = assigned >= 0
                assigned_flat[cls.idx[lo:hi][mask]] = assigned[mask]
                contrib[k] = float(cls.vol[lo:hi][mask].sum())
                combined[offsets[k] : offsets[k + 1]] += placed
                placed_flat[offsets[k] : offsets[k + 1]] = placed
            cls.placed_flat = placed_flat
            if iv.state is not None:
                iv.state.lp[qos.value] = ClassLPState(
                    demands=cls.demands,
                    alloc_flat=cls.alloc_flat.copy(),
                    residual_in=cls.residual_in,
                )
                for k, (assigned, _, _) in zip(contended, cls.filled):
                    iv.state.ssp_assigned[(qos.value, k)] = assigned
            # Accumulate in pair order so the float sum matches the
            # reference loop bit for bit.
            satisfied = 0.0
            for k in sorted(contrib):
                satisfied += contrib[k]
            iv.satisfied += satisfied
            iv.satisfied_by_class[qos.value] = satisfied
            iv.counts[StatKey.NUM_UNCONTENDED_PAIRS] += int(cls.fits.size)

    def _residual(self, iv: _Interval, cls: _ClassStep) -> None:
        """Consume residual capacity on the links each tunnel uses.

        One unbuffered scatter-subtract through the precomputed
        incidence, applied in the same entry order as per-tunnel
        bookkeeping (hence bit-identical to it).
        """
        solver = iv.solver
        with _timed(
            iv.phase, StatKey.PHASE_RESIDUAL_UPDATE, qos=cls.qos.value
        ):
            np.subtract.at(
                iv.residual,
                solver.incidence_rows,
                cls.placed_flat[solver.incidence_cols],
            )
            np.maximum(iv.residual, 0.0, out=iv.residual)

    def _finish(
        self, iv: _Interval, demands: DemandMatrix, start: float
    ) -> TEResult:
        if iv.state is not None:
            iv.state.interval_index += 1
        phase = iv.phase
        return TEResult(
            scheme=self.scheme_name,
            assignment=iv.assignment,
            demands=demands,
            satisfied_volume=iv.satisfied,
            runtime_s=monotonic() - start,
            site_allocation=iv.combined,
            stats={
                **iv.counts,
                StatKey.STAGE1_LP_S: (
                    phase[StatKey.PHASE_LP_SOLVE]
                    + phase[StatKey.PHASE_DELTA_PATCH]
                ),
                StatKey.STAGE2_SSP_S: (
                    phase[StatKey.PHASE_TRIAGE]
                    + phase[StatKey.PHASE_CONTENDED_SSP]
                ),
                StatKey.FASTSSP_EPSILON: self.fastssp_epsilon,
                StatKey.SATISFIED_BY_CLASS: iv.satisfied_by_class,
                StatKey.STAGE1: iv.stage1,
                StatKey.PHASE_S: phase,
                StatKey.SECOND_STAGE: self.second_stage,
                # Constants kept for readers of the stats dict that
                # predate the single LP and in-process stage-2 path.
                StatKey.BACKEND: "scipy",
                StatKey.INCREMENTAL: self.incremental is not None,
                StatKey.SHARD_WORKERS: 0,
                StatKey.SSP_BACKEND: iv.ssp_backend,
                StatKey.SSP_BATCH_PHASE_S: iv.ssp_batch_phase,
            },
        )
