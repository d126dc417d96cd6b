"""MaxSiteFlow: the first-stage, site-level LP (paper Eq. 2).

After ``SiteMerge`` aggregates endpoint demands into per-site-pair demands
``D_k``, the first stage solves a classic multi-commodity flow LP over the
pre-established tunnels:

    max  Σ F_{k,t} − ε Σ w_t F_{k,t}
    s.t. Σ_t F_{k,t} ≤ D_k              (demand)
         Σ_{k,t} F_{k,t} L(t,e) ≤ c_e   (capacity)
         F_{k,t} ≥ 0

Solved with HiGHS (:func:`repro.core.lp_backend.solve_lp`) on sparse
matrices — the role Gurobi plays in the paper.

The LP's *structure* — variable offsets, the link-tunnel incidence, the
stacked constraint matrix — depends only on the topology, not on the
demands or residual capacities of a particular call.  The control loop
re-solves the same topology once per QoS class per TE interval, so
:class:`SiteFlowSolver` builds that scaffolding exactly once per topology
and reuses it across classes and intervals; per call only the objective
coefficients and the right-hand side change.  :func:`solve_max_site_flow`
remains as a thin compatibility wrapper over the cached solver.

**Hint in, prices out.**  A basic optimum splits at most one pair per
saturated link; every other pair rides the one tunnel the capacity rows'
dual prices pick for it, and between consecutive intervals those prices
barely move.  :meth:`SiteFlowSolver.solve_priced` takes the previous
solve's :class:`LinkPrices` as a hint and returns the new ones beside
the allocation; the hint only decides how much of the LP is handed to
HiGHS (:meth:`SiteFlowSolver._solve_guided`) — none of it when the
hint's own decisions already pass the LP's optimality check — never the
answer.  The solver keeps no per-call state — the hint is the caller's
to carry — so solvers stay shareable through the per-topology cache.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .. import checks
from ..obs import get_registry, get_tracer
from .flowtable import csr_offsets
from .lp_backend import LPSolveError, solve_lp
from .types import SiteAllocation

if TYPE_CHECKING:  # imported lazily to avoid a cycle with formulation
    from .formulation import MaxAllFlowProblem
    from ..topology.contraction import TwoLayerTopology

__all__ = [
    "LinkPrices",
    "SiteFlowSolution",
    "SiteFlowSolver",
    "solve_max_site_flow",
    "max_concurrent_scale",
]

#: Demand-carrying pairs below which a class is solved whole: a
#: restricted LP keeps every capacity row and a HiGHS call's fixed cost,
#: so a small class has nothing to gain.
_MIN_ACTIVE_PAIRS = 512
#: Free share of the demand-carrying pairs above which the whole LP is
#: solved: every capacity row stays in, so past half the columns the
#: restricted LP costs what the whole one does.
_WHOLE_LP_ABOVE = 0.5
#: Slack of the KKT check's reduced-profit comparisons: objective lost
#: per unit of demand by a decision accepted within it.
_KKT_TOL = 1e-9
#: Flow off a free pair's hinted placement, as a share of its demand,
#: above which the pair counts as moved by the LP.
_MOVED_ABOVE = 1e-6


@dataclass(frozen=True, eq=False)
class LinkPrices:
    """Capacity-row dual prices ``λ_e ≥ 0`` of one class-solve.

    ``values`` aligns with the link index of the solver ``owner`` weakly
    refers to; a solver ignores a hint it does not own.
    """

    values: np.ndarray
    owner: weakref.ref


class SiteFlowSolution(NamedTuple):
    """One stage-1 class-solve: the flat optimal ``F_{k,t}`` (``x``), the
    next interval's hint (``prices``), and how it was reached.

    ``warm_start`` is true when a hint was followed.  ``outcome`` is
    ``"whole"`` (no usable hint, or too small to gain), ``"certified"``
    (the hint's own decisions are optimal: no LP built), ``"guided"``,
    or ``"fallback:<reason>"`` (hint abandoned, whole LP solved);
    ``pairs_fixed`` / ``pairs_free`` count the demand-carrying pairs the
    prices decided / the LP did, ``pairs_moved`` the free pairs a guided
    solve placed off their hinted decisions (0 on every other outcome),
    and ``rounds`` the restricted LPs solved.
    """

    x: np.ndarray
    prices: LinkPrices
    warm_start: bool
    outcome: str
    pairs_fixed: int
    pairs_free: int
    pairs_moved: int
    rounds: int


#: Per-topology solver cache: id(topology) -> (weakref, solver).  The
#: weakref both validates the entry (id reuse after GC cannot alias a new
#: topology onto a stale solver) and lets dead topologies' entries be
#: purged.  The solver itself holds no strong reference to the topology.
_SOLVER_CACHE: dict[int, tuple[weakref.ref, "SiteFlowSolver"]] = {}
_SOLVER_CACHE_LOCK = threading.Lock()


def _purge_dead_entries_locked() -> None:
    """Drop cache entries whose topology has been collected.

    Called on every insert (with :data:`_SOLVER_CACHE_LOCK` held), so the
    cache never grows beyond live-topologies + 1 even under topology
    churn — dead ids must not linger until their exact id is reused.
    Deliberately *not* a weakref callback: callbacks can fire during any
    allocation, including while the lock is held, and the lock is not
    reentrant.
    """
    dead = [k for k, (ref, _) in _SOLVER_CACHE.items() if ref() is None]
    for k in dead:
        del _SOLVER_CACHE[k]


class SiteFlowSolver:
    """Persistent MaxSiteFlow scaffolding for one (immutable) topology.

    Built once per topology, then reused across QoS classes and TE
    intervals.  Cached here:

    * link indexing and the capacity vector;
    * flat ``(k, t)`` variable offsets and default tunnel weights;
    * the link-tunnel incidence ``L(t, e)`` in COO arrays *and* as a CSR
      matrix (for vectorized residual-capacity accounting);
    * the stacked LP constraint matrix (demand rows over capacity rows)
      in CSR form — the expensive part of each legacy solve call — and
      a CSC copy the restricted LPs slice their columns from;
    * per-attribute flat tunnel values and per-pair fill orders, used by
      the second stage's tunnel-preference policies.

    Per :meth:`solve` call only the cost vector and ``b_ub`` are
    assembled, so a call is essentially one HiGHS invocation.  Results
    are bit-identical to building the matrices from scratch.

    The topology is assumed immutable once contracted (``Link`` is
    frozen; failure scenarios produce *new* topology objects), which is
    what makes the caching sound.
    """

    def __init__(self, topology: "TwoLayerTopology") -> None:
        with get_tracer().span("siteflow.build") as sp:
            self._build(topology)
            sp.set_attribute("num_pairs", self.num_pairs)
        #: Wall-clock spent building the scaffolding (observability).
        self.build_seconds = sp.duration_s
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "megate_siteflow_builds_total",
                "SiteFlowSolver scaffolding builds (cache misses)",
            ).inc()
            registry.histogram(
                "megate_siteflow_build_seconds",
                "Time to build the LP scaffolding for one topology",
            ).observe(self.build_seconds)

    def _build(self, topology: "TwoLayerTopology") -> None:
        catalog = topology.catalog
        self.catalog = catalog
        self.num_pairs = catalog.num_pairs
        self.link_index: dict[tuple[str, str], int] = {
            link.key: idx
            for idx, link in enumerate(topology.network.links)
        }
        self.capacities = np.array(
            [link.capacity for link in topology.network.links],
            dtype=np.float64,
        )
        counts = [
            len(catalog.tunnels(k)) for k in range(self.num_pairs)
        ]
        self.tunnel_offsets = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self.num_tunnel_vars = int(self.tunnel_offsets[-1])

        weights = np.empty(self.num_tunnel_vars, dtype=np.float64)
        rows: list[int] = []
        cols: list[int] = []
        pos = 0
        for k in range(self.num_pairs):
            for tunnel in catalog.tunnels(k):
                weights[pos] = tunnel.weight
                for key in tunnel.links:
                    rows.append(self.link_index[key])
                    cols.append(pos)
                pos += 1
        self.tunnel_weights = weights
        #: COO arrays of ``L(t, e)`` in build order (pair-major, then
        #: tunnel, then the tunnel's link sequence) — the exact order the
        #: residual-accounting update must apply subtractions in to stay
        #: bit-identical with per-tunnel bookkeeping.
        self.incidence_rows = np.asarray(rows, dtype=np.int64)
        self.incidence_cols = np.asarray(cols, dtype=np.int64)

        num_links = self.capacities.size
        num_vars = self.num_tunnel_vars
        #: The pair each flat tunnel column belongs to.
        self._pair_of_col = np.repeat(
            np.arange(self.num_pairs), np.diff(self.tunnel_offsets)
        )
        if num_vars:
            demand_matrix = sparse.coo_matrix(
                (np.ones(num_vars), (self._pair_of_col, np.arange(num_vars))),
                shape=(self.num_pairs, num_vars),
            )
            capacity_matrix = sparse.coo_matrix(
                (
                    np.ones(self.incidence_rows.size),
                    (self.incidence_rows, self.incidence_cols),
                ),
                shape=(num_links, num_vars),
            )
            #: The stacked LP constraint matrix, built once.
            self.constraint_matrix = sparse.vstack(
                [demand_matrix, capacity_matrix], format="csr"
            )
            #: ``L(t, e)`` as CSR (links × tunnels) for one-spmv loads.
            self.link_tunnel_matrix = capacity_matrix.tocsr()
        else:
            self.constraint_matrix = None
            self.link_tunnel_matrix = sparse.csr_matrix(
                (num_links, 0), dtype=np.float64
            )

        max_weight = float(weights.max()) if weights.size else 0.0
        #: The auto-scaled ε of objective (1): ``0.1 / max(w_t)``.
        self.default_epsilon = (
            0.1 / max_weight if max_weight > 0 else 0.0
        )
        self._attribute_cache: dict[str, np.ndarray] = {
            "weight": weights
        }
        self._fill_order_cache: dict[
            str, tuple[list[np.ndarray], np.ndarray]
        ] = {}
        self._incidence_col_bounds: np.ndarray | None = None
        # What the price-guided reduction reads per call: ``L`` by
        # tunnel (for ``Lᵀλ``) and the pairs that have tunnels at all.
        self._tunnel_link_matrix = self.link_tunnel_matrix.T.tocsr()
        self._has_tunnels = np.diff(self.tunnel_offsets) > 0
        self._tunnelled_pairs = np.flatnonzero(self._has_tunnels)
        # Column slices of the stacked matrix (the restricted LPs), and
        # random per-link keys: two tunnels cross the same set of links
        # when the sums of their links' keys agree.
        self._constraint_columns = (
            None
            if self.constraint_matrix is None
            else self.constraint_matrix.tocsc()
        )
        self._link_keys = np.random.default_rng(0).random(num_links) + 1.0

    @classmethod
    def for_topology(
        cls, topology: "TwoLayerTopology"
    ) -> "SiteFlowSolver":
        """The cached solver for a topology (built on first use)."""
        key = id(topology)
        with _SOLVER_CACHE_LOCK:
            entry = _SOLVER_CACHE.get(key)
            if entry is not None and entry[0]() is topology:
                return entry[1]
        solver = cls(topology)
        with _SOLVER_CACHE_LOCK:
            _purge_dead_entries_locked()
            _SOLVER_CACHE[key] = (weakref.ref(topology), solver)
        return solver

    def tunnel_attribute(self, attribute: str) -> np.ndarray:
        """Flat per-tunnel values of one attribute (cached)."""
        cached = self._attribute_cache.get(attribute)
        if cached is None:
            values = np.empty(self.num_tunnel_vars, dtype=np.float64)
            pos = 0
            for k in range(self.num_pairs):
                for tunnel in self.catalog.tunnels(k):
                    values[pos] = getattr(tunnel, attribute)
                    pos += 1
            self._attribute_cache[attribute] = cached = values
        return cached

    @property
    def incidence_col_bounds(self) -> np.ndarray:
        """Segment bounds of each tunnel column within the incidence.

        ``incidence_cols`` is non-decreasing (built pair-major, tunnel by
        tunnel), so tunnel ``c``'s link rows are
        ``incidence_rows[bounds[c]:bounds[c + 1]]`` — the lookup the
        delta fast path uses for per-tunnel link-headroom minima.
        """
        if self._incidence_col_bounds is None:
            self._incidence_col_bounds = np.searchsorted(
                self.incidence_cols, np.arange(self.num_tunnel_vars + 1)
            )
        return self._incidence_col_bounds

    def fill_orders(
        self, attribute: str
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-pair tunnel fill orders for one preference attribute.

        Returns:
            ``(orders, ordered_cols)``: for each pair ``k``,
            ``orders[k]`` is the stable ascending argsort of its tunnels'
            attribute values (the MaxEndpointFlow fill order), and
            ``ordered_cols`` is the flat column permutation whose slice
            ``offsets[k]:offsets[k+1]`` lists pair ``k``'s flat variable
            indices in that order.
        """
        cached = self._fill_order_cache.get(attribute)
        if cached is None:
            values = self.tunnel_attribute(attribute)
            offsets = self.tunnel_offsets
            orders = [
                np.argsort(
                    values[offsets[k] : offsets[k + 1]], kind="stable"
                )
                for k in range(self.num_pairs)
            ]
            if self.num_tunnel_vars:
                ordered_cols = np.concatenate(
                    [
                        offsets[k] + orders[k]
                        for k in range(self.num_pairs)
                    ]
                )
            else:
                ordered_cols = np.empty(0, dtype=np.int64)
            self._fill_order_cache[attribute] = cached = (
                orders,
                ordered_cols,
            )
        return cached

    def solve_flat(
        self,
        site_demands: np.ndarray,
        capacities: np.ndarray | None = None,
        tunnel_weights: np.ndarray | None = None,
        epsilon: float | None = None,
    ) -> np.ndarray:
        """The flat ``F_{k,t}`` of :meth:`solve_priced` without a hint."""
        return self.solve_priced(
            site_demands, capacities, tunnel_weights, epsilon
        ).x

    def solve_priced(
        self,
        site_demands: np.ndarray,
        capacities: np.ndarray | None = None,
        tunnel_weights: np.ndarray | None = None,
        epsilon: float | None = None,
        hint: LinkPrices | None = None,
    ) -> SiteFlowSolution:
        """Solve the LP: hint in, allocation and prices out.

        Args mirror :func:`solve_max_site_flow`; ``epsilon=None``
        auto-scales exactly the way the legacy function did.  ``hint``
        is the :attr:`SiteFlowSolution.prices` of an earlier solve of the
        same class on this solver; it only decides how much of the LP is
        handed to HiGHS (see :meth:`_solve_guided`) — the result is an
        optimum of the whole LP either way, and an unusable hint
        (another solver's, wrong length, non-finite or negative) is
        ignored.

        Raises:
            ValueError: naming the argument, if ``site_demands`` is
                misshapen, negative, NaN or infinite, ``capacities`` or
                ``tunnel_weights`` misaligned, NaN or infinite, or
                ``epsilon`` NaN or infinite — on every path, before any
                LP is built or any hint is read.
            LPSolveError: if HiGHS fails on the whole LP (should not
                happen: the LP is always feasible, F = 0 works).
        """
        site_demands = np.asarray(site_demands, dtype=np.float64)
        if site_demands.shape != (self.num_pairs,):
            raise ValueError(
                "site_demands must have one entry per site pair"
            )
        if not np.all(np.isfinite(site_demands)):
            raise ValueError("site_demands must be finite (no NaN or inf)")
        checks.nonnegative_array("site_demands", site_demands)
        caps = self.capacities if capacities is None else capacities
        if caps.shape != self.capacities.shape:
            raise ValueError("capacities must align with the link index")
        if not np.all(np.isfinite(caps)):
            raise ValueError("capacities must be finite (no NaN or inf)")
        num_vars = self.num_tunnel_vars
        weights = (
            self.tunnel_weights
            if tunnel_weights is None
            else tunnel_weights
        )
        if weights.shape != (num_vars,):
            raise ValueError(
                "tunnel_weights must have one entry per tunnel"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("tunnel_weights must be finite (no NaN or inf)")
        if epsilon is not None:
            checks.finite("epsilon", epsilon)
        if num_vars == 0:
            return SiteFlowSolution(
                np.empty(0, dtype=np.float64),
                LinkPrices(np.zeros(caps.size), weakref.ref(self)),
                False, "whole", 0, 0, 0, 0,
            )  # fmt: skip
        if epsilon is None:
            if tunnel_weights is None:
                eps = self.default_epsilon
            else:
                max_weight = float(weights.max())
                eps = 0.1 / max_weight if max_weight > 0 else 0.0
        else:
            eps = epsilon
        cost = -(1.0 - eps * weights)
        link_caps = np.maximum(caps, 0.0)
        with get_tracer().span("siteflow.lp_solve") as sp:
            lam = self._usable_hint(hint)
            guided = (
                None
                if lam is None
                else self._solve_guided(-cost, site_demands, link_caps, lam)
            )
            if isinstance(guided, tuple):
                x, prices, fixed, free, moved, rounds = guided
                outcome = "guided" if rounds else "certified"
                warm = True
            else:
                outcome = "whole" if guided is None else f"fallback:{guided}"
                x, row_prices = solve_lp(
                    cost,
                    self.constraint_matrix,
                    np.concatenate([site_demands, link_caps]),
                )
                warm = False
                prices = row_prices[self.num_pairs :]
                fixed = moved = rounds = 0
                free = int(np.count_nonzero(site_demands))
            solution = SiteFlowSolution(
                x, LinkPrices(prices, weakref.ref(self)),
                warm, outcome, fixed, free, moved, rounds,
            )  # fmt: skip
            for key, value in zip(solution._fields[2:], solution[2:]):
                sp.set_attribute(key, value)
        return solution

    def _usable_hint(self, hint: LinkPrices | None) -> np.ndarray | None:
        """The hint's price vector, or ``None`` when it must be ignored."""
        if not isinstance(hint, LinkPrices) or hint.owner() is not self:
            return None
        lam = hint.values
        if (
            not isinstance(lam, np.ndarray)
            or lam.shape != self.capacities.shape
            or lam.dtype != np.float64
            or not np.all(np.isfinite(lam))
            or np.any(lam < 0)
        ):
            return None
        return lam

    def _pair_maxima(self, rho: np.ndarray) -> np.ndarray:
        """Per pair, the largest of its tunnels' values (−inf if none)."""
        top = np.full(self.num_pairs, -np.inf)
        top[self._tunnelled_pairs] = np.maximum.reduceat(
            rho, self.tunnel_offsets[self._tunnelled_pairs]
        )
        return top

    def _pair_minima(self, values: np.ndarray) -> np.ndarray:
        """Per pair, the least of its tunnels' values (+inf if none)."""
        low = np.full(self.num_pairs, np.inf)
        low[self._tunnelled_pairs] = np.minimum.reduceat(
            values, self.tunnel_offsets[self._tunnelled_pairs]
        )
        return low

    def _solve_guided(
        self,
        profit: np.ndarray,
        demands: np.ndarray,
        caps: np.ndarray,
        lam: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int, int, int, int] | str | None:
        """The hint as a certificate, else the LP restricted to the pairs
        the prices leave open.

        Under link prices ``λ`` a tunnel's reduced profit is
        ``ρ_t = (1 − ε·w_t) − Σ_{e∈t} λ_e`` and the LP's optimality
        conditions decide each pair on its own: all of ``D_k`` on the
        arg-max tunnel when ``max ρ > 0``, nothing when ``max ρ < 0``.
        First every pair is placed on its hinted decision (the first
        arg-max tunnel when ``max ρ > 0``, nothing otherwise); if no link
        overloads and every link with ``λ_e > 0`` is exactly full, that
        ``x`` with the hint's ``λ`` satisfies the whole LP's KKT
        conditions (below) and is returned without building an LP.

        Otherwise the links where that check fails say how far prices
        must move (:meth:`_cover`), and every pair whose decision a
        move that large could change (:meth:`_decision_margins`) stays
        free — the ties among them.  The rest are fixed on their hinted
        decisions, and the LP is solved over the free pairs' columns
        only, with every capacity row kept and its right-hand side
        reduced by the fixed flows.  The restricted LP's own capacity
        duals then re-check every fixed decision; a pair they contradict
        is released and the LP re-solved — until the restricted LPs have
        been handed as many columns as the whole LP has, or half the
        active pairs are free, when the whole LP is cheaper.

        A result that passes the check satisfies the *whole* LP's KKT
        conditions — primal feasible by construction, dual feasible with
        ``μ_k = max(0, max_t ρ_t)``, complementary slack — so it is an
        optimum, not an approximation.

        Returns:
            ``(x, prices, pairs_fixed, pairs_free, pairs_moved, rounds)``,
            where ``rounds == 0`` means the hint itself certified ``x``
            and ``pairs_moved`` counts the free pairs the LP placed off
            their hinted decisions; ``None`` when the instance is too
            small for the reduction to pay (nothing attempted); or the
            reason (a short word) the attempt was abandoned.  The caller
            solves the whole LP for the last two.
        """
        active = (demands > 0) & self._has_tunnels
        num_active = int(np.count_nonzero(active))
        if num_active < _MIN_ACTIVE_PAIRS:
            return None
        most_free = _WHOLE_LP_ABOVE * num_active
        pair_of_col = self._pair_of_col
        num_vars = self.num_tunnel_vars

        rho = profit - self._tunnel_link_matrix @ lam
        best = self._pair_maxima(rho)
        # First tunnel attaining the pair's maximum (catalog order).
        best_col = np.zeros(self.num_pairs, dtype=np.int64)
        best_col[self._tunnelled_pairs] = np.minimum.reduceat(
            np.where(rho == best[pair_of_col], np.arange(num_vars), num_vars),
            self.tunnel_offsets[self._tunnelled_pairs],
        )
        takes_all = active & (best > 0)
        # The hint as a certificate of the whole LP: every pair on its
        # hinted decision, no link over, every priced link exactly full.
        full = np.flatnonzero(takes_all)
        hinted = np.zeros(num_vars)
        hinted[best_col[full]] = demands[full]
        left = caps - self.link_tunnel_matrix @ hinted
        over = left < 0
        under = (lam > 0) & (left > 0)
        if not (over.any() or under.any()):
            return hinted, lam, num_active, 0, 0, 0
        decision = np.where(takes_all, best_col, -1)
        margin = self._decision_margins(
            rho, np.maximum(best, 0.0), decision, (lam > 0) | over
        )
        # Per incidence entry: the gap the link's price must move by to
        # change the entry pair's decision there — a rider's margin, or
        # how far the tunnel trails the pair's decision.
        entry_col = self.incidence_cols
        entry_pair = pair_of_col[entry_col]
        rides = hinted[entry_col] > 0
        gap = np.where(
            rides,
            margin[entry_pair],
            np.maximum(best[entry_pair], 0.0) - rho[entry_col],
        )
        # An overloaded link sheds riders; an under-filled priced one
        # draws the others, but its price cannot fall below 0, so a
        # tunnel trailing by more than that price is never drawn.
        entry_link = self.incidence_rows
        sheds = over[entry_link] & rides
        draws = (
            under[entry_link]
            & ~rides
            & active[entry_pair]
            & (gap <= lam[entry_link])
        )
        move = self._cover(
            np.flatnonzero(sheds | draws), np.abs(left), gap, demands
        )[1]
        # A move within the link's own price is drift the whole class
        # shares: links are coupled through the pairs crossing several.
        # A move past it — a link turning hot — re-decides only the pairs
        # crossing that link, by at most the moves along their options.
        hot = self._tunnel_link_matrix @ np.where(move > lam, move, 0.0)
        reach = np.maximum(
            move[move <= lam].max(initial=0.0),
            self._pair_maxima(hot)
            + np.where(decision >= 0, hot[np.maximum(decision, 0)], 0.0),
        )
        free = active & (margin <= reach)

        rounds = spent = 0
        while True:
            full = np.flatnonzero(takes_all & ~free)
            x = np.zeros(num_vars)
            x[best_col[full]] = demands[full]
            left = caps - self.link_tunnel_matrix @ x
            if np.any(left < 0):
                # The fixed flows alone overload a link: its riders are
                # the LP's to decide, least margin first, until the rest
                # fit.
                over = left < 0
                taken = self._cover(
                    np.flatnonzero(over[entry_link] & (x[entry_col] > 0)),
                    -left,
                    gap,
                    demands,
                )[0]
                free[taken] = True
                continue
            free_pairs = np.flatnonzero(free)
            if free_pairs.size > most_free:
                return "free_set"
            cols = np.flatnonzero(free[pair_of_col])
            # Past the whole LP's columns the restricted rounds cost more
            # than the whole LP they were to save.
            spent += cols.size
            if spent > num_vars:
                return "cost"
            rounds += 1
            lam = np.zeros(caps.size)
            if cols.size:
                a_ub, b_ub, binds = self._restricted_lp(
                    free_pairs, cols, demands, left
                )
                try:
                    x[cols], row_prices = solve_lp(-profit[cols], a_ub, b_ub)
                except LPSolveError as exc:
                    return f"lp_status_{exc.status}"
                lam[binds] = row_prices[free_pairs.size :]
            # KKT check of the fixed decisions under the LP's own duals.
            rho = profit - self._tunnel_link_matrix @ lam
            top = self._pair_maxima(rho)
            chosen = rho[best_col]
            wrong = ~free & np.where(
                takes_all,
                (chosen < top - _KKT_TOL) | (chosen < -_KKT_TOL),
                active & (top > _KKT_TOL),
            )
            if not wrong.any():
                off_hint = np.bincount(
                    pair_of_col[cols],
                    weights=np.abs(x[cols] - hinted[cols]),
                    minlength=self.num_pairs,
                ) > _MOVED_ABOVE * demands
                return (
                    x, lam, num_active - free_pairs.size, free_pairs.size,
                    int(np.count_nonzero(off_hint)), rounds,
                )  # fmt: skip
            free |= wrong

    def _restricted_lp(
        self,
        free_pairs: np.ndarray,
        cols: np.ndarray,
        demands: np.ndarray,
        left: np.ndarray,
    ) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray]:
        """``A_ub``, ``b_ub`` of the LP over the free pairs' columns, and
        which capacity rows it keeps.

        The columns meet only their pairs' demand rows and the capacity
        rows.  A capacity row the free pairs cannot fill — even each one
        sending its whole demand down every tunnel over it — never binds,
        so its price is 0 and it is left out.
        """
        sub = self._constraint_columns[:, cols]
        rows = sub.indices
        carried = np.repeat(
            demands[self._pair_of_col[cols]], np.diff(sub.indptr)
        )
        link_entry = rows >= self.num_pairs
        reach = np.bincount(
            rows[link_entry] - self.num_pairs,
            weights=carried[link_entry],
            minlength=left.size,
        )
        binds = reach >= left
        row_of = np.full(sub.shape[0], -1, dtype=rows.dtype)
        row_of[free_pairs] = np.arange(free_pairs.size)
        kept_links = np.flatnonzero(binds)
        row_of[self.num_pairs + kept_links] = free_pairs.size + np.arange(
            kept_links.size
        )
        kept = row_of[rows] >= 0
        matrix = sparse.csc_matrix(
            (
                sub.data[kept],
                row_of[rows[kept]],
                csr_offsets(np.add.reduceat(kept, sub.indptr[:-1])),
            ),
            shape=(free_pairs.size + kept_links.size, cols.size),
        )
        b_ub = np.concatenate([demands[free_pairs], left[binds]])
        return matrix, b_ub, binds

    def _decision_margins(
        self,
        rho: np.ndarray,
        value: np.ndarray,
        decision: np.ndarray,
        priced: np.ndarray,
    ) -> np.ndarray:
        """Per pair, how far link prices must move to change its decision.

        A pair's options are its tunnels and carrying nothing (value 0,
        no links); ``decision`` is the tunnel it takes (−1: nothing),
        worth ``value``.  Only the ``priced`` links' prices move, so an
        option crossing the same priced links as the decision keeps its
        distance to it whatever they do.  The margin is the least
        ``value − ρ`` over the other options (+inf when none differs); a
        tie is a margin of 0.
        """
        # The sum of a tunnel's priced links' keys names that link set (a
        # collision, vanishingly unlikely, only leaves a pair fixed that
        # the KKT check then releases).
        names = self._tunnel_link_matrix @ np.where(
            priced, self._link_keys, 0.0
        )
        pair_of_col = self._pair_of_col
        chosen = np.where(decision >= 0, names[np.maximum(decision, 0)], 0.0)
        differs = names != chosen[pair_of_col]
        gap = np.where(differs, value[pair_of_col] - rho, np.inf)
        margin = self._pair_minima(gap)
        # Carrying nothing instead of the decision's tunnel.
        drop = chosen != 0
        margin[drop] = np.minimum(margin[drop], value[drop])
        return margin

    def _cover(
        self,
        entries: np.ndarray,
        need: np.ndarray,
        gap: np.ndarray,
        demands: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cover each link's ``need`` by the ``entries`` over it, least
        ``gap`` first: the pairs taken, and per link the gap its price
        had to move by (the last entry taken; 0 where none was)."""
        links = self.incidence_rows[entries]
        order = np.lexsort((gap[entries], links))
        entries, links = entries[order], links[order]
        pairs = self._pair_of_col[self.incidence_cols[entries]]
        first = np.ones(links.size, dtype=bool)
        first[1:] = links[1:] != links[:-1]
        before = np.cumsum(demands[pairs]) - demands[pairs]
        if before.size:
            before -= before[first][np.cumsum(first) - 1]
        taken = before < need[links]
        move = np.zeros(need.size)
        np.maximum.at(move, links[taken], gap[entries[taken]])
        return pairs[taken], move

    def split(self, flat: np.ndarray) -> SiteAllocation:
        """View a flat ``F_{k,t}`` vector as a :class:`SiteAllocation`."""
        if flat.size == 0:
            flat = np.zeros(self.num_tunnel_vars, dtype=np.float64)
        return SiteAllocation.from_flat(
            np.asarray(flat, dtype=np.float64).copy(),
            self.tunnel_offsets,
        )

    def solve(
        self,
        site_demands: np.ndarray,
        capacities: np.ndarray | None = None,
        tunnel_weights: np.ndarray | None = None,
        epsilon: float | None = None,
    ) -> SiteAllocation:
        """Solve the LP and return the allocation per site pair."""
        return self.split(
            self.solve_flat(
                site_demands,
                capacities=capacities,
                tunnel_weights=tunnel_weights,
                epsilon=epsilon,
            )
        )


def solve_max_site_flow(
    problem: MaxAllFlowProblem,
    site_demands: np.ndarray,
    capacities: np.ndarray | None = None,
    tunnel_weights: np.ndarray | None = None,
    epsilon: float | None = None,
) -> SiteAllocation:
    """Solve the MaxSiteFlow LP (compatibility wrapper).

    Thin shim over the per-topology :class:`SiteFlowSolver`; repeated
    calls on the same topology reuse its cached constraint matrices.

    Args:
        problem: The TE input (provides tunnels, weights, link incidence).
        site_demands: ``D_k`` per site pair — typically
            ``problem.demands.site_demands(qos)`` from ``SiteMerge``.
        capacities: Optional residual link capacities (aligned with
            ``problem.link_index``); defaults to the full capacities.
            The QoS priority loop passes shrinking residuals here.
        tunnel_weights: Optional override for ``w_t`` per flat tunnel
            variable — e.g. per-Gbps cost instead of latency when
            allocating bulk traffic.
        epsilon: Optional override for the objective's ε; defaults to
            ``0.1 / max(w)`` of the effective weights so the shortness
            term never dominates throughput.

    Returns:
        The optimal ``F_{k,t}`` as a :class:`SiteAllocation`.

    Raises:
        LPSolveError: (a ``RuntimeError``) if HiGHS fails — should not
            happen: the LP is always feasible, F = 0 works.
    """
    solver = SiteFlowSolver.for_topology(problem.topology)
    if epsilon is None and tunnel_weights is None:
        # Honor a problem-level ε override (objective_epsilon).
        epsilon = problem.effective_epsilon
    return solver.solve(
        np.asarray(site_demands, dtype=np.float64),
        capacities=capacities,
        tunnel_weights=tunnel_weights,
        epsilon=epsilon,
    )


def _concurrent_flow_rows(
    problem: MaxAllFlowProblem,
    site_demands: np.ndarray,
    caps: np.ndarray,
    active: np.ndarray,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``A_ub``, ``b_ub`` of the maximum concurrent flow LP.

    Columns are ``[F_{k,t} ..., alpha]``.  One row per demand-carrying
    pair ``k`` (``active``): ``alpha * D_k - sum_t F_{k,t} <= 0``; then
    one row per link: the flow over it stays within ``max(caps, 0)``.
    """
    num_vars = problem.num_tunnel_vars
    offsets = problem.tunnel_offsets
    counts = offsets[active + 1] - offsets[active]
    rows = np.arange(active.size)
    # Entry i of the -1 block sits in its pair's row, at the pair's first
    # tunnel column plus i's rank within the pair.
    entry_offsets = csr_offsets(counts)
    tunnel_cols = np.arange(entry_offsets[-1]) + np.repeat(
        offsets[active] - entry_offsets[:-1], counts
    )
    demand_matrix = sparse.coo_matrix(
        (
            np.concatenate(
                [np.full(tunnel_cols.size, -1.0), site_demands[active]]
            ),
            (
                np.concatenate([np.repeat(rows, counts), rows]),
                np.concatenate(
                    [tunnel_cols, np.full(active.size, num_vars)]
                ),
            ),
        ),
        shape=(active.size, num_vars + 1),
    )
    link_rows, link_cols = problem.tunnel_link_incidence()
    capacity_matrix = sparse.coo_matrix(
        (np.ones(link_rows.size), (link_rows, link_cols)),
        shape=(caps.size, num_vars + 1),
    )
    a_ub = sparse.vstack([demand_matrix, capacity_matrix], format="csr")
    b_ub = np.concatenate([np.zeros(active.size), np.maximum(caps, 0.0)])
    return a_ub, b_ub


def max_concurrent_scale(
    problem: MaxAllFlowProblem,
    site_demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> float:
    """Maximum concurrent-flow scale ``α*`` for a demand mix.

    Solves ``max α`` subject to every site pair carrying at least
    ``α · D_k`` over its tunnels within link capacities — the standard
    maximum concurrent flow LP.  ``α* · ΣD`` is the carriage capacity of
    the network *for this traffic mix*, which is what demand-load
    calibration needs (a plain max-flow overestimates it by abandoning
    unfavourable site pairs).

    Returns:
        ``α*`` (may exceed 1 when the network is underloaded); ``inf``
        when there is no demand.
    """
    catalog = problem.topology.catalog
    if site_demands.shape != (catalog.num_pairs,):
        raise ValueError("site_demands must have one entry per site pair")
    checks.nonnegative_array("site_demands", site_demands)
    caps = problem.capacities if capacities is None else capacities
    num_vars = problem.num_tunnel_vars
    active = np.flatnonzero(site_demands > 0)
    if num_vars == 0 or active.size == 0:
        return float("inf")

    # Variables: [F_{k,t} ..., alpha]; maximize alpha.
    cost = np.zeros(num_vars + 1)
    cost[-1] = -1.0

    a_ub, b_ub = _concurrent_flow_rows(problem, site_demands, caps, active)
    outcome = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, None),
        method="highs",
    )
    if not outcome.success:
        raise RuntimeError(
            f"max concurrent flow LP failed: {outcome.message}"
        )
    return float(outcome.x[-1])
