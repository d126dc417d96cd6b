"""Solution types shared by all TE solvers (MegaTE and baselines).

Every solver in this repository — the two-stage MegaTE optimizer, the exact
MILP, LP-all, NCFlow- and TEAL-style baselines — returns a
:class:`TEResult` so experiments can compare them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .flowtable import PairViews, csr_offsets, segment_sums

if TYPE_CHECKING:  # imported lazily to avoid a core <-> traffic cycle
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = [
    "SiteAllocation",
    "FlowAssignment",
    "TEResult",
    "FeasibilityReport",
    "StatKey",
    "PHASE_KEYS",
    "check_feasibility",
]

#: Tunnel index meaning "flow rejected / not placed".  This is the *only*
#: negative sentinel an assignment array may carry: every entry is either
#: a valid tunnel index (``>= 0``) or exactly ``UNASSIGNED``.
UNASSIGNED = -1


class StatKey:
    """Canonical keys of ``TEResult.stats`` (and per-mode bench dicts).

    The optimizer, the replay harness, the perf bench, and the tests all
    read the same solver diagnostics; these constants are the single
    definition of their spelling.  The values are unchanged from the
    historical string literals, so dicts written by earlier releases
    still read back — raw literals are deprecated in new code but remain
    valid keys for one release.
    """

    STAGE1_LP_S = "stage1_lp_s"
    STAGE2_SSP_S = "stage2_ssp_s"
    FASTSSP_EPSILON = "fastssp_epsilon"
    SATISFIED_BY_CLASS = "satisfied_by_class"
    PHASE_S = "phase_s"
    SECOND_STAGE = "second_stage"
    NUM_UNCONTENDED_PAIRS = "num_uncontended_pairs"
    NUM_CONTENDED_PAIRS = "num_contended_pairs"
    #: Constant ``"scipy"`` (the one LP path); ``bench/run.py`` reads it.
    BACKEND = "backend"
    LP_WARM_START = "lp_warm_start"
    LP_SOLVES = "lp_solves"
    LP_SOLVES_SKIPPED = "lp_solves_skipped"
    PAIRS_DELTA_PATCHED = "pairs_delta_patched"
    SSP_STATE_REUSED = "ssp_state_reused"
    INCREMENTAL = "incremental"
    #: Constant ``0`` (stage 2 runs in-process); ``bench/run.py`` reads it.
    SHARD_WORKERS = "shard_workers"
    SSP_BACKEND = "ssp_backend"
    SSP_BATCH_PHASE_S = "ssp_batch_phase_s"
    #: Per class solved by the LP: ``{"outcome": "whole" | "certified" |
    #: "guided" | "fallback:<reason>", "pairs_fixed", "pairs_free",
    #: "pairs_moved", "rounds"}``.
    STAGE1 = "stage1"

    # Phases of the ``phase_s`` breakdown.
    PHASE_MATRIX_BUILD = "matrix_build"
    PHASE_SITE_MERGE = "site_merge"
    PHASE_LP_SOLVE = "lp_solve"
    PHASE_DELTA_PATCH = "delta_patch"
    PHASE_TRIAGE = "triage"
    PHASE_CONTENDED_SSP = "contended_ssp"
    PHASE_SCATTER = "scatter"
    PHASE_RESIDUAL_UPDATE = "residual_update"


#: Keys of the per-phase timing breakdown in ``TEResult.stats["phase_s"]``
#: (also re-exported by :mod:`repro.core.twostage` for compatibility):
#: set-up, then one key per step of the optimizer's per-class pipeline
#: (the allocate step books under ``lp_solve`` or ``delta_patch``).
PHASE_KEYS = (
    StatKey.PHASE_MATRIX_BUILD,
    StatKey.PHASE_SITE_MERGE,
    StatKey.PHASE_LP_SOLVE,
    StatKey.PHASE_DELTA_PATCH,
    StatKey.PHASE_TRIAGE,
    StatKey.PHASE_CONTENDED_SSP,
    StatKey.PHASE_SCATTER,
    StatKey.PHASE_RESIDUAL_UPDATE,
)


def _flatten(
    per_pair: Sequence[np.ndarray], dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a legacy per-pair array list into ``(flat, offsets)``."""
    arrays = [np.asarray(arr, dtype=dtype) for arr in per_pair]
    offsets = csr_offsets([arr.size for arr in arrays])
    if arrays:
        flat = np.concatenate(arrays).astype(dtype, copy=False)
    else:
        flat = np.empty(0, dtype=dtype)
    return flat, offsets


class SiteAllocation:
    """Site-level bandwidth allocation ``F_{k,t}`` (MaxSiteFlow output).

    Canonically stored columnar: one flat float64 ``values`` vector over
    the ``(k, t)`` variables plus CSR ``offsets`` per site pair (catalog
    order = ascending weight).  ``per_pair`` exposes the legacy view —
    zero-copy slices of ``values``, so in-place writes go through.

    Attributes:
        values: Flat ``F_{k,t}`` vector (float64).
        offsets: int64 CSR offsets — pair ``k`` owns
            ``values[offsets[k]:offsets[k + 1]]``.
        per_pair: Per-pair zero-copy views of ``values``.
    """

    __slots__ = ("values", "offsets", "per_pair")

    def __init__(
        self,
        per_pair: Sequence[np.ndarray] | None = None,
        *,
        values: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        if per_pair is not None:
            values, offsets = _flatten(per_pair, np.float64)
        elif values is None or offsets is None:
            raise TypeError(
                "SiteAllocation needs per_pair or (values, offsets)"
            )
        else:
            values = np.asarray(values, dtype=np.float64)
            offsets = np.asarray(offsets, dtype=np.int64)
        self.values = values
        self.offsets = offsets
        self.per_pair = PairViews(values, offsets)

    @classmethod
    def from_flat(
        cls, values: np.ndarray, offsets: np.ndarray
    ) -> "SiteAllocation":
        """Wrap a flat ``F_{k,t}`` vector without copying."""
        return cls(values=values, offsets=offsets)

    @property
    def total(self) -> float:
        """Total allocated site-level bandwidth."""
        return float(sum(segment_sums(self.values, self.offsets)))

    def allocation(self, k: int, t: int) -> float:
        return float(self.per_pair[k][t])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SiteAllocation(num_pairs={len(self.per_pair)}, "
            f"total={self.total:.3f})"
        )


class FlowAssignment:
    """Endpoint-level assignment ``f_{k,t}^i`` in compact form.

    Canonically stored columnar: one flat int32 ``assigned_tunnel`` array
    over all flows plus CSR ``offsets`` per site pair.  Every construction
    path normalizes to int32; entries are valid tunnel indices within
    ``T_k`` or exactly :data:`UNASSIGNED` (the only negative sentinel).

    Attributes:
        assigned_tunnel: Flat int32 tunnel index per flow
            (:data:`UNASSIGNED` = rejected).
        offsets: int64 CSR offsets — pair ``k`` owns
            ``assigned_tunnel[offsets[k]:offsets[k + 1]]``.
        per_pair: Per-pair zero-copy views of ``assigned_tunnel``; writes
            through a view mutate the flat store.
    """

    __slots__ = ("assigned_tunnel", "offsets", "per_pair")

    def __init__(
        self,
        per_pair: Sequence[np.ndarray] | None = None,
        *,
        assigned_tunnel: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        if per_pair is not None:
            flat, offsets = _flatten(per_pair, np.int32)
        elif assigned_tunnel is None or offsets is None:
            raise TypeError(
                "FlowAssignment needs per_pair or "
                "(assigned_tunnel, offsets)"
            )
        else:
            flat = np.asarray(assigned_tunnel, dtype=np.int32)
            offsets = np.asarray(offsets, dtype=np.int64)
        self.assigned_tunnel = flat
        self.offsets = offsets
        self.per_pair = PairViews(flat, offsets)

    @classmethod
    def from_flat(
        cls, assigned_tunnel: np.ndarray, offsets: np.ndarray
    ) -> "FlowAssignment":
        """Wrap a flat assignment array without copying."""
        return cls(assigned_tunnel=assigned_tunnel, offsets=offsets)

    def tunnel_of(self, k: int, i: int) -> int:
        """Assigned tunnel index of flow ``(k, i)``, or -1 if rejected."""
        return int(self.per_pair[k][i])

    def num_assigned(self) -> int:
        return int((self.assigned_tunnel >= 0).sum())

    def num_flows(self) -> int:
        return int(self.assigned_tunnel.size)

    @classmethod
    def rejecting_all(cls, demands: DemandMatrix) -> "FlowAssignment":
        """An assignment with every flow rejected (useful as a base case)."""
        table = demands.table
        return cls(
            assigned_tunnel=np.full(
                table.num_flows, UNASSIGNED, dtype=np.int32
            ),
            offsets=table.offsets,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowAssignment(num_flows={self.num_flows()}, "
            f"num_assigned={self.num_assigned()})"
        )


@dataclass
class TEResult:
    """A TE solver's output for one TE interval.

    Attributes:
        scheme: Solver name (``"MegaTE"``, ``"LP-all"``, ...).
        assignment: Endpoint-level tunnel assignment.  Baselines that split
            flows fractionally still emit an integral per-flow view by
            rounding; their ``site_allocation`` carries the fractional
            truth.
        site_allocation: Site-level ``F_{k,t}``, when the scheme computes
            one (``None`` for purely endpoint-level schemes).
        demands: The demand matrix solved against.
        satisfied_volume: Total demand volume placed (Gbps).
        runtime_s: Solver wall-clock seconds (algorithm only, no I/O).
        stats: Free-form solver diagnostics.
    """

    scheme: str
    assignment: FlowAssignment
    demands: DemandMatrix
    satisfied_volume: float
    runtime_s: float
    site_allocation: SiteAllocation | None = None
    stats: dict = field(default_factory=dict)

    @property
    def total_volume(self) -> float:
        return self.demands.total_demand

    @property
    def satisfied_fraction(self) -> float:
        """The paper's *satisfied demand* metric (§6.1): placed / offered."""
        total = self.total_volume
        return self.satisfied_volume / total if total > 0 else 1.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of validating a :class:`TEResult` against the topology.

    Attributes:
        feasible: True when no link is overloaded and every flow uses at
            most one live tunnel.
        max_overload: Largest ``load / capacity`` across links (1.0 = full).
        violations: Human-readable violation descriptions (empty if
            feasible).
        link_loads: Load per directed link key.
    """

    feasible: bool
    max_overload: float
    violations: tuple[str, ...]
    link_loads: dict


def check_feasibility(
    topology: TwoLayerTopology,
    result: TEResult,
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Validate constraints (1a)-(1c) of the MaxAllFlow formulation.

    Computes per-link load from the endpoint-level assignment and compares
    with capacities; also checks every assigned tunnel index is valid for
    its site pair.
    """
    loads: dict[tuple[str, str], float] = {
        link.key: 0.0 for link in topology.network.links
    }
    violations: list[str] = []
    for k, pair in enumerate(result.demands):
        tunnels = topology.catalog.tunnels(k)
        assigned = result.assignment.per_pair[k]
        if assigned.size != pair.num_pairs:
            violations.append(f"site pair {k}: assignment size mismatch")
            continue
        for t_index in np.unique(assigned):
            if t_index < 0:
                continue
            if t_index >= len(tunnels):
                violations.append(
                    f"site pair {k}: tunnel index {t_index} out of range"
                )
                continue
            volume = float(pair.volumes[assigned == t_index].sum())
            for link_key in tunnels[int(t_index)].links:
                if link_key not in loads:
                    violations.append(
                        f"site pair {k}: tunnel uses dead link {link_key}"
                    )
                else:
                    loads[link_key] += volume

    max_overload = 0.0
    for link in topology.network.links:
        load = loads[link.key]
        if link.capacity > 0:
            max_overload = max(max_overload, load / link.capacity)
            if load > link.capacity * (1.0 + tolerance):
                violations.append(
                    f"link {link.key}: load {load:.3f} exceeds capacity "
                    f"{link.capacity:.3f}"
                )
        elif load > tolerance:
            violations.append(f"link {link.key}: load on zero-capacity link")
    return FeasibilityReport(
        feasible=not violations,
        max_overload=max_overload,
        violations=tuple(violations),
        link_loads=loads,
    )
