"""Admission control: shed or defer best-effort flows under overload.

During a flash crowd the offered load on a hot site pair can exceed
what the network can carry; without intervention the data plane sheds
proportionally across classes and QoS-1 traffic loses volume alongside
best effort.  The admission controller sits *in front of* the solver:
each epoch it compares every site pair's offered volume against a
budget derived from the pair's baseline demand and, when the pair is
over budget, scales down the lowest classes first (class 3, then
class 2) until the pair fits.  Protected classes (QoS-1 by default)
are never shed — a pair whose protected volume alone exceeds its
budget stays over budget rather than touch it.

Shedding is a per-class proportional scale, so flow identities never
change (volumes shrink, flows never disappear) and the incremental
engine's population contract holds.  With ``defer=True`` the shed
volume is remembered as a per-(pair, class) backlog and released —
proportionally to the class's current volumes — when the pair drops
back under budget; deferred release can briefly push admitted volume
above the instantaneous offered volume, which is exactly a
rate-limiter draining its queue.  The headline studies run with defer
off so that admitted <= offered holds flow-by-flow.

Everything is pure arithmetic on the offered volumes: same offered
table, same budgets -> bit-identical admitted volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import checks
from ..core.flowtable import FlowTable
from ..traffic.demand import DemandMatrix

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionOutcome",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """Policy knobs for the admission controller.

    Attributes:
        budget_factor: Per-pair volume budget as a multiple of the
            pair's baseline offered volume.
        protected: QoS classes that are never shed.
        shed_order: Classes to shed from, first-to-last, when a pair
            is over budget.
        defer: Remember shed volume as a backlog and release it when
            the pair has headroom, instead of dropping it.
    """

    budget_factor: float = 1.15
    protected: tuple[int, ...] = (1,)
    shed_order: tuple[int, ...] = (3, 2)
    defer: bool = False

    def __post_init__(self) -> None:
        checks.positive("budget_factor", self.budget_factor)
        if not self.shed_order:
            raise ValueError("shed_order must name at least one class")
        overlap = set(self.protected) & set(self.shed_order)
        if overlap:
            raise ValueError(
                f"classes {sorted(overlap)} are both protected and shed"
            )

    def as_dict(self) -> dict:
        return {
            "budget_factor": self.budget_factor,
            "protected": list(self.protected),
            "shed_order": list(self.shed_order),
            "defer": self.defer,
        }


@dataclass
class AdmissionOutcome:
    """One epoch's admission decision.

    Attributes:
        volumes: Admitted per-flow volumes (same layout as the offered
            table's ``volumes`` column).
        shed_by_class: Volume shed this epoch, keyed by QoS class.
        shed_total: Total volume shed this epoch.
        released: Backlogged volume released this epoch (defer mode).
    """

    volumes: np.ndarray
    shed_by_class: dict[int, float] = field(default_factory=dict)
    shed_total: float = 0.0
    released: float = 0.0


class AdmissionController:
    """Stateful per-pair budget enforcement over a run.

    Budgets are fixed at construction (from the baseline matrix), so
    the controller distinguishes a flash crowd (offered volume far
    above baseline) from ordinary diurnal jitter.
    """

    def __init__(
        self, budgets: np.ndarray, config: AdmissionConfig | None = None
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.budgets = np.asarray(budgets, dtype=np.float64)
        checks.nonnegative_array("budgets", self.budgets)
        # Per-(pair, class) deferred backlog; only populated in defer
        # mode, keyed by (pair index, qos class).
        self._backlog: dict[tuple[int, int], float] = {}
        self.total_shed = 0.0
        self.total_released = 0.0

    @classmethod
    def for_matrix(
        cls,
        base: DemandMatrix,
        config: AdmissionConfig | None = None,
    ) -> "AdmissionController":
        """Budgets = ``budget_factor`` x the baseline per-pair volume."""
        cfg = config if config is not None else AdmissionConfig()
        return cls(base.site_demands() * cfg.budget_factor, config=cfg)

    @property
    def backlog_total(self) -> float:
        return float(sum(self._backlog.values()))

    def admit(self, table: FlowTable) -> AdmissionOutcome:
        """Decide admitted volumes for one epoch's offered table."""
        cfg = self.config
        if len(self.budgets) != table.num_pairs:
            raise ValueError(
                "budget vector does not match the offered table "
                f"({len(self.budgets)} budgets, {table.num_pairs} pairs)"
            )
        volumes = table.volumes.astype(np.float64, copy=True)
        qos = table.qos
        offsets = table.offsets
        outcome = AdmissionOutcome(volumes=volumes)
        for pair in range(table.num_pairs):
            lo, hi = int(offsets[pair]), int(offsets[pair + 1])
            if lo == hi:
                continue
            vol = volumes[lo:hi]
            cls_ids = qos[lo:hi]
            total = float(vol.sum())
            budget = float(self.budgets[pair])
            excess = total - budget
            if excess > 1e-12:
                for shed_class in cfg.shed_order:
                    if excess <= 1e-12:
                        break
                    mask = cls_ids == shed_class
                    class_total = float(vol[mask].sum())
                    if class_total <= 0.0:
                        continue
                    shed = min(excess, class_total)
                    vol[mask] *= 1.0 - shed / class_total
                    excess -= shed
                    outcome.shed_by_class[shed_class] = (
                        outcome.shed_by_class.get(shed_class, 0.0) + shed
                    )
                    outcome.shed_total += shed
                    if cfg.defer:
                        key = (pair, int(shed_class))
                        self._backlog[key] = (
                            self._backlog.get(key, 0.0) + shed
                        )
            elif cfg.defer and excess < -1e-12:
                headroom = -excess
                for shed_class in cfg.shed_order:
                    if headroom <= 1e-12:
                        break
                    key = (pair, int(shed_class))
                    backlog = self._backlog.get(key, 0.0)
                    if backlog <= 0.0:
                        continue
                    release = min(backlog, headroom)
                    mask = cls_ids == shed_class
                    class_total = float(vol[mask].sum())
                    if class_total > 0.0:
                        vol[mask] *= 1.0 + release / class_total
                    else:
                        # The whole class was shed to zero; spread the
                        # release evenly over the class's flows.
                        count = int(mask.sum())
                        if count == 0:
                            continue
                        vol[mask] += release / count
                    self._backlog[key] = backlog - release
                    headroom -= release
                    outcome.released += release
        self.total_shed += outcome.shed_total
        self.total_released += outcome.released
        return outcome
