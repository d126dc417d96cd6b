"""Figure 16: customized service availability across the MegaTE rollout (§7).

The paper tracks two applications across months: App 6 (QoS class 1,
99.99% SLO) and App 7 (QoS class 3, 99% SLO).  Before the December 2022
rollout the traditional approach let App 6 dip to 99.988% — below its SLO;
after rollout MegaTE pins App 6's flows to high-availability paths
(≥99.995% average) while App 7 rides cheaper, lower-availability paths
that still clear its SLO.

We simulate the monthly timeline: months before the rollout use the
traditional scheme, months after use MegaTE; monthly demand jitter makes
each month a fresh allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import checks
from ..baselines import ConventionalMCF
from ..core import MegaTEOptimizer
from ..traffic import DemandMatrix, PairDemands
from .production import (
    ProductionScenario,
    app_metric,
    build_production_scenario,
)

__all__ = ["Fig16Row", "run", "APP6", "APP7", "APP6_SLO", "APP7_SLO"]

APP6, APP7 = 6, 7
APP6_SLO, APP7_SLO = 0.9999, 0.99


@dataclass(frozen=True)
class Fig16Row:
    """One month's availability observation.

    Attributes:
        month: Month index (0-based; ``rollout_month`` switches schemes).
        scheme: Scheme serving the month.
        app6_availability: App 6's demand-weighted availability.
        app7_availability: App 7's demand-weighted availability.
    """

    month: int
    scheme: str
    app6_availability: float
    app7_availability: float


def _jittered(demands: DemandMatrix, seed: int) -> DemandMatrix:
    rng = np.random.default_rng(seed)
    return DemandMatrix(
        [
            PairDemands(
                volumes=p.volumes
                * rng.lognormal(-0.005, 0.1, size=p.num_pairs),
                qos=p.qos,
                src_endpoints=p.src_endpoints,
                dst_endpoints=p.dst_endpoints,
            )
            for p in demands
        ]
    )


def run(
    num_months: int = 8,
    rollout_month: int = 3,
    production: ProductionScenario | None = None,
    seed: int = 0,
) -> list[Fig16Row]:
    """Reproduce Figure 16's monthly availability timeline."""
    checks.in_range("rollout_month", rollout_month, 0, num_months)
    production = production or build_production_scenario(seed=seed)
    topology = production.topology
    base = production.scenario.demands
    rows = []
    for month in range(num_months):
        demands = _jittered(base, seed=seed + 1000 + month)
        if month < rollout_month:
            result = ConventionalMCF().solve(topology, demands)
        else:
            result = MegaTEOptimizer().solve(topology, demands)
        # App labels index the same flows (volumes jitter, order is fixed).
        monthly = ProductionScenario(
            scenario=production.scenario, app_labels=production.app_labels
        )
        rows.append(
            Fig16Row(
                month=month,
                scheme=result.scheme,
                app6_availability=app_metric(
                    monthly, result, APP6, "availability"
                ),
                app7_availability=app_metric(
                    monthly, result, APP7, "availability"
                ),
            )
        )
    return rows
