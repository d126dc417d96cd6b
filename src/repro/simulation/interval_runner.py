"""Multi-interval TE simulation: a day in the life of a control loop.

Drives a demand-matrix sequence (e.g. a :class:`DiurnalSequence`) through
a TE scheme interval by interval, realizing each allocation on the network
and collecting the time series the production studies report: satisfied
demand, delivered volume, per-class latency, peak utilization.

Optionally solves each interval on the *previous* interval's demands (the
paper's weak coupling — the controller only knows what it measured) or on
a predictor's forecast, quantifying the staleness cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.qos import QoSClass
from ..obs import get_registry, get_tracer
from .engine import EpochLoop
from .latency import compute_flow_latencies

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["IntervalRecord", "IntervalSeries", "run_intervals"]


@dataclass(frozen=True)
class IntervalRecord:
    """Measurements of one TE interval.

    Attributes:
        interval: Interval index.
        planned_satisfied: Solver's satisfied fraction on the demands it
            optimized for.
        delivered_fraction: Fraction of the *actual* interval traffic
            delivered end to end (differs when solving on stale demands).
        qos1_latency_ms: Volume-weighted class-1 latency.
        max_utilization: Peak link utilization.
        runtime_s: Solver runtime.
    """

    interval: int
    planned_satisfied: float
    delivered_fraction: float
    qos1_latency_ms: float
    max_utilization: float
    runtime_s: float


@dataclass
class IntervalSeries:
    """A whole run's records plus aggregates."""

    records: list[IntervalRecord] = field(default_factory=list)

    @property
    def mean_delivered(self) -> float:
        if not self.records:
            return float("nan")
        return float(
            np.mean([r.delivered_fraction for r in self.records])
        )

    @property
    def worst_interval(self) -> IntervalRecord | None:
        if not self.records:
            return None
        return min(self.records, key=lambda r: r.delivered_fraction)

    @property
    def mean_qos1_latency_ms(self) -> float:
        values = [
            r.qos1_latency_ms
            for r in self.records
            if not np.isnan(r.qos1_latency_ms)
        ]
        return float(np.mean(values)) if values else float("nan")


def run_intervals(
    topology: "TwoLayerTopology",
    matrices: Iterable["DemandMatrix"],
    solver,
    stale_inputs: bool = False,
    predictor=None,
) -> IntervalSeries:
    """Run a TE scheme across a sequence of intervals.

    Args:
        topology: The (static) topology.
        matrices: One demand matrix per interval, in order.
        solver: Any scheme with ``solve(topology, demands) -> TEResult``.
        stale_inputs: Solve interval ``n`` on interval ``n-1``'s demands,
            as the measurement-driven production loop does (interval 0
            uses its own demands as a bootstrap).
        predictor: Optional predictor with ``observe``/``predict``;
            overrides ``stale_inputs`` — each interval is solved on the
            predictor's forecast, then the actual matrix is observed.

    Returns:
        An :class:`IntervalSeries`; each record's delivered fraction is
        measured against the interval's *actual* traffic.
    """
    series = IntervalSeries()
    # A run is one fresh control loop: the first epoch's FULL solve
    # drops whatever carried state an incremental solver holds.
    loop = EpochLoop(solver)
    previous: "DemandMatrix | None" = None
    tracer = get_tracer()
    for n, actual in enumerate(matrices):
        with tracer.span("sim.interval", interval=n) as sp:
            if predictor is not None:
                try:
                    solve_on = predictor.predict()
                except RuntimeError:
                    solve_on = actual
            elif stale_inputs and previous is not None:
                solve_on = previous
            else:
                solve_on = actual
            epoch = loop.step(topology, solve_on, actual)
            result, outcome = epoch.solved, epoch.flow
            latencies = compute_flow_latencies(
                topology, epoch.realized, metric="ms"
            )
            total = actual.total_demand
            record = IntervalRecord(
                interval=n,
                planned_satisfied=result.satisfied_fraction,
                delivered_fraction=(
                    outcome.delivered_volume / total if total > 0 else 1.0
                ),
                qos1_latency_ms=latencies.volume_weighted_mean(
                    QoSClass.CLASS1
                ),
                max_utilization=outcome.max_utilization,
                runtime_s=result.runtime_s,
            )
            series.records.append(record)
            sp.set_attribute(
                "delivered_fraction", record.delivered_fraction
            )
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "megate_sim_intervals_total",
                    "Simulated TE intervals completed",
                ).inc()
                registry.gauge(
                    "megate_sim_delivered_fraction",
                    "Delivered traffic fraction of the latest interval",
                ).set(record.delivered_fraction)
                registry.gauge(
                    "megate_sim_max_utilization",
                    "Highest link utilization in the latest interval",
                ).set(record.max_utilization)
            if predictor is not None:
                predictor.observe(actual)
            previous = actual
    return series
