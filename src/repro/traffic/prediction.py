"""Demand prediction across TE intervals (§8, "TE with application-level
statistics").

MegaTE's production scheduler is *weakly coupled*: each interval it
optimizes for the volumes observed in the previous interval.  The paper's
discussion points at predicted flow sizes as a way to make better
decisions.  This module provides that extension: per-endpoint-pair demand
predictors (last-value, EWMA, and a diurnal-profile predictor) plus an
evaluation harness measuring how much prediction error costs in satisfied
demand.
"""

from __future__ import annotations


import numpy as np

from .. import checks
from .demand import DemandMatrix, PairDemands

__all__ = [
    "LastValuePredictor",
    "EWMAPredictor",
    "DiurnalPredictor",
    "prediction_error",
]


def _clone_with_volumes(
    matrix: DemandMatrix, volumes: list[np.ndarray]
) -> DemandMatrix:
    return DemandMatrix(
        [
            PairDemands(
                volumes=v,
                qos=p.qos,
                src_endpoints=p.src_endpoints,
                dst_endpoints=p.dst_endpoints,
            )
            for p, v in zip(matrix, volumes)
        ]
    )


class LastValuePredictor:
    """Predict next interval = last observed interval (the paper's default).

    This is exactly MegaTE's weak coupling: "our scheduler makes decisions
    based solely on the observed ongoing traffic bandwidth".
    """

    def __init__(self) -> None:
        self._last: DemandMatrix | None = None

    def observe(self, matrix: DemandMatrix) -> None:
        """Record one interval's measured demands."""
        self._last = matrix

    def predict(self) -> DemandMatrix:
        """The forecast for the next interval.

        Raises:
            RuntimeError: before any observation.
        """
        if self._last is None:
            raise RuntimeError("no observations yet")
        return self._last


class EWMAPredictor:
    """Exponentially weighted moving average over interval volumes.

    Args:
        alpha: Weight of the newest observation (0 < alpha <= 1).
    """

    def __init__(self, alpha: float = 0.3) -> None:
        checks.in_range("alpha", alpha, 0, 1, "(]")
        self.alpha = alpha
        self._template: DemandMatrix | None = None
        self._state: list[np.ndarray] | None = None

    def observe(self, matrix: DemandMatrix) -> None:
        volumes = [p.volumes.astype(np.float64) for p in matrix]
        if self._state is None:
            self._state = volumes
        else:
            if len(volumes) != len(self._state):
                raise ValueError("matrix shape changed between intervals")
            self._state = [
                (1 - self.alpha) * old + self.alpha * new
                for old, new in zip(self._state, volumes)
            ]
        self._template = matrix

    def predict(self) -> DemandMatrix:
        if self._template is None or self._state is None:
            raise RuntimeError("no observations yet")
        return _clone_with_volumes(self._template, list(self._state))


class DiurnalPredictor:
    """Per-interval-of-day profile: predicts the mean of past same-slot
    observations, falling back to EWMA before a full day is seen.

    Args:
        intervals_per_day: TE intervals in one day (288 at 5 minutes).
        fallback_alpha: EWMA alpha used until a slot has history.
    """

    def __init__(
        self, intervals_per_day: int = 288, fallback_alpha: float = 0.3
    ) -> None:
        checks.in_range("intervals_per_day", intervals_per_day, 1, np.inf, "[)")
        self.intervals_per_day = intervals_per_day
        self._slot_sums: dict[int, list[np.ndarray]] = {}
        self._slot_counts: dict[int, int] = {}
        self._fallback = EWMAPredictor(alpha=fallback_alpha)
        self._clock = 0
        self._template: DemandMatrix | None = None

    def observe(self, matrix: DemandMatrix) -> None:
        slot = self._clock % self.intervals_per_day
        volumes = [p.volumes.astype(np.float64) for p in matrix]
        if slot in self._slot_sums:
            self._slot_sums[slot] = [
                acc + v for acc, v in zip(self._slot_sums[slot], volumes)
            ]
            self._slot_counts[slot] += 1
        else:
            self._slot_sums[slot] = volumes
            self._slot_counts[slot] = 1
        self._fallback.observe(matrix)
        self._template = matrix
        self._clock += 1

    def predict(self) -> DemandMatrix:
        """Forecast for the *next* interval's slot."""
        if self._template is None:
            raise RuntimeError("no observations yet")
        slot = self._clock % self.intervals_per_day
        if slot in self._slot_sums:
            count = self._slot_counts[slot]
            volumes = [s / count for s in self._slot_sums[slot]]
            return _clone_with_volumes(self._template, volumes)
        return self._fallback.predict()


def prediction_error(
    predicted: DemandMatrix, actual: DemandMatrix
) -> float:
    """Volume-weighted mean absolute relative error of a forecast.

    ``Σ |pred - actual| / Σ actual`` over all endpoint pairs.
    """
    if predicted.num_site_pairs != actual.num_site_pairs:
        raise ValueError("matrices must cover the same site pairs")
    abs_err = 0.0
    total = 0.0
    for p, a in zip(predicted, actual):
        if p.num_pairs != a.num_pairs:
            raise ValueError("pair counts differ")
        abs_err += float(np.abs(p.volumes - a.volumes).sum())
        total += float(a.volumes.sum())
    return abs_err / total if total > 0 else 0.0
