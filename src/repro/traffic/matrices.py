"""Sequences of demand matrices over TE intervals.

Production TE recomputes every interval (e.g. 5 minutes, after Hong et al.
2013).  The day-long studies (Figures 2 and 16) need a *sequence* of
matrices with realistic temporal structure: a diurnal load wave plus
per-interval jitter on each endpoint pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import checks
from .demand import DemandMatrix

__all__ = ["DiurnalSequence"]


@dataclass(frozen=True)
class DiurnalSequence:
    """A day of demand matrices derived from one base matrix.

    Interval ``n``'s volumes are the base volumes scaled by a sinusoidal
    diurnal factor and multiplied by i.i.d. log-normal jitter, so pair
    identities persist across intervals (the same tenants keep talking)
    while volumes fluctuate.

    Attributes:
        base: The reference demand matrix (the daily mean).
        interval_minutes: TE interval length (paper default 5 min).
        peak_to_trough: Ratio of peak to trough diurnal load.
        jitter_sigma: Log-normal sigma of per-interval, per-pair jitter.
        seed: RNG seed.
    """

    base: DemandMatrix
    interval_minutes: float = 5.0
    peak_to_trough: float = 2.0
    jitter_sigma: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        checks.positive("interval_minutes", self.interval_minutes)
        checks.in_range("peak_to_trough", self.peak_to_trough, 1, math.inf, "[)")

    @property
    def num_intervals(self) -> int:
        """Intervals in one day."""
        return int(round(24 * 60 / self.interval_minutes))

    def load_factor(self, interval: int) -> float:
        """Diurnal multiplier at a given interval (mean ≈ 1)."""
        amplitude = (self.peak_to_trough - 1.0) / (self.peak_to_trough + 1.0)
        phase = 2.0 * math.pi * interval / self.num_intervals
        # Peak mid-day (interval N/2), trough at midnight.
        return 1.0 + amplitude * -math.cos(phase)

    def matrix(self, interval: int) -> DemandMatrix:
        """The demand matrix of interval ``n``.

        Jitter is drawn in one flat pass over the flow column.  NumPy's
        ``Generator`` normal stream is chunk-stable, so this produces the
        exact bytes the historical per-pair draw loop did — replay
        digests pinned before the columnar rewrite still hold.
        """
        if not 0 <= interval < self.num_intervals:
            raise IndexError("interval out of range")
        rng = np.random.default_rng(self.seed + interval)
        factor = self.load_factor(interval)
        table = self.base.table
        jitter = rng.lognormal(
            -0.5 * self.jitter_sigma**2,
            self.jitter_sigma,
            size=table.num_flows,
        )
        return self.base.with_volumes(table.volumes * factor * jitter)

    def __iter__(self) -> Iterator[DemandMatrix]:
        for n in range(self.num_intervals):
            yield self.matrix(n)
