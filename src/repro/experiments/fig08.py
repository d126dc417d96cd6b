"""Figure 8: CDF of the endpoint count per router site, with Weibull fit.

The paper plots the empirical CDF of how many endpoints each TWAN router
site connects and fits a Weibull distribution (the fit is then reused to
parameterize B4*/Deltacom*/Cogentco*).  We draw an "empirical" sample from
the production-like model, fit a fresh Weibull to it, and emit both CDFs
plus a goodness-of-fit statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.endpoints import WeibullEndpointModel

__all__ = ["Fig08Result", "run"]


@dataclass(frozen=True)
class Fig08Result:
    """Figure 8's data.

    Attributes:
        counts: Per-site endpoint counts ("empirical" sample).
        grid: x-axis endpoint counts for the CDF curves.
        empirical_cdf: Empirical CDF at each grid point.
        fitted_cdf: Fitted Weibull CDF at each grid point.
        fitted_model: The fitted Weibull parameters.
        ks_statistic: Kolmogorov-Smirnov distance between sample and fit.
        spread_orders_of_magnitude: log10(max/min) of the counts — the
            paper's "varies significantly in orders of magnitude".
    """

    counts: np.ndarray
    grid: np.ndarray
    empirical_cdf: np.ndarray
    fitted_cdf: np.ndarray
    fitted_model: WeibullEndpointModel
    ks_statistic: float
    spread_orders_of_magnitude: float


def run(
    num_sites: int = 100,
    true_shape: float = 0.6,
    true_scale: float = 5000.0,
    seed: int = 2022,
) -> Fig08Result:
    """Reproduce Figure 8.

    Args:
        num_sites: Router sites sampled (TWAN is O(100)).
        true_shape: Ground-truth Weibull shape of the generator.
        true_scale: Ground-truth Weibull scale (endpoints per site).
        seed: RNG seed.
    """
    from scipy import stats  # loaded on use: see WeibullEndpointModel.cdf

    rng = np.random.default_rng(seed)
    model = WeibullEndpointModel(shape=true_shape, scale=true_scale)
    counts = model.sample_counts(num_sites, rng)
    fitted = WeibullEndpointModel.fit(counts.tolist())

    grid = np.logspace(0, np.log10(counts.max()) + 0.1, 200)
    sorted_counts = np.sort(counts)
    empirical = np.searchsorted(
        sorted_counts, grid, side="right"
    ) / float(num_sites)
    fitted_cdf = np.asarray(fitted.cdf(grid), dtype=np.float64)
    ks = float(
        stats.kstest(
            counts,
            "weibull_min",
            args=(fitted.shape, 0.0, fitted.scale),
        ).statistic
    )
    return Fig08Result(
        counts=counts,
        grid=grid,
        empirical_cdf=empirical,
        fitted_cdf=fitted_cdf,
        fitted_model=fitted,
        ks_statistic=ks,
        spread_orders_of_magnitude=float(
            np.log10(counts.max() / max(counts.min(), 1))
        ),
    )
