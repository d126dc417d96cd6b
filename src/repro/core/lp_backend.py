"""The one LP call behind the MaxSiteFlow solve.

The control loop solves the *same LP shape* every TE interval — only the
objective coefficients and the right-hand side change between calls
(:class:`~repro.core.siteflow.SiteFlowSolver` already caches the
constraint matrix per topology).  :func:`solve_lp` is that call:
``min cᵀx s.t. Ax ≤ b, x ≥ 0`` through ``scipy.optimize.linprog``
(HiGHS), returning the primal solution and, beside it, every constraint
row's non-negative dual price.  It is stateless: what carries over
between intervals is the caller's price hint (the price-guided
reduction in :mod:`repro.core.siteflow`), not a solver basis.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

__all__ = ["LPSolveError", "solve_lp"]


class LPSolveError(RuntimeError):
    """HiGHS did not solve an LP to optimality.

    Attributes:
        status: scipy's integer status code.
        message: HiGHS's own description of it.
    """

    def __init__(self, status, message: str) -> None:
        super().__init__(
            f"MaxSiteFlow LP failed: {message} (status {status})"
        )
        self.status = status
        self.message = message


def solve_lp(
    cost: np.ndarray, a_ub, b_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot ``min cᵀx s.t. Ax ≤ b, x ≥ 0``; returns ``(x, row_prices)``.

    ``row_prices`` are the rows' dual prices as non-negative numbers
    (HiGHS reports the marginals of a minimisation's ``≤`` rows as
    non-positive).
    """
    outcome = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs"
    )
    if not outcome.success:
        raise LPSolveError(outcome.status, outcome.message)
    return (
        np.maximum(outcome.x, 0.0),
        np.maximum(-outcome.ineqlin.marginals, 0.0),
    )
