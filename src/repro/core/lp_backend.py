"""Pluggable LP backends for the MaxSiteFlow solve.

The control loop solves the *same LP shape* every TE interval — only the
objective coefficients and the right-hand side change between calls
(:class:`~repro.core.siteflow.SiteFlowSolver` already caches the
constraint matrix per topology).  That makes the backend boundary
exactly one function: ``solve(cost, b_ub) -> (x, row_prices, warm)`` —
the primal solution and, beside it, every constraint row's non-negative
dual price.  A backend only ever sees the *whole* LP: the price-guided
reduction in :mod:`repro.core.siteflow` sits above this seam and hands
its restricted LPs (each with its own column set, so nothing to persist)
to :func:`solve_lp` directly.  Two implementations:

* ``scipy`` (default): one :func:`solve_lp` call per solve.  Stateless —
  what carries over between intervals is the caller's price hint — and
  always available; this is the digest-pinned reference path every
  equivalence test runs on.
* ``highspy``: a persistent ``highspy.Highs`` model per solver, built
  once from the cached constraint matrix; each subsequent solve
  hot-updates only the column costs and row upper bounds and re-runs,
  so HiGHS re-solves from the previous call's simplex basis (a warm
  start — consecutive TE intervals differ by a small diurnal demand
  drift, so the old basis is usually a few pivots from optimal).
  Optional: used only when the ``highspy`` wheel is importable.

Selection order: explicit argument > ``REPRO_LP_BACKEND`` environment
variable > ``"scipy"``.  ``"auto"`` picks highspy when importable and
falls back to scipy otherwise; requesting ``"highspy"`` when the module
is absent *also* degrades to scipy — a missing optional dependency must
never break the serving loop, so no ImportError escapes this module.
"""

from __future__ import annotations

import importlib
import os

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendUnavailable",
    "LPSolveError",
    "ScipyBackend",
    "HighspyBackend",
    "highspy_available",
    "make_backend",
    "resolve_backend_name",
    "solve_lp",
]

#: Environment variable consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "REPRO_LP_BACKEND"

_BACKEND_NAMES = ("scipy", "highspy", "auto")


class BackendUnavailable(RuntimeError):
    """Raised when a backend cannot be constructed (missing module)."""


class LPSolveError(RuntimeError):
    """HiGHS did not solve an LP to optimality.

    Attributes:
        status: HiGHS's status (scipy's integer code or the highspy
            ``HighsModelStatus``).
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


def highspy_available() -> bool:
    """Whether the optional ``highspy`` wheel is importable.

    Uses an actual import attempt (not ``find_spec``) so tests can
    simulate absence by poisoning ``sys.modules["highspy"]``.
    """
    try:
        importlib.import_module("highspy")
    except ImportError:
        return False
    return True


def resolve_backend_name(requested: str | None = None) -> str:
    """Resolve the effective backend name.

    Args:
        requested: ``"scipy"``, ``"highspy"``, ``"auto"`` or ``None``
            (consult :data:`BACKEND_ENV_VAR`, default ``"scipy"``).

    Returns:
        ``"scipy"`` or ``"highspy"``.  Never raises on a missing
        highspy — ``"auto"`` and ``"highspy"`` both degrade to
        ``"scipy"`` when the module is not importable.
    """
    name = requested or os.environ.get(BACKEND_ENV_VAR) or "scipy"
    name = name.strip().lower()
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown LP backend {name!r}; expected one of {_BACKEND_NAMES}"
        )
    if name == "scipy":
        return "scipy"
    return "highspy" if highspy_available() else "scipy"


class ScipyBackend:
    """One ``linprog(method="highs")`` call per solve (reference path)."""

    name = "scipy"

    def __init__(self, constraint_matrix) -> None:
        self._a_ub = constraint_matrix

    def solve(
        self, cost: np.ndarray, b_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Solve the whole LP; returns ``(x, row_prices, warm)``."""
        return *solve_lp(cost, self._a_ub, b_ub), False


class HighspyBackend:
    """Persistent HiGHS model: build once, hot-update costs/RHS per solve.

    The model is constructed lazily on the first :meth:`solve`; every
    later call only changes the column costs and the row upper bounds
    (constraints are ``Ax ≤ b`` with fixed ``A``), so HiGHS keeps its
    factorization and basis and warm-starts the re-solve.

    Attributes:
        num_solves: Solves performed on the persistent model.
    """

    name = "highspy"

    def __init__(self, constraint_matrix) -> None:
        try:
            self._highspy = importlib.import_module("highspy")
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise BackendUnavailable(
                "highspy is not importable; install the 'highs' extra"
            ) from exc
        csc = constraint_matrix.tocsc()
        self._num_rows, self._num_cols = csc.shape
        self._starts = np.asarray(csc.indptr, dtype=np.int64)
        self._indices = np.asarray(csc.indices, dtype=np.int64)
        self._values = np.asarray(csc.data, dtype=np.float64)
        self._model = None
        self.num_solves = 0

    def _build(self, cost: np.ndarray, b_ub: np.ndarray):
        hs = self._highspy
        model = hs.Highs()
        try:  # silence per-solve logging; not fatal if the option moved
            model.setOptionValue("output_flag", False)
        except Exception:  # pragma: no cover - version-dependent
            pass
        inf = hs.kHighsInf
        lp = hs.HighsLp()
        lp.num_col_ = int(self._num_cols)
        lp.num_row_ = int(self._num_rows)
        lp.col_cost_ = np.asarray(cost, dtype=np.float64)
        lp.col_lower_ = np.zeros(self._num_cols, dtype=np.float64)
        lp.col_upper_ = np.full(self._num_cols, inf, dtype=np.float64)
        lp.row_lower_ = np.full(self._num_rows, -inf, dtype=np.float64)
        lp.row_upper_ = np.asarray(b_ub, dtype=np.float64)
        lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = self._starts
        lp.a_matrix_.index_ = self._indices
        lp.a_matrix_.value_ = self._values
        model.passModel(lp)
        return model

    def _update(self, cost: np.ndarray, b_ub: np.ndarray) -> None:
        model = self._model
        inf = self._highspy.kHighsInf
        model.changeColsCostByRange(
            0, self._num_cols - 1, np.asarray(cost, dtype=np.float64)
        )
        model.changeRowsBoundsByRange(
            0,
            self._num_rows - 1,
            np.full(self._num_rows, -inf, dtype=np.float64),
            np.asarray(b_ub, dtype=np.float64),
        )

    def solve(
        self, cost: np.ndarray, b_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Solve via the persistent model; ``(x, row_prices, warm)``."""
        hs = self._highspy
        warm = self._model is not None
        if warm:
            self._update(cost, b_ub)
        else:
            self._model = self._build(cost, b_ub)
        self._model.run()
        status = self._model.getModelStatus()
        if status != hs.HighsModelStatus.kOptimal:
            # Drop the model so the next call rebuilds from scratch
            # rather than re-solving from a possibly corrupt basis.
            self._model = None
            raise LPSolveError(status, f"HiGHS status {status}")
        solution = self._model.getSolution()
        x = np.asarray(solution.col_value, dtype=np.float64)
        row_dual = np.asarray(solution.row_dual, dtype=np.float64)
        self.num_solves += 1
        return np.maximum(x, 0.0), np.maximum(-row_dual, 0.0), warm


def make_backend(name: str, constraint_matrix):
    """Construct a backend instance for a prepared constraint matrix."""
    if name == "scipy":
        return ScipyBackend(constraint_matrix)
    if name == "highspy":
        return HighspyBackend(constraint_matrix)
    raise ValueError(f"unknown LP backend {name!r}")
