"""MegaTE's core contribution: the contracted two-stage TE optimization."""

from .exact import ExactSolution, solve_max_all_flow
from .fastssp import FastSSPResult, fast_ssp, fast_ssp_sorted
from .flowtable import FlowTable, PairViews, csr_offsets
from .formulation import MaxAllFlowProblem
from .incremental import IncrementalConfig, IncrementalState
from .lp_backend import LPSolveError
from .pairfill import (
    SSP_BACKEND_NAMES,
    fill_pair,
    fill_pairs,
    resolve_ssp_backend_name,
)
from .qos import PRIORITY_ORDER, QoSClass
from .siteflow import SiteFlowSolver, solve_max_site_flow
from .ssp import (
    SSPSolution,
    brute_force_ssp,
    dp_ssp,
    greedy_ssp,
    meet_in_the_middle_ssp,
)
from .twostage import MegaTEOptimizer
from .types import (
    FeasibilityReport,
    FlowAssignment,
    SiteAllocation,
    TEResult,
    UNASSIGNED,
    check_feasibility,
)

__all__ = [
    "MaxAllFlowProblem",
    "MegaTEOptimizer",
    "QoSClass",
    "PRIORITY_ORDER",
    "fast_ssp",
    "FastSSPResult",
    "dp_ssp",
    "greedy_ssp",
    "brute_force_ssp",
    "meet_in_the_middle_ssp",
    "SSPSolution",
    "solve_max_site_flow",
    "solve_max_all_flow",
    "ExactSolution",
    "TEResult",
    "FlowAssignment",
    "SiteAllocation",
    "FeasibilityReport",
    "check_feasibility",
    "UNASSIGNED",
    "FlowTable",
    "PairViews",
    "csr_offsets",
    "SiteFlowSolver",
    "fill_pair",
    "fill_pairs",
    "SSP_BACKEND_NAMES",
    "fast_ssp_sorted",
    "resolve_ssp_backend_name",
    "IncrementalConfig",
    "IncrementalState",
    "LPSolveError",
]
