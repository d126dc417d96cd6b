"""Control-loop replay: solve a sequence of TE intervals and profile it.

The TE controller's steady state is a loop — every interval (paper §2: 5
minutes in production) it receives a fresh demand matrix on an unchanged
topology and re-solves.  This harness replays that loop over a
:class:`~repro.traffic.matrices.DiurnalSequence` and aggregates the
per-phase timing breakdown from ``TEResult.stats["phase_s"]``, so interval
hot-path optimizations (cached LP scaffolding, second-stage triage,
vectorized residual accounting) are observable end to end rather than per
call.

The report also carries a SHA-256 digest of every interval's flow
assignment, which makes "two solver configurations produce bit-identical
allocations over a whole replay" a one-line assertion — the equivalence
contract the batched second stage is held to.

Used by ``benchmarks/test_perf_interval_solve.py`` (trajectory artifact)
and the tier-1 perf smoke / equivalence tests.

:func:`run_cold_vs_incremental` is the comparison mode: the same replay
once cold and once with the incremental engine
(:mod:`repro.core.incremental`), reporting the stage1+stage2 speedup,
how much reuse actually fired, and whether the digests match (they must
at ``delta_threshold=0.0``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .. import checks
from ..core import MegaTEOptimizer
from ..core.types import PHASE_KEYS, StatKey
from ..obs import get_tracer
from ..traffic import DiurnalSequence
from .common import build_scenario

__all__ = [
    "IntervalReplayReport",
    "replay_intervals",
    "run_interval_replay",
    "run_cold_vs_incremental",
]


@dataclass
class IntervalReplayReport:
    """Aggregate outcome of an N-interval control-loop replay.

    Attributes:
        topology: Topology name the replay ran on.
        num_intervals: Intervals solved.
        num_flows: Endpoint pairs per interval (constant across the
            sequence — only volumes fluctuate).
        stage1_lp_s: Summed first-stage (MaxSiteFlow) seconds.
        stage2_ssp_s: Summed second-stage (MaxEndpointFlow) seconds.
        total_runtime_s: Summed end-to-end ``TEResult.runtime_s``.
        phase_s: Summed per-phase breakdown (keys of
            :data:`repro.core.twostage.PHASE_KEYS`).
        satisfied_volume: Summed satisfied demand across intervals.
        num_uncontended_pairs: Site-pair solves resolved by triage alone.
        num_contended_pairs: Site-pair solves that ran full FastSSP.
        assignment_digest: SHA-256 over every interval's per-pair
            assignment arrays, in interval order — equal digests mean
            bit-identical allocations.
        backend: LP backend, always ``"scipy"`` (kept for the bench
            history schema).
        lp_solves: Full LP solves across the replay.
        lp_solves_skipped: Class solves served by the delta fast path.
        lp_warm_starts: LP solves that followed the previous interval's
            link prices (the guided stage-1 path).
        pairs_delta_patched: Demand-changed site pairs absorbed by the
            delta fast path.
        ssp_state_reused: Contended pair solves served by the carried
            second-stage state.
        ssp_backend: FastSSP implementation of the second stage
            (``"numpy"`` for the kernel, ``"scalar"`` for its
            reference); constant across a replay.
        ssp_batch_phase_s: Summed kernel phase breakdown (keys of
            :data:`repro.core.fastssp.SSP_PHASE_KEYS`); empty when the
            reference ran.
    """

    topology: str
    num_intervals: int
    num_flows: int
    stage1_lp_s: float = 0.0
    stage2_ssp_s: float = 0.0
    total_runtime_s: float = 0.0
    phase_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASE_KEYS, 0.0)
    )
    satisfied_volume: float = 0.0
    num_uncontended_pairs: int = 0
    num_contended_pairs: int = 0
    assignment_digest: str = ""
    backend: str = "scipy"
    lp_solves: int = 0
    lp_solves_skipped: int = 0
    lp_warm_starts: int = 0
    pairs_delta_patched: int = 0
    ssp_state_reused: int = 0
    ssp_backend: str = "scalar"
    ssp_batch_phase_s: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serializable view for benchmark artifacts."""
        return {
            "topology": self.topology,
            "num_intervals": self.num_intervals,
            "num_flows": self.num_flows,
            "stage1_lp_s": self.stage1_lp_s,
            "stage2_ssp_s": self.stage2_ssp_s,
            "total_runtime_s": self.total_runtime_s,
            "phase_s": dict(self.phase_s),
            "satisfied_volume": self.satisfied_volume,
            "num_uncontended_pairs": self.num_uncontended_pairs,
            "num_contended_pairs": self.num_contended_pairs,
            "assignment_digest": self.assignment_digest,
            "backend": self.backend,
            "lp_solves": self.lp_solves,
            "lp_solves_skipped": self.lp_solves_skipped,
            "lp_warm_starts": self.lp_warm_starts,
            "pairs_delta_patched": self.pairs_delta_patched,
            "ssp_state_reused": self.ssp_state_reused,
            "ssp_backend": self.ssp_backend,
            "ssp_batch_phase_s": dict(self.ssp_batch_phase_s),
        }


def replay_intervals(
    topology,
    sequence: DiurnalSequence,
    num_intervals: int,
    optimizer: MegaTEOptimizer | None = None,
    topology_name: str = "",
) -> IntervalReplayReport:
    """Solve ``num_intervals`` consecutive matrices of ``sequence``.

    Args:
        topology: Contracted two-layer topology (held fixed, as in the
            production loop — this is what makes the per-topology solver
            cache pay off).
        sequence: Demand-matrix sequence; interval ``i`` uses
            ``sequence.matrix(i)``.
        num_intervals: Intervals to replay.
        optimizer: Solver to drive; a default :class:`MegaTEOptimizer`
            when omitted.
        topology_name: Label recorded in the report.
    """
    checks.positive("num_intervals", num_intervals)
    if optimizer is None:
        optimizer = MegaTEOptimizer()
    # A replay is one fresh control-loop run: never inherit carried
    # state from a previous replay driven through the same optimizer.
    optimizer.reset_incremental_state()
    digest = hashlib.sha256()
    report = IntervalReplayReport(
        topology=topology_name,
        num_intervals=num_intervals,
        num_flows=sequence.base.num_endpoint_pairs,
    )
    tracer = get_tracer()
    for interval in range(num_intervals):
        with tracer.span("te.interval", interval=interval):
            result = optimizer.solve(topology, sequence.matrix(interval))
        stats = result.stats
        report.stage1_lp_s += stats[StatKey.STAGE1_LP_S]
        report.stage2_ssp_s += stats[StatKey.STAGE2_SSP_S]
        report.total_runtime_s += result.runtime_s
        for key, seconds in stats[StatKey.PHASE_S].items():
            report.phase_s[key] = report.phase_s.get(key, 0.0) + seconds
        report.satisfied_volume += result.satisfied_volume
        report.num_uncontended_pairs += stats[
            StatKey.NUM_UNCONTENDED_PAIRS
        ]
        report.num_contended_pairs += stats[StatKey.NUM_CONTENDED_PAIRS]
        report.lp_solves += stats.get(StatKey.LP_SOLVES, 0)
        report.lp_solves_skipped += stats.get(
            StatKey.LP_SOLVES_SKIPPED, 0
        )
        report.lp_warm_starts += stats.get(StatKey.LP_WARM_START, 0)
        report.pairs_delta_patched += stats.get(
            StatKey.PAIRS_DELTA_PATCHED, 0
        )
        report.ssp_state_reused += stats.get(StatKey.SSP_STATE_REUSED, 0)
        report.ssp_backend = stats.get(
            StatKey.SSP_BACKEND, report.ssp_backend
        )
        for key, seconds in stats.get(
            StatKey.SSP_BATCH_PHASE_S, {}
        ).items():
            report.ssp_batch_phase_s[key] = (
                report.ssp_batch_phase_s.get(key, 0.0) + seconds
            )
        for arr in result.assignment.per_pair:
            digest.update(arr.tobytes())
    report.assignment_digest = digest.hexdigest()
    return report


def run_interval_replay(
    topology_name: str = "twan",
    total_endpoints: int = 20_000,
    num_site_pairs: int = 60,
    target_load: float = 1.0,
    seed: int = 42,
    sequence_seed: int = 5,
    num_intervals: int = 10,
    optimizer: MegaTEOptimizer | None = None,
) -> IntervalReplayReport:
    """Build the standard replay scenario and run it.

    Defaults reproduce the benchmark configuration: the 100-site TWAN
    topology with the default synthetic trace, diurnally modulated over
    ten intervals.
    """
    scenario = build_scenario(
        topology_name,
        total_endpoints=total_endpoints,
        num_site_pairs=num_site_pairs,
        target_load=target_load,
        seed=seed,
    )
    sequence = DiurnalSequence(base=scenario.demands, seed=sequence_seed)
    return replay_intervals(
        scenario.topology,
        sequence,
        num_intervals,
        optimizer=optimizer,
        topology_name=topology_name,
    )


def run_cold_vs_incremental(
    topology_name: str = "twan",
    total_endpoints: int = 20_000,
    num_site_pairs: int = 60,
    target_load: float = 1.0,
    seed: int = 42,
    sequence_seed: int = 5,
    num_intervals: int = 10,
    delta_threshold: float = 1.5,
) -> dict:
    """Replay the same interval sequence cold and incrementally.

    Runs the standard replay scenario twice — once with a cold
    per-interval :class:`MegaTEOptimizer` and once with the incremental
    engine at ``delta_threshold`` — and reports both, the stage1+stage2
    solver-time speedup, how much of each reuse mechanism fired, and
    (as satisfaction quality is traded at a positive threshold) the
    satisfied-volume ratio.  ``digest_match`` is ``True`` iff both runs
    produced bit-identical assignments, which the engine guarantees at
    ``delta_threshold=0.0``.

    Returns:
        A JSON-serializable dict with ``cold``, ``incremental``,
        ``solver_speedup``, ``satisfied_ratio`` and ``digest_match``.
    """
    config = dict(
        topology_name=topology_name,
        total_endpoints=total_endpoints,
        num_site_pairs=num_site_pairs,
        target_load=target_load,
        seed=seed,
        sequence_seed=sequence_seed,
        num_intervals=num_intervals,
    )
    cold = run_interval_replay(optimizer=MegaTEOptimizer(), **config)
    incremental = run_interval_replay(
        optimizer=MegaTEOptimizer(
            incremental=True, delta_threshold=delta_threshold
        ),
        **config,
    )
    cold_solver = cold.stage1_lp_s + cold.stage2_ssp_s
    inc_solver = incremental.stage1_lp_s + incremental.stage2_ssp_s
    return {
        "config": {**config, "delta_threshold": delta_threshold},
        "cold": cold.as_dict(),
        "incremental": incremental.as_dict(),
        "solver_speedup": (
            cold_solver / inc_solver if inc_solver > 0 else float("inf")
        ),
        "satisfied_ratio": (
            incremental.satisfied_volume / cold.satisfied_volume
            if cold.satisfied_volume > 0
            else 1.0
        ),
        "digest_match": (
            cold.assignment_digest == incremental.assignment_digest
        ),
    }
