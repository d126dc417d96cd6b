"""Stream study: trigger policies vs the every-event oracle.

Experiment wrapper around the streaming control loop
(:mod:`repro.simulation.streaming`): it pins the study configuration,
builds the TWAN scenario, and drains the same seeded event stream
through four configurations —

1. the **oracle** (full re-solve on every event batch, admission off):
   the competitive-ratio baseline from the online-TE literature;
2. the **candidate trigger** (admission off): what fraction of the
   oracle's satisfied volume does it keep, at what fraction of the
   oracle's solves;
3. the candidate **without admission** — the QoS-1 baseline that shows
   flash-crowd damage is real.  It differs from 2 only by the
   predictor, so without one it is the same run, reported twice;
4. the candidate **with admission** — the headline run whose QoS-1
   floor the acceptance gate checks.  It runs last, so the
   ``megate_stream_*`` series left in the metrics registry describe
   it for ``--metrics-out``.

The outcome dict becomes a ``kind: "stream"`` bench-history record so
control-loop regressions (oracle ratio, solve budget, QoS-1 floor)
are caught across PRs exactly like perf and soak regressions.

Record naming mirrors the soak study: scenario, trigger, topology
scale, horizon, and seed are all part of the config name
(``stream-flash-crowd-hybrid-twan-6k-96e-s0``), because the history's
same-name-identical-config invariant means any knob that may vary
between runs has to vary the name too.
"""

from __future__ import annotations

from pathlib import Path

from ..core import MegaTEOptimizer
from ..simulation.admission import AdmissionConfig
from ..simulation.streaming import (
    OracleTrigger,
    StreamReport,
    make_trigger,
    run_stream,
    stream_scenario_events,
)
from .bench_history import append_history_record, validate_history_record
from .common import build_scenario, scale_label, study_config

__all__ = [
    "STREAM_DEFAULTS",
    "stream_config",
    "stream_config_name",
    "run_stream_study",
    "stream_history_record",
    "append_stream_record",
]

#: Pinned defaults of the stream trajectory.  As with the soak study,
#: every knob that commonly varies is folded into the config name, so
#: overriding one starts a new comparison baseline.
STREAM_DEFAULTS = dict(
    topology_name="twan",
    total_endpoints=6_000,
    num_site_pairs=36,
    target_load=0.8,
    seed=0,
    num_epochs=96,
    tick_s=30.0,
    threshold=0.25,
    refresh_s=600.0,
    period_s=300.0,
    budget_factor=1.15,
)


def stream_config(scenario: str = "flash-crowd", **overrides) -> dict:
    """The study config for one scenario (defaults + overrides)."""
    return study_config("stream", STREAM_DEFAULTS, scenario, overrides)


def stream_config_name(cfg: dict, trigger: str = "hybrid") -> str:
    """The history trajectory name of a stream config."""
    return (
        f"stream-{cfg['scenario']}-{trigger}-{cfg['topology_name']}"
        f"-{scale_label(cfg['total_endpoints'])}"
        f"-{cfg['num_epochs']}e-s{cfg['seed']}"
    )


def _report_summary(report: StreamReport) -> dict:
    return {
        "solves": report.solves,
        "solves_full": report.solves_full,
        "solves_delta": report.solves_delta,
        "solves_per_event": report.solves_per_event,
        "num_events": report.num_events,
        "offered_volume": report.offered_volume,
        "delivered_volume": report.delivered_volume,
        "satisfied_fraction": report.satisfied_fraction,
        "qos1_fraction": report.qos1_fraction,
        "qos1_floor": report.qos1_floor,
        "delivered_floor": report.delivered_floor,
        "assignment_digest": report.assignment_digest,
        "identity_digest": report.identity_digest(),
        "total_runtime_s": report.total_runtime_s,
    }


def run_stream_study(
    scenario: str = "flash-crowd",
    trigger: str = "hybrid",
    predictor=None,
    **overrides,
) -> dict:
    """Sweep one trigger policy against the every-event oracle.

    Runs the identical seeded event stream through the oracle and the
    candidate trigger (both admission-off, so the satisfied-volume
    ratio isolates the *trigger's* cost), then through the candidate
    with and without admission control (so the QoS-1 floor comparison
    isolates the *admission* benefit).  All four runs share one
    incremental optimizer configuration at ``delta_threshold=0.0`` —
    exact reuse, digests comparable to cold solves.

    Args:
        scenario: Streaming scenario name
            (:data:`~repro.simulation.streaming.STREAM_SCENARIO_NAMES`).
        trigger: Candidate trigger name
            (:data:`~repro.simulation.streaming.TRIGGER_NAMES`).
        predictor: Optional forecaster threaded into the candidate
            runs' trigger decisions.  Note the predictor is stateful —
            a fresh instance per study call.
        **overrides: :data:`STREAM_DEFAULTS` keys to override.

    Returns:
        A dict with the config, per-run summaries (``oracle``,
        ``trigger``, ``no_admission``, ``admission``), and the
        headline comparison metrics (``oracle_ratio``,
        ``solves_fraction``).
    """
    cfg = stream_config(scenario, **overrides)
    built = build_scenario(
        cfg["topology_name"],
        total_endpoints=cfg["total_endpoints"],
        num_site_pairs=cfg["num_site_pairs"],
        target_load=cfg["target_load"],
        seed=cfg["seed"],
    )
    events = stream_scenario_events(
        scenario,
        cfg["num_site_pairs"],
        cfg["num_epochs"],
        tick_s=cfg["tick_s"],
        seed=cfg["seed"],
    )
    candidate = make_trigger(
        trigger,
        threshold=cfg["threshold"],
        period_s=cfg["period_s"],
        refresh_s=cfg["refresh_s"],
    )

    def one(trig, admission=None, use_predictor=False):
        return run_stream(
            built.topology,
            built.demands,
            events,
            cfg["num_epochs"],
            tick_s=cfg["tick_s"],
            trigger=trig,
            optimizer=MegaTEOptimizer(incremental=True, delta_threshold=0.0),
            predictor=predictor if use_predictor else None,
            admission=admission,
            seed=cfg["seed"],
            scenario=scenario,
            topology_name=cfg["topology_name"],
        )

    oracle = one(OracleTrigger())
    cand = one(candidate, use_predictor=True)
    no_admission = cand if predictor is None else one(candidate)
    # Headline run last: its megate_stream_* series stay in the
    # registry for the CLI's --metrics-out dump.
    admission = one(
        candidate,
        admission=AdmissionConfig(budget_factor=cfg["budget_factor"]),
        use_predictor=False,
    )

    oracle_ratio = (
        cand.delivered_volume / oracle.delivered_volume
        if oracle.delivered_volume > 0
        else 1.0
    )
    solves_fraction = (
        cand.solves / oracle.solves if oracle.solves else 0.0
    )
    return {
        "scenario": scenario,
        "trigger": trigger,
        "config": cfg,
        "oracle": _report_summary(oracle),
        "candidate": _report_summary(cand),
        "no_admission": _report_summary(no_admission),
        "admission": {
            **_report_summary(admission),
            "shed_volume": admission.shed_volume,
            "admission_policy": admission.admission,
        },
        "oracle_ratio": oracle_ratio,
        "solves_fraction": solves_fraction,
    }


def stream_history_record(
    study: dict,
    timestamp: str,
    git_sha: str,
) -> dict:
    """A validated ``stream`` history record for one finished study."""
    from ..core.pairfill import resolve_ssp_backend_name

    cfg = study["config"]
    config = {k: v for k, v in cfg.items() if k != "scenario"}
    # The shared trajectory tooling keys comparable runs on the perf
    # config vocabulary; an epoch is the stream's interval.
    config["num_intervals"] = config.pop("num_epochs")
    record = {
        "timestamp": timestamp,
        "git_sha": git_sha,
        "kind": "stream",
        "ssp_backend": resolve_ssp_backend_name(),
        "config_name": stream_config_name(cfg, study["trigger"]),
        "config": config,
        "scenario": study["scenario"],
        "seed": cfg["seed"],
        "trigger": study["trigger"],
        "oracle_ratio": study["oracle_ratio"],
        "solves_fraction": study["solves_fraction"],
        "qos1_floor": study["admission"]["qos1_floor"],
        "qos1_floor_no_admission": study["no_admission"]["qos1_floor"],
        "shed_volume": study["admission"]["shed_volume"],
        "solves": study["candidate"]["solves"],
        "oracle_solves": study["oracle"]["solves"],
        "identity_digest": study["candidate"]["identity_digest"],
        "assignment_digest": study["candidate"]["assignment_digest"],
    }
    validate_history_record(record)
    return record


def append_stream_record(path: Path | str, record: dict) -> int:
    """Append one validated stream record to a history artifact;
    returns the history length after the append."""
    return append_history_record(path, record)
