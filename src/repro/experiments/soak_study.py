"""Soak study: scenario-matrix soak runs with SLO-gated history records.

Thin experiment wrapper around the soak engine
(:mod:`repro.simulation.soak`): it pins the study configuration (the
same way the replay bench pins its perf configs), builds the TWAN
scenario and diurnal sequence, switches on the incremental
cross-interval engine, and turns the resulting
:class:`~repro.simulation.soak.SoakReport` into a ``soak`` bench-history
record so failure-behavior regressions are caught like perf
regressions.

Record naming: the scenario mix, topology scale, horizon, and seed are
all part of the config name (``soak-full-mix-twan-20k-50i-s0``), because
the history's same-name-identical-config invariant means any knob that
may vary between runs has to vary the name too.
"""

from __future__ import annotations

from pathlib import Path

from ..core import MegaTEOptimizer
from ..simulation.soak import (
    SLOSpec,
    SoakReport,
    run_soak,
    scenario_events,
)
from ..traffic import DiurnalSequence
from .bench_history import append_history_record, validate_history_record
from .common import build_scenario

__all__ = [
    "SOAK_DEFAULTS",
    "soak_config",
    "soak_config_name",
    "run_soak_study",
    "soak_history_record",
    "append_soak_record",
]

#: Pinned defaults of the soak trajectory.  Records sharing a config
#: name must carry byte-equal config blocks (``load_history`` enforces
#: it); every knob that commonly varies is folded into the name by
#: :func:`soak_config_name`, so overriding one simply starts a new
#: comparison baseline.
SOAK_DEFAULTS = dict(
    topology_name="twan",
    total_endpoints=20_000,
    num_site_pairs=60,
    target_load=1.0,
    seed=0,
    sequence_seed=5,
    num_intervals=50,
    interval_s=300.0,
    num_agents=40,
    num_shards=4,
)


def soak_config(scenario: str = "full-mix", **overrides) -> dict:
    """The study config for one scenario mix (defaults + overrides)."""
    unknown = set(overrides) - set(SOAK_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown soak config keys: {sorted(unknown)}")
    cfg = dict(SOAK_DEFAULTS)
    cfg.update(overrides)
    cfg["scenario"] = scenario
    return cfg


def soak_config_name(cfg: dict) -> str:
    """The history trajectory name of a soak config."""
    endpoints = cfg["total_endpoints"]
    if endpoints and endpoints % 1_000_000 == 0:
        scale = f"{endpoints // 1_000_000}m"
    elif endpoints and endpoints % 1_000 == 0:
        scale = f"{endpoints // 1_000}k"
    else:
        scale = str(endpoints)
    return (
        f"soak-{cfg['scenario']}-{cfg['topology_name']}-{scale}"
        f"-{cfg['num_intervals']}i-s{cfg['seed']}"
    )


def run_soak_study(
    scenario: str = "full-mix",
    slo_spec: SLOSpec | None = None,
    **overrides,
) -> SoakReport:
    """Run one scenario mix with the full production posture.

    Incremental engine on (``delta_threshold=0.0``, so reuse is exact
    and the assignment digest stays comparable to a cold replay),
    telemetry always on (the engine owns the registry for the run).  SLO
    violations are recorded on the report, not raised — gate with
    :meth:`~repro.simulation.soak.SoakReport.assert_slos`.

    Args:
        scenario: Scenario-mix name
            (:data:`~repro.simulation.soak.SCENARIO_NAMES`).
        slo_spec: SLOs to evaluate (defaults to
            :class:`~repro.simulation.soak.SLOSpec`).
        **overrides: :data:`SOAK_DEFAULTS` keys to override.
    """
    cfg = soak_config(scenario, **overrides)
    built = build_scenario(
        cfg["topology_name"],
        total_endpoints=cfg["total_endpoints"],
        num_site_pairs=cfg["num_site_pairs"],
        target_load=cfg["target_load"],
        seed=cfg["seed"],
    )
    sequence = DiurnalSequence(
        base=built.demands, seed=cfg["sequence_seed"]
    )
    events = scenario_events(
        scenario,
        cfg["num_intervals"],
        seed=cfg["seed"],
        num_shards=cfg["num_shards"],
    )
    return run_soak(
        built.topology,
        sequence,
        cfg["num_intervals"],
        events,
        optimizer=MegaTEOptimizer(incremental=True, delta_threshold=0.0),
        interval_s=cfg["interval_s"],
        num_agents=cfg["num_agents"],
        num_shards=cfg["num_shards"],
        seed=cfg["seed"],
        slo_spec=slo_spec,
        scenario=scenario,
        topology_name=cfg["topology_name"],
    )


def soak_history_record(
    report: SoakReport,
    cfg: dict,
    timestamp: str,
    git_sha: str,
) -> dict:
    """A validated ``soak`` history record for one finished run."""
    from ..core.pairfill import resolve_ssp_backend_name

    record = {
        "timestamp": timestamp,
        "git_sha": git_sha,
        "kind": "soak",
        # The SLO gate baselines only against records from the same
        # FastSSP kernel (tools/check_slo_regression.py); the soak
        # engine runs the optimizer default.
        "ssp_backend": resolve_ssp_backend_name(),
        "config_name": soak_config_name(cfg),
        "config": {k: v for k, v in cfg.items() if k != "scenario"},
        "scenario": report.scenario,
        "seed": report.seed,
        "slo": report.slo.as_dict() if report.slo else {},
        "slo_spec": report.slo_spec.as_dict(),
        "violations": list(report.violations),
        "identity_digest": report.identity_digest(),
        "assignment_digest": report.assignment_digest,
        "resharded_keys": report.resharded_keys,
        "injected_faults": report.injected_faults,
    }
    validate_history_record(record)
    return record


def append_soak_record(path: Path | str, record: dict) -> int:
    """Append one validated soak record to a history artifact in place.

    Only extends ``history`` — whatever snapshot block the perf
    benchmarks last wrote is preserved.  Loads strictly first, refusing
    to append after a corrupt or config-drifted history.

    Returns:
        The history length after the append.
    """
    return append_history_record(path, record)
