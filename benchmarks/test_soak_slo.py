"""Soak lane: scenario-matrix SLO gate over the long-horizon engine.

Runs the :mod:`repro.experiments.soak_study` harness over a fixed-seed
scenario matrix — every event mix replayed through the incremental
solve engine with the sync plane live — and asserts the
:class:`~repro.simulation.soak.SLOReport` computed from each run's
metrics snapshot against the default SLO spec.  A same-seed re-run of
the first leg pins determinism: the identity digest (everything except
wall-clock timings) must be byte-equal.

Each leg appends a ``kind: "soak"`` record to the same
``BENCH_interval_solve.json`` trajectory the perf benchmarks write;
:mod:`repro.experiments.bench_history` validates the soak schema and
``tools/check_slo_regression.py`` gates fresh runs against the history.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments.bench_history import git_sha
from repro.experiments.soak_study import (
    append_soak_record,
    run_soak_study,
    soak_config,
    soak_config_name,
    soak_history_record,
)

from conftest import run_once

pytestmark = pytest.mark.perf

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_interval_solve.json"

#: Fixed-seed scenario matrix.  Records key trajectories by config name
#: (which embeds scenario, scale, horizon and seed), so changing any
#: value here starts a new comparison baseline automatically.
SOAK_SCALE = dict(
    total_endpoints=6_000,
    num_site_pairs=36,
    num_intervals=20,
    num_agents=24,
    num_shards=4,
)

SOAK_MATRIX = (
    ("full-mix", 0),
    ("link-flap", 1),
    ("sync-storm", 2),
)


def test_soak_scenario_matrix_slo(benchmark):
    reports = {}
    for i, (scenario, seed) in enumerate(SOAK_MATRIX):
        run = lambda: run_soak_study(scenario, seed=seed, **SOAK_SCALE)  # noqa: E731
        t0 = time.perf_counter()
        # The benchmarked leg is the first (full-mix) run; the rest of
        # the matrix runs outside the timer.
        report = run_once(benchmark, run) if i == 0 else run()
        wall_s = time.perf_counter() - t0
        reports[(scenario, seed)] = report

        slo = report.slo
        print(
            f"\nsoak {scenario} (seed {seed}): "
            f"{report.num_intervals} intervals, "
            f"{len(report.event_log)} events, wall {wall_s:.1f}s"
        )
        print(
            f"  availability {slo.availability:.4f}, "
            f"staleness p99 {slo.staleness_p99_s:.1f}s, "
            f"degraded {slo.degraded_fraction:.4f}, "
            f"delivered floor {slo.delivered_floor:.3f}, "
            f"solver p99 {slo.solver_phase_p99_s:.3f}s"
        )
        # The gate: any missed SLO raises SLOViolation and fails the leg.
        report.assert_slos()

        cfg = soak_config(scenario, seed=seed, **SOAK_SCALE)
        record = soak_history_record(
            report,
            cfg,
            timestamp=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            git_sha=git_sha(ARTIFACT.parent),
        )
        total = append_soak_record(ARTIFACT, record)
        print(
            f"  appended {soak_config_name(cfg)} to {ARTIFACT.name} "
            f"({total} history records)"
        )

    # Determinism pin: a same-seed re-run of the first leg must agree on
    # every deterministic field (the identity digest excludes timings).
    scenario, seed = SOAK_MATRIX[0]
    rerun = run_soak_study(scenario, seed=seed, **SOAK_SCALE)
    first = reports[(scenario, seed)]
    assert rerun.identity_digest() == first.identity_digest()
    assert rerun.assignment_digest == first.assignment_digest

    benchmark.extra_info["scenarios"] = [s for s, _ in SOAK_MATRIX]
    benchmark.extra_info["identity_digest"] = first.identity_digest()
    benchmark.extra_info["availability"] = first.slo.availability
    benchmark.extra_info["delivered_floor"] = first.slo.delivered_floor
