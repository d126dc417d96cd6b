"""Stream lane: trigger-vs-oracle acceptance over the control loop.

Runs the :mod:`repro.experiments.stream_study` harness on the pinned
flash-crowd configuration and gates the streaming control loop's
headline claims:

* the hybrid trigger keeps >= 97% of the every-event oracle's
  delivered volume at <= 20% of its solves;
* admission control holds the QoS-1 per-epoch floor at >= 0.99 through
  the flash crowd, with metered shed volume, while the no-admission
  baseline degrades below that floor (the protection is real, not a
  scenario that never threatened QoS-1);
* a same-seed re-run agrees on the identity digest (wall-clock
  timings excluded).

The leg appends a ``kind: "stream"`` record to the same
``BENCH_interval_solve.json`` trajectory the perf and soak benchmarks
write, so control-loop regressions surface across PRs the same way.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments.bench_history import git_sha
from repro.experiments.stream_study import (
    append_stream_record,
    run_stream_study,
    stream_config,
    stream_config_name,
    stream_history_record,
)

from conftest import run_once

pytestmark = pytest.mark.perf

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_interval_solve.json"

#: Pinned study leg.  The config name embeds scenario, trigger, scale,
#: horizon and seed, so changing any knob starts a new trajectory.
SCENARIO = "flash-crowd"
TRIGGER = "hybrid"
SEED = 0

#: Acceptance gates (see docs/EXPERIMENTS.md for the measured margins).
MIN_ORACLE_RATIO = 0.97
MAX_SOLVES_FRACTION = 0.20
MIN_QOS1_FLOOR = 0.99


def test_stream_flash_crowd_acceptance(benchmark):
    study = run_once(
        benchmark,
        lambda: run_stream_study(SCENARIO, trigger=TRIGGER, seed=SEED),
    )
    cfg = study["config"]

    print(
        f"\nstream {SCENARIO}/{TRIGGER} (seed {SEED}): "
        f"{cfg['num_epochs']} epochs, "
        f"{study['candidate']['num_events']} events"
    )
    print(
        f"  oracle ratio {study['oracle_ratio']:.4f} "
        f"({study['candidate']['solves']} solves vs "
        f"{study['oracle']['solves']} oracle = "
        f"{study['solves_fraction']:.1%})"
    )
    print(
        f"  qos1 floor {study['admission']['qos1_floor']:.5f} with "
        f"admission (shed {study['admission']['shed_volume']:.1f}) vs "
        f"{study['no_admission']['qos1_floor']:.5f} without"
    )

    # Trigger economy: near-oracle delivery at a fraction of the solves.
    assert study["oracle_ratio"] >= MIN_ORACLE_RATIO
    assert study["solves_fraction"] <= MAX_SOLVES_FRACTION
    assert 0 < study["candidate"]["solves"] < study["oracle"]["solves"]

    # Admission protection: QoS-1 floor holds through the flash crowd,
    # volume is actually shed, and the unprotected baseline actually
    # degrades (otherwise the scenario proves nothing).
    assert study["admission"]["qos1_floor"] >= MIN_QOS1_FLOOR
    assert study["admission"]["shed_volume"] > 0
    assert study["no_admission"]["qos1_floor"] < MIN_QOS1_FLOOR
    assert (
        study["admission"]["qos1_floor"]
        > study["no_admission"]["qos1_floor"]
    )

    # Determinism pin: same seed, same study, same identity.
    rerun = run_stream_study(SCENARIO, trigger=TRIGGER, seed=SEED)
    assert (
        rerun["candidate"]["identity_digest"]
        == study["candidate"]["identity_digest"]
    )
    assert (
        rerun["admission"]["identity_digest"]
        == study["admission"]["identity_digest"]
    )

    record = stream_history_record(
        study,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_sha=git_sha(ARTIFACT.parent),
    )
    total = append_stream_record(ARTIFACT, record)
    name = stream_config_name(
        stream_config(SCENARIO, seed=SEED), TRIGGER
    )
    print(
        f"  appended {name} to {ARTIFACT.name} "
        f"({total} history records)"
    )

    benchmark.extra_info["scenario"] = SCENARIO
    benchmark.extra_info["trigger"] = TRIGGER
    benchmark.extra_info["oracle_ratio"] = study["oracle_ratio"]
    benchmark.extra_info["solves_fraction"] = study["solves_fraction"]
    benchmark.extra_info["qos1_floor"] = study["admission"]["qos1_floor"]
    benchmark.extra_info["identity_digest"] = study["candidate"][
        "identity_digest"
    ]
