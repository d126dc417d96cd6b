"""Interval hot-path benchmark: the control loop's per-interval cost.

Replays ten diurnal intervals on the 100-site TWAN topology with the
default synthetic trace through five solver configurations — the batched
second stage (triage + the contended FastSSP array kernel), the same
triage with the per-pair scalar FastSSP pinned (``ssp_backend="scalar"``),
the reference serial path, and the incremental engine at delta
thresholds 0.0 (bit-exact) and 1.5 (fast path live) — and records the
per-phase timing breakdown
(``TEResult.stats["phase_s"]``) to ``BENCH_interval_solve.json`` at the
repo root.  The artifact keeps the latest snapshot under the mode keys
*and* appends a timestamped record (git sha, config, per-mode
summary) to its ``history`` list, so the perf trajectory across
PRs is preserved rather than overwritten.

The equivalence contracts are asserted here too: batched and serial must
produce bit-identical flow assignments over the whole replay (SHA-256
digest of every interval's assignment arrays), and so must the
incremental engine at threshold 0.0; at threshold 1.5 the engine must
beat the batched baseline's stage1+stage2 time by >= 1.3x with both
reuse mechanisms observably firing.

The artifact also carries the *realization* phases — flow simulation,
congestion-aware latency, and collector ``build_matrix`` over the same
replay — with the pre-columnar (per-pair Python loop) baseline embedded,
so the CSR-layout speedup is tracked alongside the solver trajectory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.controlplane import DemandCollector, FlowRecord
from repro.core import MegaTEOptimizer, QoSClass
from repro.experiments import run_interval_replay
from repro.experiments.bench_history import (
    git_sha,
    load_history,
    validate_history_record,
)
from repro.experiments.common import build_scenario
from repro.simulation import compute_flow_latencies, simulate
from repro.traffic import DiurnalSequence

from conftest import run_once

pytestmark = pytest.mark.perf

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_interval_solve.json"

REPLAY_CONFIG = dict(
    topology_name="twan",
    total_endpoints=20_000,
    num_site_pairs=60,
    target_load=1.0,
    seed=42,
    sequence_seed=5,
    num_intervals=10,
)

#: Pre-columnar realization timings on this replay config (seconds,
#: summed over the 10 intervals; measured on the per-pair Python-loop
#: implementations immediately before the CSR refactor).
PRE_COLUMNAR_BASELINE_S = {
    "flowsim": 0.0445,
    "latency": 0.0338,
    "flowsim_plus_latency": 0.0786,
    "collect_build_matrix": 0.47,
}


#: Delta threshold of the benchmark's live incremental leg (generous:
#: diurnal per-pair deltas reach ~30-80% relative; the link-headroom
#: guard, not the threshold, is the binding feasibility check).
INCREMENTAL_THRESHOLD = 1.5


def _time_realization() -> dict[str, float]:
    """Time the realization phases over the standard replay.

    Solves the same ten intervals as the replay benchmark, then times
    flow simulation and congestion-aware latency per interval, plus one
    collector ``build_matrix`` over a full interval's worth of reports.
    """
    cfg = REPLAY_CONFIG
    scenario = build_scenario(
        cfg["topology_name"],
        total_endpoints=cfg["total_endpoints"],
        num_site_pairs=cfg["num_site_pairs"],
        target_load=cfg["target_load"],
        seed=cfg["seed"],
    )
    sequence = DiurnalSequence(
        base=scenario.demands, seed=cfg["sequence_seed"]
    )
    optimizer = MegaTEOptimizer(second_stage="batched")
    results = [
        optimizer.solve(scenario.topology, sequence.matrix(i))
        for i in range(cfg["num_intervals"])
    ]

    flowsim_s = latency_s = 0.0
    for result in results:
        t0 = time.perf_counter()
        simulate(scenario.topology, result)
        flowsim_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        compute_flow_latencies(
            scenario.topology, result, metric="ms", congestion_aware=True
        )
        latency_s += time.perf_counter() - t0

    # One interval's worth of agent reports through the collector.
    collector = DemandCollector(scenario.topology, interval_seconds=300.0)
    by_value = {q.value: q for q in QoSClass}
    for pair in scenario.demands:
        if pair.src_endpoints is None:
            continue
        for i in range(pair.num_pairs):
            collector.ingest(
                FlowRecord(
                    src_endpoint=int(pair.src_endpoints[i]),
                    dst_endpoint=int(pair.dst_endpoints[i]),
                    bytes_sent=int(
                        pair.volumes[i] * 300.0 / 8.0 * 1e9
                    ),
                    qos=by_value[int(pair.qos[i])],
                )
            )
    t0 = time.perf_counter()
    collector.build_matrix()
    collect_s = time.perf_counter() - t0

    return {
        "flowsim": flowsim_s,
        "latency": latency_s,
        "flowsim_plus_latency": flowsim_s + latency_s,
        "collect_build_matrix": collect_s,
    }


def test_interval_solve_breakdown(benchmark):
    batched = run_once(
        benchmark,
        run_interval_replay,
        optimizer=MegaTEOptimizer(second_stage="batched"),
        **REPLAY_CONFIG,
    )
    serial = run_interval_replay(
        optimizer=MegaTEOptimizer(second_stage="serial"), **REPLAY_CONFIG
    )

    # The batched second stage is a pure hot-path optimization: identical
    # allocations, bit for bit, across the whole replay.
    assert batched.assignment_digest == serial.assignment_digest

    # Scalar-fill leg: batched triage with the per-pair FastSSP pinned,
    # the reference the array kernel's timings are compared against.
    # Same digest contract; the default leg must have run the kernel.
    scalar_fill = run_interval_replay(
        optimizer=MegaTEOptimizer(
            second_stage="batched", ssp_backend="scalar"
        ),
        **REPLAY_CONFIG,
    )
    assert scalar_fill.assignment_digest == batched.assignment_digest
    assert scalar_fill.ssp_backend == "scalar"
    assert batched.ssp_backend != "scalar"
    assert batched.ssp_batch_phase_s

    # Incremental engine, threshold 0.0: reuse restricted to bit-identical
    # inputs, so the whole replay must reproduce the cold digest exactly.
    inc_exact = run_interval_replay(
        optimizer=MegaTEOptimizer(incremental=True, delta_threshold=0.0),
        **REPLAY_CONFIG,
    )
    assert inc_exact.assignment_digest == batched.assignment_digest

    # Incremental engine, live fast path: must beat the batched baseline
    # measured in this same process (machine-independent comparison) by
    # >= 1.3x on stage1+stage2, with both reuse mechanisms firing.
    incremental = run_interval_replay(
        optimizer=MegaTEOptimizer(
            incremental=True, delta_threshold=INCREMENTAL_THRESHOLD
        ),
        **REPLAY_CONFIG,
    )

    solver_s = batched.stage1_lp_s + batched.stage2_ssp_s
    serial_solver_s = serial.stage1_lp_s + serial.stage2_ssp_s
    inc_solver_s = incremental.stage1_lp_s + incremental.stage2_ssp_s
    assert incremental.lp_solves_skipped > 0
    assert incremental.ssp_state_reused > 0
    assert inc_solver_s * 1.3 <= solver_s
    # Quality floor: patching trades exact LP re-optimization for speed;
    # the satisfied volume must stay within 2% of the cold solve.
    assert incremental.satisfied_volume >= 0.98 * batched.satisfied_volume

    print(
        f"\n{batched.num_intervals}-interval replay on "
        f"{REPLAY_CONFIG['topology_name']} "
        f"({batched.num_flows:,} flows/interval)"
    )
    print(
        f"  batched ({batched.ssp_backend} kernel): "
        f"stage1 {batched.stage1_lp_s:.3f}s + "
        f"stage2 {batched.stage2_ssp_s:.3f}s = {solver_s:.3f}s "
        f"({batched.num_uncontended_pairs} uncontended / "
        f"{batched.num_contended_pairs} contended pair solves)"
    )
    print(
        f"  scalar fill: contended_ssp "
        f"{scalar_fill.phase_s['contended_ssp'] * 1e3:.1f} ms vs batched "
        f"{batched.phase_s['contended_ssp'] * 1e3:.1f} ms"
    )
    for phase, seconds in batched.ssp_batch_phase_s.items():
        print(f"  kernel {phase:<16s} {seconds * 1e3:8.1f} ms")
    print(
        f"  serial:  stage1 {serial.stage1_lp_s:.3f}s + "
        f"stage2 {serial.stage2_ssp_s:.3f}s = {serial_solver_s:.3f}s"
    )
    print(
        f"  incremental (threshold {INCREMENTAL_THRESHOLD}): "
        f"stage1 {incremental.stage1_lp_s:.3f}s + "
        f"stage2 {incremental.stage2_ssp_s:.3f}s = {inc_solver_s:.3f}s "
        f"({solver_s / inc_solver_s:.2f}x vs batched; "
        f"{incremental.lp_solves_skipped} LP solves patched, "
        f"{incremental.ssp_state_reused} SSP warm reuses)"
    )
    for phase, seconds in batched.phase_s.items():
        print(f"  phase {phase:<16s} {seconds * 1e3:8.1f} ms")

    realization = _time_realization()
    for phase, seconds in realization.items():
        base = PRE_COLUMNAR_BASELINE_S[phase]
        print(
            f"  realize {phase:<22s} {seconds * 1e3:8.1f} ms "
            f"(pre-columnar {base * 1e3:.1f} ms)"
        )
    # The CSR refactor's acceptance bar: flow simulation + latency at
    # least 25% faster than the per-pair loops they replaced.
    assert (
        realization["flowsim_plus_latency"]
        <= 0.75 * PRE_COLUMNAR_BASELINE_S["flowsim_plus_latency"]
    )

    # Strict load: a corrupt artifact or malformed prior record raises
    # (BenchHistoryError) instead of silently truncating the trajectory.
    history = load_history(ARTIFACT)
    new_record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(ARTIFACT.parent),
        "backend": batched.backend,
        # Top-level (not in config) so same-name records stay
        # byte-comparable across the kernel migration; baseline
        # selection filters on it (bench_history.ssp_backend_of).
        "ssp_backend": batched.ssp_backend,
        "config_name": "twan-20k",
        "config": {
            **REPLAY_CONFIG,
            "incremental_threshold": INCREMENTAL_THRESHOLD,
        },
        "batched": batched.as_dict(),
        "serial": serial.as_dict(),
        "scalar_fill": scalar_fill.as_dict(),
        "incremental": incremental.as_dict(),
        "incremental_exact": inc_exact.as_dict(),
        "incremental_speedup_vs_batched": solver_s / inc_solver_s,
        "realization_s": realization,
    }
    # Validate the record we are about to append, so a schema drift in
    # the replay report fails this run rather than corrupting the file.
    validate_history_record(new_record)
    history.append(new_record)
    payload = {
        "config": REPLAY_CONFIG,
        "batched": batched.as_dict(),
        "serial": serial.as_dict(),
        "incremental": incremental.as_dict(),
        "batched_over_serial_solver_time": (
            solver_s / serial_solver_s if serial_solver_s > 0 else None
        ),
        "incremental_speedup_vs_batched": solver_s / inc_solver_s,
        "realization_s": realization,
        "realization_baseline_pre_columnar_s": PRE_COLUMNAR_BASELINE_S,
        "history": history,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {ARTIFACT.name} ({len(history)} history records)")

    benchmark.extra_info["stage1_lp_s"] = batched.stage1_lp_s
    benchmark.extra_info["stage2_ssp_s"] = batched.stage2_ssp_s
    benchmark.extra_info["ssp_backend"] = batched.ssp_backend
    benchmark.extra_info["phase_s"] = dict(batched.phase_s)
    benchmark.extra_info["assignment_digest"] = batched.assignment_digest
    benchmark.extra_info["incremental_speedup"] = solver_s / inc_solver_s
