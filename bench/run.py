#!/usr/bin/env python3
"""The whole-epoch benchmark: collect -> solve -> publish -> install -> realize.

    python3 bench/run.py --workload all --seed 42

walks seeded TE epochs through the public entry points of every layer,
prints every metric by name with its unit, checks the outputs, appends
the run to a result file under ``bench/results/`` and prints the run's
metrics as one JSON object on the last line of standard output.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

import report  # sibling modules: bench/ is sys.path[0] for a script
import spans
import workloads as wl


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*wl.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="nominal measuring time of a full-scale run "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result file the run is appended to "
        "(default: bench/results/<workload>-<seed>-<scale>.json)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(report.load_benchmark_json()["run_seconds"])
    return args


def scrub_environment() -> dict[str, str]:
    """Clear every ``REPRO_*`` variable (they select solver backends,
    worker counts and telemetry) and return what was cleared."""
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in cleared:
        del os.environ[key]
    return cleared


def machine_note() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _seconds_since(start_ns: int) -> float:
    return (time.perf_counter_ns() - start_ns) / 1e9


def run_workload(args: argparse.Namespace, started: int) -> dict:
    """Run one workload in this process and return its run record."""
    import harness
    from repro.core.types import StatKey
    from repro.obs import get_tracer

    workload = wl.WORKLOADS[args.workload]
    scale = workload.scales[args.scale]
    warm_target = scale.warm_epochs(args.seconds)
    rec = spans.Recorder()
    failures: list[str] = []
    raised = 0
    inputgen_s: list[float] = []
    epochs: list[harness.EpochRecord] = []
    setup_s = float("nan")
    backends: dict = {}
    truncated = False
    try:
        world = harness.build_world(workload, scale, args.seed, rec)
        for n in range(warm_target + 1):
            if n > 0 and _seconds_since(started) > wl.HARD_STOP_S:
                truncated = True
                break
            t0 = time.perf_counter_ns()
            inputs = harness.make_inputs(world, n)
            inputgen_s.append(_seconds_since(t0))
            traced = bool(args.trace) and n > 0 and wl.is_traced_epoch(n)
            epochs.append(harness.run_epoch(world, inputs, rec, traced))
            del inputs
            if n == 0:
                setup_s = _seconds_since(started)
        stats = world.controller.last_result.stats
        backends = {
            "lp_backend": stats[StatKey.BACKEND],
            "ssp_backend": stats[StatKey.SSP_BACKEND],
            "second_stage": stats[StatKey.SECOND_STAGE],
            "shard_workers": stats[StatKey.SHARD_WORKERS],
        }
    except Exception:  # the run must still report what it attempted
        raised = 1
        failures.append(f"epoch {len(epochs)} raised:\n{traceback.format_exc()}")

    warm = epochs[1:]
    for e in epochs:
        failures.extend(f"epoch {e.epoch}: {c}" for c in e.failed_checks)
    # An operation is one epoch, one agent poll or one probe packet.
    attempted = raised + sum(
        1 + e.counts["agent.polls"] + e.counts["dataplane.packets"]
        for e in epochs
    )
    failed = raised + sum(
        bool(e.failed_checks)
        + e.counts["agent.failed_polls"]
        + e.failed_packets
        for e in epochs
    )
    run = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "warm_epochs": len(warm),
        "truncated": truncated,
        "correct": not failures and failed == 0 and len(warm) >= 1,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "assignment_digest": epochs[-1].digest if epochs else "",
        "epoch_digests": [e.digest for e in epochs],
        # Per-epoch samples, so a reader can recompute any summary.
        "epochs": [
            {
                "epoch": e.epoch,
                "variant": e.variant,
                "traced": e.traced,
                "epoch_s": e.epoch_s,
                "solve_s": e.solve_s,
                "packet_us": e.packet_us,
                "satisfied_fraction": e.satisfied_fraction,
                "writes": e.counts["controller.publish.writes"],
            }
            for e in epochs
        ],
        "backends": backends,
    }
    if warm:
        run["end_to_end"] = end_to_end_metrics(warm, setup_s)
        if args.trace and not truncated and not raised:
            run["per_layer"] = per_layer_metrics(
                rec, warm, inputgen_s[1:], len(world.agents)
            )
            trace_path = report.RESULTS_DIR / (
                f"trace-{workload.name}-{args.seed}"
                + ("-smoke" if args.scale == "smoke" else "")
                + ".jsonl"
            )
            spans.write_trace(
                trace_path, rec.spans, program_spans(rec, get_tracer())
            )
            run["trace_file"] = trace_path.name
    return run


def end_to_end_metrics(warm: list, setup_s: float) -> dict[str, dict]:
    """The eight end-to-end metrics, from the untraced warm epochs."""
    timed = [e for e in warm if not e.traced]
    unit = {name: u for name, u, _ in wl.END_TO_END}
    out = {
        "epoch_s": report.summarize([e.epoch_s for e in timed], unit["epoch_s"]),
        "solve_s": report.summarize([e.solve_s for e in timed], unit["solve_s"]),
        "packet_us": report.summarize(
            [us for e in warm for us in e.packet_us], unit["packet_us"]
        ),
    }
    for name in ("satisfied_fraction", "delivered_fraction", "qos1_latency_ms"):
        samples = [getattr(e, name) for e in warm]
        out[name] = report.summarize(
            samples, unit[name], value=statistics.fmean(samples)
        )
    out["setup_s"] = {"value": setup_s, "unit": unit["setup_s"]}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": unit["peak_rss_mb"],
    }
    return out


def per_layer_metrics(
    rec: spans.Recorder, warm: list, inputgen_s: list[float], num_agents: int
) -> dict[str, dict]:
    """Per-layer metrics.  Busy times are medians per traced warm epoch,
    from the harness spans and ``TEResult.stats``; counts are means per
    warm epoch; ratios are taken over the warm epochs' totals."""
    traced = [e for e in warm if e.traced]
    traced_ids = {e.epoch for e in traced}
    untraced = [e for e in warm if not e.traced]
    unit = {name: u for name, u, _ in wl.PER_LAYER}

    # Harness spans: seconds per (span name, epoch); the epoch span's
    # direct children are the calls into the layers.
    busy: dict[str, dict[int, float]] = {}
    for span in rec.spans:
        if (
            span.epoch in traced_ids
            and span.parent is not None
            and rec.spans[span.parent].name == "epoch"
        ):
            per_epoch = busy.setdefault(span.name, {})
            per_epoch[span.epoch] = per_epoch.get(span.epoch, 0.0) + span.duration_s
    setup_busy = {s.name: s.duration_s for s in rec.spans if s.epoch == -1}

    def median_busy(name: str) -> float:
        return statistics.median(busy[name].values())

    def total_busy(name: str) -> float:
        return sum(busy[name].values())

    def count(name: str, over: list = warm) -> float:
        return statistics.fmean(e.counts[name] for e in over)

    def total(name: str, over: list = warm) -> float:
        return sum(e.counts[name] for e in over)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m: dict[str, float] = {}
    for layer in (
        "collector.ingest",
        "collector.build_matrix",
        "controller.publish",
        "agent.poll",
        "twostage.solve",
        "flowsim.simulate",
        "latency.compute",
    ):
        m[f"{layer}.busy_s"] = median_busy(layer)
    for name in wl.COUNT_METRICS:
        m[name] = count(name)
    m["database.peak_qps"] = max(e.counts["database.peak_qps"] for e in warm)
    m["collector.ingest.us_per_record"] = 1e6 * ratio(
        total_busy("collector.ingest"), total("collector.ingest.records", traced)
    )
    m["controller.publish.us_per_flow"] = 1e6 * ratio(
        total_busy("controller.publish"),
        total("controller.publish.flows", traced),
    )
    m["controller.publish.write_ratio"] = ratio(
        total("controller.publish.writes"), num_agents * len(warm)
    )
    m["agent.us_per_poll"] = 1e6 * ratio(
        total_busy("agent.poll"), total("agent.polls", traced)
    )
    m["agent.redundant_install_ratio"] = ratio(
        total("agent.redundant_installs"), total("agent.installs")
    )

    for phase, name in wl.SOLVER_PHASE_METRIC.items():
        m[name] = statistics.median(e.solver_phase_s[phase] for e in traced)
    for phase in wl.SSP_BATCH_PHASES:
        m[f"fastssp_batch.{phase}.busy_s"] = statistics.median(
            e.ssp_batch_phase_s.get(phase, 0.0) for e in traced
        )
    attributed = [sum(e.solver_phase_s.values()) for e in traced]
    m["twostage.self_s"] = statistics.median(
        e.solve_s - a for e, a in zip(traced, attributed)
    )
    m["twostage.closure"] = ratio(
        sum(attributed), sum(e.solve_s for e in traced)
    )
    m["incremental.reuse_ratio"] = ratio(
        sum(e.incremental_solve for e in warm), len(warm)
    )

    for name in ("dataplane.host_send.busy_s", "dataplane.fabric_deliver.busy_s"):
        m[name] = statistics.median(e.counts[name] for e in warm)
    m["topology.build_scenario.busy_s"] = setup_busy["topology.build_scenario"]
    m["topology.with_failures.busy_s"] = setup_busy["topology.with_failures"]
    m["agent.fleet_build.busy_s"] = setup_busy["agent.fleet_build"]

    layers_s = {
        e.epoch: sum(per_epoch.get(e.epoch, 0.0) for per_epoch in busy.values())
        for e in traced
    }
    m["harness.inputgen_s"] = statistics.median(inputgen_s)
    m["harness.self_s"] = statistics.median(
        e.epoch_s - layers_s[e.epoch] for e in traced
    )
    m["harness.closure"] = ratio(
        sum(layers_s.values()), sum(e.epoch_s for e in traced)
    )
    untraced_s = statistics.median(e.epoch_s for e in untraced)
    m["harness.trace_overhead_share"] = (
        statistics.median(e.epoch_s for e in traced) - untraced_s
    ) / untraced_s
    return {name: {"value": m[name], "unit": unit[name]} for name in unit}


def program_spans(rec: spans.Recorder, tracer) -> list[dict]:
    """The program's own ``repro.obs`` spans collected during the traced
    epochs, each tagged with the epoch whose span contains it."""
    windows = [
        (s.start_ns / 1e9, s.end_ns / 1e9, s.epoch)
        for s in rec.spans
        if s.name == "epoch"
    ]
    events = []
    for span in tracer.finished_spans():
        event = span.as_dict()
        event["epoch"] = next(
            (
                epoch
                for start, end, epoch in windows
                if start <= span.start_s <= end
            ),
            None,
        )
        events.append(event)
    return events


def run_all(args: argparse.Namespace) -> int:
    """One child process per workload, so ``peak_rss_mb`` is per workload."""
    out = args.out or report.RESULTS_DIR / f"all-{args.seed}-{args.scale}.json"
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--out", str(out),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if child.returncode in (0, 1) and lines else None
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter_ns()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC_DIR / "repro").is_dir():
        print(f"bench/run.py: no program to measure at {SRC_DIR}", file=sys.stderr)
        return 2
    cleared = scrub_environment()
    sys.path.insert(0, str(SRC_DIR))

    run = run_workload(args, started)
    run["machine"] = machine_note()
    run["cleared_env"] = cleared
    out = args.out or report.RESULTS_DIR / (
        f"{args.workload}-{args.seed}-{args.scale}.json"
    )
    report.append_run(out, run)

    label = f"{run['workload']} seed={run['seed']} scale={run['scale']}"
    if args.scale == "smoke":
        label += " (SMOKE SCALE: not comparable with full-scale numbers)"
    print(f"== {label}: {run['warm_epochs']} warm epochs")
    for kind in ("end_to_end", "per_layer"):
        if kind in run:
            report.print_metrics(kind, run[kind])
    print(f"assignment_digest {run['assignment_digest']}")
    print(f"backends {run['backends']} machine {run['machine']}")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(f"result file {out}")

    reported = run.get("per_layer" if args.trace else "end_to_end", {})
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()
                },
            }
        )
    )
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
