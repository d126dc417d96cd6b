"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro.cli list
    python -m repro.cli fig02
    python -m repro.cli fig09 --topologies b4 deltacom
    python -m repro.cli fig10 --load 1.15
    python -m repro.cli fig12 --scales 1130 5650
    python -m repro.cli table2 --scale 0.01

Each subcommand prints the rows/series of the corresponding paper table
or figure (see DESIGN.md's per-experiment index).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial

from . import obs
from .experiments import (
    chaos_sync,
    database_study,
    fastssp_study,
    fig02,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table02,
)
from .experiments.bench_history import git_sha
from .experiments.reporting import render_table
from .simulation.soak import SCENARIO_NAMES
from .simulation.streaming import STREAM_SCENARIO_NAMES, TRIGGER_NAMES

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to ``out`` when given.

    Every reporting subcommand funnels its final output through here so
    ``--out`` behaves identically across ``replay``/``chaos``/
    ``metrics``/``trace``.
    """
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    print(text, end="" if text.endswith("\n") else "\n")


def _instrumented_replay(args):
    """Run the standard replay scenario with telemetry collecting."""
    from .experiments.interval_replay import run_interval_replay

    obs.set_enabled(True)
    obs.reset()
    return run_interval_replay(
        topology_name=args.topology,
        total_endpoints=args.endpoints,
        num_site_pairs=args.pairs,
        num_intervals=args.intervals,
        seed=args.seed,
    )


def _cmd_fig02(args) -> None:
    result = fig02.run(num_epochs=args.epochs)
    print("Figure 2(a): instance-pair latency over one day (ms)")
    print(
        render_table(
            ["pair", "min", "q1", "median", "q3", "max"],
            [
                (f"#{i + 1}", *stats)
                for i, stats in enumerate(result.pair_latency_stats)
            ],
            precision=1,
        )
    )
    print(f"\nFigure 2(b): pair #4 latency modes: {result.pair4_modes} ms")
    print(f"MegaTE pinned latencies: {result.megate_latencies} ms")


def _cmd_fig08(args) -> None:
    result = fig08.run(num_sites=args.sites, seed=args.seed)
    print(
        f"Figure 8: Weibull fit shape={result.fitted_model.shape:.3f} "
        f"scale={result.fitted_model.scale:.0f} "
        f"(KS={result.ks_statistic:.3f}); counts span "
        f"{result.spread_orders_of_magnitude:.1f} orders of magnitude"
    )


def _cmd_table2(args) -> None:
    rows = table02.run(scale=args.scale)
    print(f"Table 2 (endpoints at {args.scale:.1%} of paper scale):")
    print(
        render_table(
            ["topology", "sites", "fibers", "endpoints", "paper"],
            [
                (r.name, r.sites, r.fibers, r.endpoints_built,
                 r.endpoints_paper)
                for r in rows
            ],
        )
    )


def _sweep_table(records) -> str:
    return render_table(
        ["topology", "endpoints", "flows", "scheme", "runtime_s",
         "satisfied", "status"],
        [
            (r.topology, r.num_endpoints, r.num_flows, r.scheme,
             r.runtime_s, r.satisfied, r.status)
            for r in records
        ],
    )


def _cmd_fig09(args) -> None:
    records = fig09.run(topologies=args.topologies, seed=args.seed)
    print("Figure 9: TE computation time vs scale")
    print(_sweep_table(records))


def _cmd_fig10(args) -> None:
    records = fig10.run(
        topologies=args.topologies, target_load=args.load, seed=args.seed
    )
    print("Figure 10: satisfied demand vs scale")
    print(_sweep_table(records))


def _cmd_fig11(args) -> None:
    result = fig11.run(
        num_endpoints=args.endpoints, target_load=args.load, seed=args.seed
    )
    print("Figure 11: QoS-1 volume-weighted latency (hops)")
    print(
        render_table(
            ["scheme", "latency", "MegaTE reduction"],
            [
                (
                    scheme,
                    latency,
                    result.reduction_vs.get(scheme, float("nan")),
                )
                for scheme, latency in result.qos1_latency.items()
            ],
        )
    )


def _cmd_fig12(args) -> None:
    records = fig12.run(endpoint_scales=args.scales, seed=args.seed)
    print("Figure 12: satisfied demand through failures")
    print(
        render_table(
            ["endpoints", "failures", "scheme", "satisfied",
             "recompute_s"],
            [
                (r.num_endpoints, r.num_failures, r.scheme,
                 r.effective_satisfied, r.recompute_seconds)
                for r in records
            ],
        )
    )


def _cmd_fig13(args) -> None:
    print("Figure 13: persistent-connection overhead (1-core VM)")
    print(
        render_table(
            ["connections", "cpu_percent", "memory_mb"],
            [
                (r.connections, r.cpu_percent, r.memory_mb)
                for r in fig13.run()
            ],
            precision=1,
        )
    )


def _cmd_fig14(args) -> None:
    print("Figure 14: controller resources, top-down vs bottom-up")
    print(
        render_table(
            ["endpoints", "td_cores", "td_gb", "bu_cores", "bu_gb",
             "shards"],
            [
                (r.endpoints, r.topdown_cores, r.topdown_memory_gb,
                 r.bottomup_cores, r.bottomup_memory_gb,
                 r.database_shards)
                for r in fig14.run()
            ],
            precision=1,
        )
    )


def _cmd_fig15(args) -> None:
    rows = fig15.run(seed=args.seed)
    print("Figure 15: production app latency, traditional vs MegaTE")
    print(
        render_table(
            ["app", "traditional_ms", "megate_ms", "reduction"],
            [
                (r.app_name, r.traditional_ms, r.megate_ms, r.reduction)
                for r in rows
            ],
        )
    )


def _cmd_fig16(args) -> None:
    rows = fig16.run(
        num_months=args.months, rollout_month=args.rollout, seed=args.seed
    )
    print("Figure 16: monthly availability across the rollout")
    print(
        render_table(
            ["month", "scheme", "app6", "app7"],
            [
                (r.month, r.scheme, r.app6_availability,
                 r.app7_availability)
                for r in rows
            ],
            precision=5,
        )
    )


def _cmd_fig17(args) -> None:
    rows = fig17.run(seed=args.seed)
    print("Figure 17: per-app cost per Gbps")
    print(
        render_table(
            ["app", "traditional", "megate", "reduction"],
            [
                (r.app_name, r.traditional_cost, r.megate_cost,
                 r.reduction)
                for r in rows
            ],
        )
    )


def _cmd_database(args) -> None:
    result = database_study.run(
        num_endpoints=args.endpoints, num_shards=args.shards
    )
    print(
        f"§6.4: {result.num_endpoints:,} endpoints over "
        f"{result.spread_window_s:.0f}s on {result.num_shards} shards -> "
        f"peak {result.peak_shard_qps:,} qps/shard, "
        f"rejected {result.rejected}"
    )


def _cmd_verify(args) -> None:
    from .experiments.summary import run_all_checks

    results = run_all_checks()
    print("MegaTE reproduction scorecard (quick configuration):")
    print(
        render_table(
            ["check", "claim", "measured", "pass"],
            [
                (r.name, r.claim, r.measured,
                 "yes" if r.passed else "NO")
                for r in results
            ],
        )
    )
    failed = [r for r in results if not r.passed]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} claims verified"
    )
    if failed:
        raise SystemExit(1)


@contextmanager
def _input_file(command: str, option: str, path: str):
    """Guard reading a ``repro <command>`` input: a bad file is a usage
    error.

    A missing, unreadable or malformed file exits with status 2 and one
    line on stderr instead of a traceback.
    """
    try:
        yield
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except ValueError as exc:
        reason = str(exc)
    else:
        return
    print(f"repro {command}: {option} {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_solve(args) -> None:
    from .baselines import (
        ConventionalMCF,
        LPAllTE,
        NCFlowTE,
        POPTE,
        TealTE,
    )
    from .core import MegaTEOptimizer, check_feasibility
    from .topology import load_topology
    from .traffic import generate_demands, read_demands_csv

    schemes = {
        "megate": MegaTEOptimizer,
        "lp-all": LPAllTE,
        "ncflow": NCFlowTE,
        "teal": TealTE,
        "pop": POPTE,
        "conventional": ConventionalMCF,
    }
    with _input_file("solve", "--topology", args.topology):
        topology = load_topology(args.topology)
    if args.demands:
        with _input_file("solve", "--demands", args.demands), open(
            args.demands, encoding="utf-8"
        ) as handle:
            demands = read_demands_csv(
                handle, num_site_pairs=topology.catalog.num_pairs
            )
    else:
        demands = generate_demands(
            topology, seed=args.seed, target_load=args.load
        )
    solver = schemes[args.scheme]()
    result = solver.solve(topology, demands)
    report = check_feasibility(topology, result)
    print(
        f"{result.scheme}: {demands.num_endpoint_pairs} flows, "
        f"{demands.total_demand:.1f} Gbps offered"
    )
    print(
        f"satisfied {result.satisfied_fraction:.1%} in "
        f"{result.runtime_s * 1e3:.0f} ms; feasible={report.feasible} "
        f"(peak link utilization {report.max_overload:.1%})"
    )
    by_class = result.stats.get("satisfied_by_class")
    if by_class:
        for qos, volume in sorted(by_class.items()):
            print(f"  class {qos}: {volume:.1f} Gbps placed")


def _cmd_fastssp(args) -> None:
    rows = fastssp_study.run(
        num_instances=args.instances, num_items=args.items
    )
    print("Appendix A.2: FastSSP vs exact DP vs greedy")
    print(
        render_table(
            ["capacity", "fastssp", "optimal", "greedy", "bound",
             "holds"],
            [
                (r.capacity, r.fastssp_fill, r.optimal_fill,
                 r.greedy_fill, r.error_bound, r.bound_holds)
                for r in rows
            ],
            precision=5,
        )
    )


def _cmd_replay(args) -> None:
    from .experiments.interval_replay import run_cold_vs_incremental

    instrument = bool(args.trace_out or args.metrics_out)
    if instrument:
        obs.set_enabled(True)
        obs.reset()
    outcome = run_cold_vs_incremental(
        topology_name=args.topology,
        total_endpoints=args.endpoints,
        num_site_pairs=args.pairs,
        num_intervals=args.intervals,
        target_load=args.load,
        seed=args.seed,
        delta_threshold=args.delta_threshold,
    )
    _write_replay_telemetry(args)
    if args.json:
        _emit(json.dumps(outcome, indent=2) + "\n", args.out)
        return
    cold, inc = outcome["cold"], outcome["incremental"]
    lines = [
        f"Interval replay, cold vs incremental "
        f"({args.topology}, {cold['num_flows']} flows, "
        f"{args.intervals} intervals, "
        f"delta threshold {args.delta_threshold}, "
        f"ssp {inc['ssp_backend']}):",
        render_table(
            ["mode", "stage1_lp_s", "stage2_ssp_s", "lp_solves",
             "patched", "ssp_reused", "satisfied"],
            [
                ("cold", cold["stage1_lp_s"], cold["stage2_ssp_s"],
                 cold["lp_solves"], 0, 0, cold["satisfied_volume"]),
                ("incremental", inc["stage1_lp_s"], inc["stage2_ssp_s"],
                 inc["lp_solves"], inc["lp_solves_skipped"],
                 inc["ssp_state_reused"], inc["satisfied_volume"]),
            ],
        ),
        "",
        f"solver speedup {outcome['solver_speedup']:.2f}x, "
        f"satisfied ratio {outcome['satisfied_ratio']:.4f}, "
        f"digests {'match' if outcome['digest_match'] else 'differ'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _write_replay_telemetry(args) -> None:
    """Dump the trace/metrics files an instrumented replay asked for."""
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            written = obs.get_tracer().to_jsonl(handle)
        print(f"wrote {written} spans to {args.trace_out}")
    _write_metrics(args.metrics_out)


def _check_history(command: str, path: str | None) -> None:
    """Load an existing ``--history`` file before the run, so a bad one
    fails at once (status 2) rather than after the whole run."""
    from .experiments.bench_history import load_history

    if path:
        with _input_file(command, "--history", path):
            load_history(path)


def _append_history(path: str, kind: str, make_record) -> None:
    """Append ``make_record(timestamp=..., git_sha=...)`` to the
    bench-history artifact at ``path``."""
    from .experiments.bench_history import append_history_record

    record = make_record(
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_sha=git_sha(),
    )
    total = append_history_record(path, record)
    print(
        f"appended {kind} record {record['config_name']} to "
        f"{path} ({total} history records)"
    )


def _metrics_text(as_json: bool) -> str:
    """The metrics registry as a JSON snapshot or Prometheus text."""
    registry = obs.get_registry()
    if as_json:
        return json.dumps(obs.registry_to_json(registry), indent=2) + "\n"
    return obs.registry_to_prometheus(registry)


def _write_metrics(path: str | None) -> None:
    """Dump the metrics registry to ``path`` (JSON when it ends in
    ``.json``, Prometheus text otherwise); no-op without a path."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_metrics_text(path.endswith(".json")))
    print(f"wrote metrics to {path}")


def _cmd_chaos(args) -> None:
    rows = chaos_sync.run(
        intensities=tuple(args.intensities),
        num_agents=args.agents,
        num_shards=args.shards,
        horizon_s=args.horizon,
        seed=args.seed,
    )
    if args.json:
        _emit(
            json.dumps([asdict(r) for r in rows], indent=2) + "\n",
            args.out,
        )
        return
    lines = [
        "Chaos study: sync availability vs fault intensity "
        f"({args.agents} agents, {args.shards} shards, "
        f"{args.horizon:.0f}s horizon, seed {args.seed})",
        render_table(
            ["intensity", "avail", "poll ok", "p50 stale",
             "p99 stale", "converged", "faults", "violations"],
            [
                (r.intensity, r.availability, r.poll_success_rate,
                 r.p50_staleness_s, r.p99_staleness_s,
                 r.final_converged_fraction, r.injected_faults,
                 r.invariant_violations)
                for r in rows
            ],
        ),
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_soak(args) -> None:
    """``repro soak``: long-horizon soak with SLO gating.

    Replays a scenario matrix of overlapping failures (link cuts, shard
    failover, stale-replica storms, flash crowds, maintenance drains)
    through the incremental solve engine and the sync plane,
    then evaluates the run's Prometheus snapshot against the SLO spec.
    Exits non-zero on any violation unless ``--no-gate``.
    """
    from .experiments.soak_study import (
        run_soak_study,
        soak_config,
        soak_history_record,
    )

    overrides = dict(
        topology_name=args.topology,
        total_endpoints=args.endpoints,
        num_site_pairs=args.pairs,
        num_intervals=args.intervals,
        seed=args.seed,
        num_agents=args.agents,
        num_shards=args.shards,
    )
    _check_history("soak", args.history)
    report = run_soak_study(args.scenario, **overrides)
    # run_soak leaves its series in the registry for exactly this.
    _write_metrics(args.metrics_out)
    if args.history:
        cfg = soak_config(args.scenario, **overrides)
        _append_history(
            args.history, "soak", partial(soak_history_record, report, cfg)
        )
    if args.json:
        _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
    else:
        lines = [
            f"Soak: scenario {report.scenario} on {report.topology} "
            f"({report.num_flows} flows, {report.num_intervals} "
            f"intervals, {report.num_agents} agents, "
            f"{report.num_shards} shards, seed {report.seed})",
            render_table(
                ["slo", "value", "bound", "ok"],
                [(name, value, bound, "yes" if ok else "NO")
                 for name, value, bound, ok
                 in report.slo.checks(report.slo_spec)],
                precision=4,
            ),
            "",
            f"{len(report.event_log)} events fired, "
            f"{report.publishes} publishes, "
            f"converged {report.final_converged_fraction:.3f}, "
            f"{report.injected_faults} injected faults",
            f"identity digest {report.identity_digest()}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    if report.violations and not args.no_gate:
        raise SystemExit(
            "soak SLO violations:\n  " + "\n  ".join(report.violations)
        )


def _make_predictor(name: str):
    """Build a named demand predictor for the stream loop (or None)."""
    from .traffic.prediction import (
        DiurnalPredictor,
        EWMAPredictor,
        LastValuePredictor,
    )

    if name == "none":
        return None
    if name == "last-value":
        return LastValuePredictor()
    if name == "ewma":
        return EWMAPredictor(alpha=0.5)
    if name == "diurnal":
        return DiurnalPredictor(intervals_per_day=96)
    raise ValueError(f"unknown predictor {name!r}")


def _cmd_stream(args) -> None:
    """``repro stream``: event-driven control loop vs the oracle.

    Runs the streaming study — the seeded event stream drained through
    the every-event oracle, the candidate trigger, and the candidate
    with/without admission control — and reports the satisfied-volume
    ratio, the solve budget, and the QoS-1 protection margin.
    """
    from .experiments.stream_study import (
        run_stream_study,
        stream_history_record,
    )

    overrides = dict(
        topology_name=args.topology,
        total_endpoints=args.endpoints,
        num_site_pairs=args.pairs,
        num_epochs=args.events,
        tick_s=args.tick,
        seed=args.seed,
        threshold=args.threshold,
        refresh_s=args.refresh,
    )
    _check_history("stream", args.history)
    study = run_stream_study(
        args.scenario,
        trigger=args.trigger,
        predictor=_make_predictor(args.predictor),
        **overrides,
    )
    # The headline (admission-on) run leaves its series in the
    # registry for exactly this.
    _write_metrics(args.metrics_out)
    if args.history:
        _append_history(
            args.history, "stream", partial(stream_history_record, study)
        )
    if args.json:
        _emit(json.dumps(study, indent=2) + "\n", args.out)
        return
    cfg = study["config"]
    rows = [
        (name, study[name]["solves"], study[name]["solves_per_event"],
         study[name]["satisfied_fraction"], study[name]["qos1_floor"])
        for name in ("oracle", "candidate", "no_admission", "admission")
    ]
    lines = [
        f"Stream: scenario {study['scenario']}, trigger "
        f"{study['trigger']} on {cfg['topology_name']} "
        f"({cfg['total_endpoints']} endpoints, "
        f"{cfg['num_site_pairs']} pairs, {cfg['num_epochs']} epochs, "
        f"seed {cfg['seed']})",
        render_table(
            ["run", "solves", "solves/event", "satisfied", "qos1 floor"],
            rows,
            precision=4,
        ),
        "",
        f"oracle ratio {study['oracle_ratio']:.4f} at "
        f"{study['solves_fraction']:.1%} of the oracle's solves; "
        f"admission shed {study['admission']['shed_volume']:.1f} "
        f"(QoS-1 floor {study['admission']['qos1_floor']:.4f} vs "
        f"{study['no_admission']['qos1_floor']:.4f} unprotected)",
        f"identity digest {study['candidate']['identity_digest']}",
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_metrics(args) -> None:
    _instrumented_replay(args)
    _emit(_metrics_text(args.json), args.out)


def _cmd_trace(args) -> None:
    _instrumented_replay(args)
    spans = obs.get_tracer().finished_spans()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            obs.spans_to_jsonl(spans, handle)
        print(f"wrote {len(spans)} spans to {args.out}")
        return
    if args.json:
        buffer = io.StringIO()
        obs.spans_to_jsonl(spans, buffer)
        print(buffer.getvalue(), end="")
        return
    rows = obs.summarize_spans(spans)
    print(
        f"Span profile: {args.topology}, {args.endpoints} endpoints, "
        f"{args.intervals} intervals ({len(spans)} spans)"
    )
    print(
        render_table(
            ["span", "count", "total_s", "min_s", "max_s"],
            [
                (r["name"], r["count"], r["total_s"], r["min_s"],
                 r["max_s"])
                for r in rows
            ],
            precision=4,
        )
    )


_COMMANDS = {
    "fig02": _cmd_fig02,
    "fig08": _cmd_fig08,
    "table2": _cmd_table2,
    "fig09": _cmd_fig09,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "fig14": _cmd_fig14,
    "fig15": _cmd_fig15,
    "fig16": _cmd_fig16,
    "fig17": _cmd_fig17,
    "chaos": _cmd_chaos,
    "soak": _cmd_soak,
    "stream": _cmd_stream,
    "replay": _cmd_replay,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "database": _cmd_database,
    "fastssp": _cmd_fastssp,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    """The shared reporting flags: ``--json`` and ``--out``."""
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the table view",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )


def _add_scenario_flags(
    p: argparse.ArgumentParser, endpoints: int, pairs: int, seed: int
) -> None:
    """The built scenario's flags: topology, scale and seed."""
    p.add_argument("--topology", default="twan")
    p.add_argument("--endpoints", type=int, default=endpoints)
    p.add_argument("--pairs", type=int, default=pairs)
    p.add_argument("--seed", type=int, default=seed)


def _add_study_files(p: argparse.ArgumentParser, kind: str, whose: str) -> None:
    """A study's ``--metrics-out`` and ``--history`` files."""
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help=f"write {whose} metrics snapshot (Prometheus text, or a "
             "JSON snapshot for .json files)",
    )
    p.add_argument(
        "--history", default=None, metavar="FILE",
        help=f"append a validated '{kind}' record to this bench-history "
             "artifact (e.g. BENCH_interval_solve.json)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate MegaTE (SIGCOMM 2024) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    p = sub.add_parser("fig02", help="latency under conventional hash TE")
    p.add_argument("--epochs", type=int, default=288)

    p = sub.add_parser("fig08", help="endpoint-per-site Weibull CDF")
    p.add_argument("--sites", type=int, default=200)
    p.add_argument("--seed", type=int, default=2022)

    p = sub.add_parser("table2", help="evaluation topologies")
    p.add_argument("--scale", type=float, default=0.01)

    for name, help_text in (
        ("fig09", "runtime sweep"),
        ("fig10", "satisfied-demand sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--topologies", nargs="+", default=None)
        p.add_argument("--seed", type=int, default=0)
        if name == "fig10":
            p.add_argument("--load", type=float, default=1.15)

    p = sub.add_parser("fig11", help="QoS-1 latency on Deltacom*")
    p.add_argument("--endpoints", type=int, default=1130)
    p.add_argument("--load", type=float, default=1.15)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig12", help="satisfied demand under failures")
    p.add_argument("--scales", nargs="+", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("fig13", help="persistent-connection overhead")
    sub.add_parser("fig14", help="controller resource scaling")

    for name, help_text in (
        ("fig15", "production app latency"),
        ("fig17", "production traffic cost"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig16", help="availability across the rollout")
    p.add_argument("--months", type=int, default=8)
    p.add_argument("--rollout", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("database", help="sharded TE database load")
    p.add_argument("--endpoints", type=int, default=1_000_000)
    p.add_argument("--shards", type=int, default=2)

    p = sub.add_parser(
        "chaos", help="sync availability under injected store faults"
    )
    p.add_argument(
        "--intensities", nargs="+", type=float,
        default=[0.0, 0.3, 0.6, 1.0],
    )
    p.add_argument("--agents", type=int, default=50)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--horizon", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser(
        "soak",
        help="long-horizon multi-failure soak with SLO gates",
    )
    p.add_argument(
        "--scenario", choices=list(SCENARIO_NAMES), default="full-mix",
        help="which event mix to replay (see simulation.soak)",
    )
    _add_scenario_flags(p, endpoints=20_000, pairs=60, seed=0)
    p.add_argument("--intervals", type=int, default=50)
    p.add_argument("--agents", type=int, default=40)
    p.add_argument("--shards", type=int, default=4)
    _add_study_files(p, "soak", "the run's")
    p.add_argument(
        "--no-gate", action="store_true",
        help="report SLO violations without failing the process",
    )
    _add_output_flags(p)

    p = sub.add_parser(
        "stream",
        help="event-driven control loop: trigger policies vs the oracle",
    )
    p.add_argument(
        "--scenario", choices=list(STREAM_SCENARIO_NAMES),
        default="flash-crowd",
        help="which event stream to drain (see simulation.streaming)",
    )
    p.add_argument(
        "--trigger", choices=list(TRIGGER_NAMES), default="hybrid",
        help="candidate re-solve trigger policy",
    )
    p.add_argument(
        "--predictor",
        choices=["none", "last-value", "ewma", "diurnal"],
        default="none",
        help="forecaster threaded into the candidate's trigger decision",
    )
    p.add_argument(
        "--events", type=int, default=96, metavar="EPOCHS",
        help="controller epochs to run (one event batch per epoch)",
    )
    _add_scenario_flags(p, endpoints=6_000, pairs=36, seed=0)
    p.add_argument(
        "--tick", type=float, default=30.0,
        help="simulated seconds per controller epoch",
    )
    p.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative demand-drift threshold for delta/hybrid triggers",
    )
    p.add_argument(
        "--refresh", type=float, default=600.0,
        help="hybrid trigger's staleness-bounded full refresh (seconds)",
    )
    _add_study_files(p, "stream", "the headline run's")
    _add_output_flags(p)

    p = sub.add_parser(
        "replay",
        help="interval-loop replay: cold vs incremental solve engine",
    )
    _add_scenario_flags(p, endpoints=20_000, pairs=60, seed=42)
    p.add_argument("--intervals", type=int, default=10)
    p.add_argument(
        "--load", type=float, default=1.0,
        help="target offered load (fraction of bisection capacity); "
             ">1 overloads the network so the second stage contends",
    )
    p.add_argument(
        "--delta-threshold", type=float, default=1.5,
        help="per-pair relative demand-change bound for the LP delta "
             "fast path (0 = bit-exact reuse only)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable telemetry and write the span trace as JSONL",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="enable telemetry and write the metrics dump "
             "(Prometheus text, or a JSON snapshot for .json files)",
    )
    _add_output_flags(p)

    for name, help_text in (
        ("metrics", "run an instrumented replay, dump its metrics"),
        ("trace", "run an instrumented replay, profile its spans"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scenario_flags(p, endpoints=2_000, pairs=20, seed=42)
        p.add_argument("--intervals", type=int, default=3)
        _add_output_flags(p)

    p = sub.add_parser("fastssp", help="FastSSP accuracy study")
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--items", type=int, default=400)

    sub.add_parser(
        "verify",
        help="run a quick check of every reproduced claim (scorecard)",
    )

    p = sub.add_parser(
        "solve",
        help="solve a user topology (JSON) + demands (CSV) with any scheme",
    )
    p.add_argument("--topology", required=True,
                   help="topology JSON (see repro.topology.dump_topology)")
    p.add_argument("--demands", default=None,
                   help="demand CSV (see repro.traffic.write_demands_csv); "
                        "generated when omitted")
    p.add_argument(
        "--scheme",
        choices=["megate", "lp-all", "ncflow", "teal", "pop",
                 "conventional"],
        default="megate",
    )
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in _COMMANDS:
            print(name)
        return 0
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
