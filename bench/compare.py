#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate; each is a
result file ``run.py --out`` appended one or more runs to.  For every
(workload, end-to-end metric) it prints both medians and quartiles and a
verdict against the metric's bound in ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound.
``worse``       it is.
``unresolved``  not worse, but a side's run-to-run spread (quartile
                distance over median) is wider than the bound and the two
                sides' runs overlap, so "unchanged" cannot be claimed.

Exit status is non-zero on any ``worse``, on an ``assignment_digest``
mismatch between runs of one (workload, seed), or when B's share of failed
operations is higher than A's.  Exact per-layer counts of traced runs of
one (workload, seed) are compared for equality and differences listed.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import report
import workloads as wl


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        grouped[run["workload"]].append(run)
    return grouped


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric's two samples."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = report.quartiles(a), report.quartiles(b)
    if sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        return "worse"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    return "ok"


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> int:
    """Print the comparison; return the process exit status."""
    bad = 0
    a_by, b_by = _by_workload(runs_a), _by_workload(runs_b)
    for name in wl.WORKLOADS:
        a_runs, b_runs = a_by.get(name, []), b_by.get(name, [])
        if not a_runs or not b_runs:
            print(f"== {name}: missing on one side, skipped")
            continue
        scales = {r["scale"] for r in a_runs + b_runs}
        if len(scales) != 1:
            print(f"== {name}: scales {sorted(scales)} are never compared")
            bad = 1
            continue
        print(f"== {name} (scale {scales.pop()})")

        untraced_a = [r for r in a_runs if not r["trace"] and "end_to_end" in r]
        untraced_b = [r for r in b_runs if not r["trace"] and "end_to_end" in r]
        if untraced_a and untraced_b:
            print(
                f"{'metric':20s} {'unit':6s} {'A q1':>11s} {'A med':>11s} "
                f"{'A q3':>11s} {'B q1':>11s} {'B med':>11s} {'B q3':>11s} "
                f"{'bound':>6s}  verdict (n={len(untraced_a)} vs {len(untraced_b)})"
            )
            for metric in spec["end_to_end"]:
                a = [r["end_to_end"][metric["name"]]["value"] for r in untraced_a]
                b = [r["end_to_end"][metric["name"]]["value"] for r in untraced_b]
                v = verdict(a, b, metric["better"], metric["bound"])
                bad |= v == "worse"
                qa, qb = report.quartiles(a), report.quartiles(b)
                print(
                    f"{metric['name']:20s} {metric['unit']:6s} "
                    + " ".join(f"{x:11.6g}" for x in (*qa, *qb))
                    + f" {metric['bound']:6.3f}  {v}"
                )

        share_a = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        share_b = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        print(f"failed operations: A {share_a:.3g} B {share_b:.3g} of attempted")
        if share_b > share_a:
            print("  HIGHER failed-operation share in B")
            bad = 1

        for ra in a_runs:
            for rb in b_runs:
                if ra["seed"] != rb["seed"]:
                    continue
                shared = min(len(ra["epoch_digests"]), len(rb["epoch_digests"]))
                if (
                    shared == 0
                    or ra["epoch_digests"][shared - 1]
                    != rb["epoch_digests"][shared - 1]
                ):
                    print(f"  DIGEST MISMATCH at seed {ra['seed']}")
                    bad = 1
                if (
                    "per_layer" in ra
                    and "per_layer" in rb
                    and ra["warm_epochs"] == rb["warm_epochs"]
                ):
                    for count in wl.COUNT_METRICS:
                        va = ra["per_layer"][count]["value"]
                        vb = rb["per_layer"][count]["value"]
                        if va != vb:
                            print(
                                f"  count differs at seed {ra['seed']}: "
                                f"{count} A={va:g} B={vb:g}"
                            )
    return int(bad)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(
        report.load_runs(Path(args[0])),
        report.load_runs(Path(args[1])),
        report.load_benchmark_json(),
    )


if __name__ == "__main__":
    sys.exit(main())
