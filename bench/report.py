"""Sample summaries, result files and the printed metric table.

Shared by ``run.py`` (writes) and ``compare.py`` (reads).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

__all__ = [
    "summarize",
    "quartiles",
    "load_runs",
    "append_run",
    "print_metrics",
    "load_benchmark_json",
]

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"


def load_benchmark_json() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples: list[float], unit: str, value: float | None = None) -> dict:
    """A metric record: the gated ``value`` (the median unless given) with
    the sample count, min, quartiles and max beside it, and the highest
    percentile that still has at least ten samples beyond it."""
    q1, median, q3 = quartiles(samples)
    record = {
        "value": median if value is None else value,
        "unit": unit,
        "n": len(samples),
        "min": min(samples),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(samples),
    }
    if len(samples) >= 20:
        beyond = 10
        rank = len(samples) - beyond  # 1-based rank of the percentile
        pct = math.floor(100.0 * rank / len(samples))
        record[f"p{pct}"] = sorted(samples)[rank - 1]
    return record


def load_runs(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"]


def append_run(path: Path, run: dict) -> None:
    """Add one run record to a result file (created when missing)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = load_runs(path) if path.exists() else []
    runs.append(run)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        line = f"{name:44s} {m['value']:>16.6g} {m['unit']:<6s}"
        if "n" in m:
            line += (
                f" n={m['n']} min={m['min']:.6g} q1={m['q1']:.6g}"
                f" med={m['median']:.6g} q3={m['q3']:.6g} max={m['max']:.6g}"
            )
            for key in m:
                if key[0] == "p" and key[1:].isdigit():
                    line += f" {key}={m[key]:.6g}"
        print(line)
