"""Smoke test of the whole-epoch benchmark: every workload at ``--scale
smoke``, the result schema, the BENCHMARK.json contract and compare.py.

Run with ``python -m pytest bench/tests -q`` from the repo root (not part
of the tier-1 ``tests/`` suite: it measures the program from outside).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare
import report
import run
import workloads as wl

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, workload: str, seed: int, trace: int) -> dict:
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    status = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--scale", "smoke",
            "--out", str(out),
        ]
    )
    (record,) = report.load_runs(out)
    assert status == 0, record["failures"]
    return record


def test_tables_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    for key, table in (("end_to_end", wl.END_TO_END), ("per_layer", wl.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == list(table)
    assert SPEC["paths"] == ["bench"]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_workload(tmp_path, workload):
    traced = _run(tmp_path, workload, seed=1, trace=1)
    plain = _run(tmp_path, workload, seed=1, trace=0)
    other = _run(tmp_path, workload, seed=2, trace=0)

    for record in (traced, plain, other):
        assert record["scale"] == "smoke"
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] > record["warm_epochs"] >= 1
        assert record["machine"]["nproc"] and record["backends"]["lp_backend"]
        for metric in SPEC["end_to_end"]:
            got = record["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0
    for metric in SPEC["per_layer"]:
        got = traced["per_layer"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] == got["value"]  # not NaN
    assert "per_layer" not in plain

    layer = {k: v["value"] for k, v in traced["per_layer"].items()}
    assert layer["harness.closure"] >= 0.95
    assert layer["agent.failed_polls"] == 0
    assert layer["dataplane.path_mismatches"] == 0
    assert layer["collector.ingest.records"] > 0
    is_churn = wl.WORKLOADS[workload].churn
    assert (layer["incremental.reuse_ratio"] > 0) == is_churn
    if is_churn:
        # The smoke run cuts two fibers at epoch 3: that epoch repins flows.
        writes = {e["epoch"]: e["writes"] for e in plain["epochs"]}
        assert writes[3] > 3 * writes[2]
    assert (BENCH / "results" / traced["trace_file"]).exists()

    # One seed gives one assignment, traced or not; another seed another.
    assert traced["epoch_digests"] == plain["epoch_digests"]
    assert plain["assignment_digest"] != other["assignment_digest"]


def test_cli_contract(tmp_path):
    """Last stdout line is the driver's JSON object; a checkout without the
    program fails without printing one."""
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", "twan-allpairs", "--seed", "3", "--seconds", "1",
            "--trace", "0", "--scale", "smoke", "--out", str(tmp_path / "r.json"),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())

    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "twan-1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _fake_run(value: float, seed: int = 1, digest: str = "d", failed: int = 0) -> dict:
    metrics = {
        m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    return {
        "workload": "twan-1m", "seed": seed, "scale": "full", "trace": 0,
        "warm_epochs": 3, "attempted": 100, "failed": failed,
        "epoch_digests": [digest], "end_to_end": metrics,
    }


def test_compare_verdicts(capsys):
    assert compare.verdict([1.0, 1.01, 1.02], [1.0, 1.02, 1.03], "lower", 0.1) == "ok"
    assert compare.verdict([1.0, 1.01, 1.02], [1.2, 1.21, 1.22], "lower", 0.1) == "worse"
    assert compare.verdict([1.0, 1.01, 1.02], [0.7, 0.8, 0.81], "higher", 0.1) == "worse"
    assert compare.verdict([0.8, 1.0, 1.3], [0.9, 1.0, 1.2], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0, 1.2, 1.4], [0.5, 0.6, 0.7], "lower", 0.1) == "ok"

    base = [_fake_run(1.0), _fake_run(1.01, seed=2)]
    assert compare.compare(base, [_fake_run(1.02), _fake_run(1.0, seed=2)], SPEC) == 0
    assert compare.compare(base, [_fake_run(1.0, digest="x")], SPEC) == 1
    assert compare.compare(base, [_fake_run(1.0, failed=1)], SPEC) == 1
    assert "DIGEST MISMATCH" in capsys.readouterr().out
