"""Schema validation of the interval-solve benchmark history."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench_history import (
    SLO_KEYS,
    SOAK_REQUIRED_KEYS,
    STREAM_REQUIRED_KEYS,
    BenchHistoryError,
    append_history_record,
    config_name_of,
    load_history,
    record_kind_of,
    validate_history_record,
)

DIGEST = "0" * 64


def _mode_summary() -> dict:
    return {
        "stage1_lp_s": 0.5,
        "stage2_ssp_s": 0.2,
        "num_intervals": 10,
        "assignment_digest": DIGEST,
        "backend": "scipy",
    }


def _valid_record() -> dict:
    return {
        "timestamp": "2026-08-06T00:00:00Z",
        "git_sha": "abcdef123456",
        "backend": "scipy",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 20_000,
            "num_site_pairs": 60,
            "num_intervals": 10,
            "seed": 42,
        },
        "realization_s": {"flowsim": 0.01, "latency": 0.02},
        "batched": _mode_summary(),
        "serial": _mode_summary(),
        "incremental": _mode_summary(),
        "incremental_speedup_vs_batched": 1.8,
    }


def test_valid_record_passes():
    validate_history_record(_valid_record())


def test_extra_keys_are_ignored():
    record = _valid_record()
    record["highspy"] = None
    record["batched"]["new_field"] = 123
    validate_history_record(record)


@pytest.mark.parametrize("key", [
    "timestamp", "git_sha", "backend", "config", "realization_s",
    "batched", "serial", "incremental", "incremental_speedup_vs_batched",
])
def test_missing_required_key_raises(key):
    record = _valid_record()
    del record[key]
    with pytest.raises(BenchHistoryError, match=key):
        validate_history_record(record)


def test_bad_digest_raises():
    record = _valid_record()
    record["serial"]["assignment_digest"] = "deadbeef"
    with pytest.raises(BenchHistoryError, match="assignment_digest"):
        validate_history_record(record)


def test_negative_timing_raises():
    record = _valid_record()
    record["batched"]["stage1_lp_s"] = -0.1
    with pytest.raises(BenchHistoryError, match="stage1_lp_s"):
        validate_history_record(record)


def test_negative_realization_raises():
    record = _valid_record()
    record["realization_s"]["flowsim"] = -1.0
    with pytest.raises(BenchHistoryError, match="flowsim"):
        validate_history_record(record)


def test_missing_config_key_raises():
    record = _valid_record()
    del record["config"]["seed"]
    with pytest.raises(BenchHistoryError, match="seed"):
        validate_history_record(record)


def test_nonpositive_speedup_raises():
    record = _valid_record()
    record["incremental_speedup_vs_batched"] = 0.0
    with pytest.raises(BenchHistoryError, match="speedup"):
        validate_history_record(record)


def test_index_named_in_error():
    with pytest.raises(BenchHistoryError, match=r"history\[3\]"):
        validate_history_record({}, index=3)


def test_load_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.json") == []


def test_load_snapshot_only_artifact_is_empty(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"config": {}, "batched": {}}))
    assert load_history(path) == []


def test_load_valid_history(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"history": [_valid_record()]}))
    history = load_history(path)
    assert len(history) == 1
    assert history[0]["backend"] == "scipy"


def test_load_corrupt_json_raises(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    with pytest.raises(BenchHistoryError, match="cannot read"):
        load_history(path)


def test_load_non_object_artifact_raises(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(BenchHistoryError, match="object"):
        load_history(path)


def test_load_invalid_record_raises(tmp_path):
    record = _valid_record()
    del record["git_sha"]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"history": [record]}))
    with pytest.raises(BenchHistoryError, match=r"history\[0\]"):
        load_history(path)


def _million_record() -> dict:
    """A record of the second named config (the 1M-endpoint replay)."""
    record = _valid_record()
    record["config_name"] = "twan-1m"
    record["config"] = {
        "topology_name": "twan",
        "total_endpoints": 1_000_000,
        "num_site_pairs": 60,
        "num_intervals": 3,
        "seed": 42,
    }
    record["sharded"] = _mode_summary()
    return record


class TestMixedConfigHistories:
    def test_config_name_of_explicit_and_derived(self):
        assert config_name_of(_million_record()) == "twan-1m"
        # Legacy records carry no config_name; the derived name keeps
        # their trajectory coherent.
        assert config_name_of(_valid_record()) == "twan-20k"

    def test_empty_config_name_raises(self):
        record = _valid_record()
        record["config_name"] = ""
        with pytest.raises(BenchHistoryError, match="config_name"):
            validate_history_record(record)

    def test_optional_sharded_mode_is_validated(self):
        record = _million_record()
        record["sharded"]["assignment_digest"] = "short"
        with pytest.raises(BenchHistoryError, match="sharded"):
            validate_history_record(record)

    def test_mixed_config_history_loads_and_filters(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _valid_record(),
                        _million_record(),
                        _valid_record(),
                    ]
                }
            )
        )
        assert len(load_history(path)) == 3
        assert len(load_history(path, config_name="twan-20k")) == 2
        only_1m = load_history(path, config_name="twan-1m")
        assert len(only_1m) == 1
        assert only_1m[0]["config"]["total_endpoints"] == 1_000_000
        assert load_history(path, config_name="absent") == []

    def test_same_name_divergent_config_raises(self, tmp_path):
        """A config drifting under a stable name corrupts the trajectory."""
        drifted = _valid_record()
        drifted["config"]["num_site_pairs"] = 61
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_valid_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)


def _soak_record() -> dict:
    """A record of the ``soak`` kind (long-horizon SLO trajectory)."""
    return {
        "timestamp": "2026-08-06T00:00:00Z",
        "git_sha": "abcdef123456",
        "kind": "soak",
        "config_name": "soak-full-mix-twan-20k-50i-s0",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 20_000,
            "num_site_pairs": 60,
            "num_intervals": 50,
            "seed": 0,
        },
        "scenario": "full-mix",
        "seed": 0,
        "slo": {
            "availability": 1.0,
            "staleness_p99_s": 50.0,
            "degraded_fraction": 0.0,
            "delivered_floor": 0.9,
            "solver_phase_p99_s": 0.05,
        },
        "violations": [],
        "identity_digest": DIGEST,
    }


class TestSoakRecords:
    def test_valid_soak_record_passes(self):
        validate_history_record(_soak_record())

    def test_record_kind_dispatch(self):
        assert record_kind_of(_soak_record()) == "soak"
        # Perf records predate the kind field; absent means perf.
        assert record_kind_of(_valid_record()) == "perf"
        assert record_kind_of({"kind": ""}) == "perf"

    def test_unknown_kind_raises(self):
        record = _valid_record()
        record["kind"] = "mystery"
        with pytest.raises(BenchHistoryError, match="kind"):
            validate_history_record(record)

    @pytest.mark.parametrize(
        "key", [k for k in SOAK_REQUIRED_KEYS if k != "kind"]
    )
    def test_missing_soak_key_raises(self, key):
        record = _soak_record()
        del record[key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_soak_record_without_kind_fails_as_perf(self):
        # Dropping the kind discriminator demotes the record to the
        # perf schema, which it cannot satisfy.
        record = _soak_record()
        del record["kind"]
        assert record_kind_of(record) == "perf"
        with pytest.raises(BenchHistoryError):
            validate_history_record(record)

    @pytest.mark.parametrize("key", SLO_KEYS)
    def test_missing_slo_metric_raises(self, key):
        record = _soak_record()
        del record["slo"][key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_negative_slo_metric_raises(self):
        record = _soak_record()
        record["slo"]["availability"] = -0.1
        with pytest.raises(BenchHistoryError, match="availability"):
            validate_history_record(record)

    def test_bool_slo_metric_raises(self):
        record = _soak_record()
        record["slo"]["availability"] = True
        with pytest.raises(BenchHistoryError, match="availability"):
            validate_history_record(record)

    def test_bad_identity_digest_raises(self):
        record = _soak_record()
        record["identity_digest"] = "deadbeef"
        with pytest.raises(BenchHistoryError, match="identity_digest"):
            validate_history_record(record)

    def test_non_string_violations_raise(self):
        record = _soak_record()
        record["violations"] = [{"metric": "availability"}]
        with pytest.raises(BenchHistoryError, match="violations"):
            validate_history_record(record)

    def test_soak_missing_config_key_raises(self):
        record = _soak_record()
        del record["config"]["seed"]
        with pytest.raises(BenchHistoryError, match="seed"):
            validate_history_record(record)

    def test_mixed_perf_and_soak_history_loads(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _valid_record(),
                        _soak_record(),
                        _million_record(),
                        _soak_record(),
                    ]
                }
            )
        )
        history = load_history(path)
        assert [record_kind_of(r) for r in history] == [
            "perf", "soak", "perf", "soak",
        ]
        soak_only = load_history(
            path, config_name="soak-full-mix-twan-20k-50i-s0"
        )
        assert len(soak_only) == 2

    def test_soak_same_name_divergent_config_raises(self, tmp_path):
        """The same-name invariant applies across kinds too."""
        drifted = _soak_record()
        drifted["config"]["num_site_pairs"] = 61
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_soak_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)

    def test_invalid_soak_record_rejected_in_history(self, tmp_path):
        record = _soak_record()
        del record["slo"]["availability"]
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_valid_record(), record]})
        )
        with pytest.raises(BenchHistoryError, match=r"history\[1\]"):
            load_history(path)


def _stream_record() -> dict:
    """A record of the ``stream`` kind (online control-loop trajectory)."""
    return {
        "timestamp": "2026-08-09T00:00:00Z",
        "git_sha": "abcdef123456",
        "kind": "stream",
        "config_name": "stream-flash-crowd-hybrid-twan-6k-96e-s0",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 6_000,
            "num_site_pairs": 36,
            "num_intervals": 96,
            "seed": 0,
        },
        "scenario": "flash-crowd",
        "seed": 0,
        "trigger": "hybrid",
        "oracle_ratio": 0.9996,
        "solves_fraction": 0.0833,
        "qos1_floor": 0.9932,
        "shed_volume": 1703.2,
        "identity_digest": DIGEST,
    }


class TestStreamRecords:
    def test_valid_stream_record_passes(self):
        validate_history_record(_stream_record())

    def test_record_kind_dispatch(self):
        assert record_kind_of(_stream_record()) == "stream"

    @pytest.mark.parametrize(
        "key", [k for k in STREAM_REQUIRED_KEYS if k != "kind"]
    )
    def test_missing_stream_key_raises(self, key):
        record = _stream_record()
        del record[key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_bad_identity_digest_raises(self):
        record = _stream_record()
        record["identity_digest"] = "deadbeef"
        with pytest.raises(BenchHistoryError, match="identity_digest"):
            validate_history_record(record)

    @pytest.mark.parametrize(
        "key", ["oracle_ratio", "solves_fraction", "qos1_floor",
                "shed_volume"]
    )
    def test_negative_metric_raises(self, key):
        record = _stream_record()
        record[key] = -0.1
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_bool_metric_raises(self):
        record = _stream_record()
        record["oracle_ratio"] = True
        with pytest.raises(BenchHistoryError, match="oracle_ratio"):
            validate_history_record(record)

    def test_bool_seed_raises(self):
        record = _stream_record()
        record["seed"] = True
        with pytest.raises(BenchHistoryError, match="seed"):
            validate_history_record(record)

    def test_empty_trigger_raises(self):
        record = _stream_record()
        record["trigger"] = ""
        with pytest.raises(BenchHistoryError, match="trigger"):
            validate_history_record(record)

    def test_stream_missing_config_key_raises(self):
        record = _stream_record()
        del record["config"]["num_intervals"]
        with pytest.raises(BenchHistoryError, match="num_intervals"):
            validate_history_record(record)

    def test_mixed_three_kind_history_loads(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _valid_record(),
                        _soak_record(),
                        _stream_record(),
                        _million_record(),
                    ]
                }
            )
        )
        history = load_history(path)
        assert [record_kind_of(r) for r in history] == [
            "perf", "soak", "stream", "perf",
        ]
        stream_only = load_history(
            path, config_name="stream-flash-crowd-hybrid-twan-6k-96e-s0"
        )
        assert len(stream_only) == 1
        assert stream_only[0]["trigger"] == "hybrid"

    def test_stream_same_name_divergent_config_raises(self, tmp_path):
        drifted = _stream_record()
        drifted["config"]["num_site_pairs"] = 37
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_stream_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)


class TestAppendHistoryRecord:
    def test_appends_to_missing_artifact(self, tmp_path):
        path = tmp_path / "bench.json"
        assert append_history_record(path, _stream_record()) == 1
        assert append_history_record(path, _soak_record()) == 2
        history = load_history(path)
        assert [record_kind_of(r) for r in history] == [
            "stream", "soak",
        ]

    def test_preserves_snapshot_payload(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "config": {"note": "latest snapshot"},
                    "history": [_valid_record()],
                }
            )
        )
        append_history_record(path, _stream_record())
        payload = json.loads(path.read_text())
        assert payload["config"] == {"note": "latest snapshot"}
        assert len(payload["history"]) == 2

    def test_rejects_invalid_record_without_writing(self, tmp_path):
        path = tmp_path / "bench.json"
        record = _stream_record()
        del record["trigger"]
        with pytest.raises(BenchHistoryError, match="trigger"):
            append_history_record(path, record)
        assert not path.exists()

    def test_rejects_append_to_corrupt_history(self, tmp_path):
        path = tmp_path / "bench.json"
        bad = _stream_record()
        del bad["trigger"]
        path.write_text(json.dumps({"history": [bad]}))
        with pytest.raises(BenchHistoryError, match=r"history\[0\]"):
            append_history_record(path, _stream_record())


def test_repo_artifact_validates():
    """The checked-in artifact must always pass its own schema."""
    from pathlib import Path

    artifact = Path(__file__).resolve().parent.parent / (
        "BENCH_interval_solve.json"
    )
    history = load_history(artifact)
    assert isinstance(history, list)


@pytest.mark.parametrize(
    "scenario, seed", [("full-mix", 0), ("link-flap", 1), ("sync-storm", 2)]
)
def test_fresh_soak_record_appends_to_repo_artifact(tmp_path, scenario, seed):
    """A soak record at the scale of the committed soak matrix
    (``benchmarks/test_soak_slo.py``) appends to a copy of the checked-in
    artifact: same-name records must pin identical configs, so neither
    side may carry a key the other lacks."""
    import shutil
    from pathlib import Path

    from repro.experiments.soak_study import soak_config, soak_history_record
    from repro.simulation.soak import SLOReport, SoakReport

    artifact = tmp_path / "BENCH_interval_solve.json"
    shutil.copy(
        Path(__file__).resolve().parent.parent / "BENCH_interval_solve.json",
        artifact,
    )
    load_history(artifact)
    cfg = soak_config(
        scenario,
        total_endpoints=6_000,
        num_site_pairs=36,
        num_intervals=20,
        num_agents=24,
        seed=seed,
    )
    report = SoakReport(
        scenario=scenario,
        seed=seed,
        topology="twan",
        num_intervals=20,
        num_flows=0,
        interval_s=300.0,
        num_agents=24,
        num_shards=4,
        assignment_digest=DIGEST,
        slo=SLOReport(
            availability=1.0,
            staleness_p99_s=0.0,
            degraded_fraction=0.0,
            delivered_floor=1.0,
            solver_phase_p99_s=0.01,
            agent_samples=0,
            intervals=20,
        ),
    )
    record = soak_history_record(
        report, cfg, timestamp="2026-10-16T00:00:00Z", git_sha="abcdef123456"
    )
    name = record["config_name"]
    assert len(load_history(artifact, config_name=name)) == 1
    append_history_record(artifact, record)
    assert len(load_history(artifact, config_name=name)) == 2
