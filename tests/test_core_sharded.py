"""Tests for the process-parallel sharded second stage.

Covers the selection pattern (arg > ``REPRO_SHARD_WORKERS`` > serial),
shard planning, bit-identity of the sharded solve against the serial
reference, telemetry fold-back, and shared-memory hygiene — segments
must be unlinked on every exit path, including worker death.
"""

from __future__ import annotations

import hashlib
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import (
    MegaTEOptimizer,
    ShardedConfig,
    plan_shards,
)
from repro.core.sharded import (
    SEGMENT_PREFIX,
    SHARD_WORKERS_ENV,
    live_segment_names,
)
from repro.core.types import StatKey
from repro.experiments.common import build_scenario

SHM_DIR = Path("/dev/shm")


def _shard_segments() -> set[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux fallback
        return set()
    return {
        p.name
        for p in SHM_DIR.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    }


@pytest.fixture()
def shm_leak_check():
    """Fail the test if it leaves shard segments behind in /dev/shm."""
    before = _shard_segments()
    yield
    leaked = _shard_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _digest(result) -> str:
    h = hashlib.sha256()
    for arr in result.assignment.per_pair:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def scenario():
    """Overloaded scenario: enough contention that sharding dispatches."""
    sc = build_scenario(
        "twan",
        total_endpoints=4_000,
        num_site_pairs=40,
        target_load=1.6,
        seed=7,
    )
    return sc.topology, sc.demands


@pytest.fixture(scope="module")
def serial_result(scenario):
    topology, demands = scenario
    return MegaTEOptimizer().solve(topology, demands)


class TestShardedConfigResolve:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv(SHARD_WORKERS_ENV, "7")
        assert ShardedConfig.resolve(3).workers == 3
        # Explicit serial beats the environment, like lp_backend's arg.
        assert ShardedConfig.resolve(0) is None
        assert ShardedConfig.resolve(1) is None

    def test_env_fallback_then_serial_default(self, monkeypatch):
        monkeypatch.delenv(SHARD_WORKERS_ENV, raising=False)
        assert ShardedConfig.resolve(None) is None
        monkeypatch.setenv(SHARD_WORKERS_ENV, "4")
        assert ShardedConfig.resolve(None).workers == 4
        monkeypatch.setenv(SHARD_WORKERS_ENV, "1")
        assert ShardedConfig.resolve(None) is None

    def test_config_passthrough(self):
        config = ShardedConfig(workers=2, strategy="balanced")
        assert ShardedConfig.resolve(config) is config

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShardedConfig(workers=1)
        with pytest.raises(ValueError):
            ShardedConfig(workers=2, strategy="striped")
        with pytest.raises(ValueError):
            ShardedConfig(workers=2, min_pairs_per_shard=0)
        with pytest.raises(ValueError):
            ShardedConfig.resolve(-2)


class TestPlanShards:
    def test_contiguous_split_covers_input(self):
        ks = np.arange(10, dtype=np.int64)
        parts = plan_shards(
            ks, np.ones(10), ShardedConfig(workers=3)
        )
        assert [p.size for p in parts] == [4, 3, 3]
        assert np.array_equal(np.concatenate(parts), ks)

    def test_serial_cutoff(self):
        ks = np.arange(3, dtype=np.int64)
        config = ShardedConfig(workers=4, min_pairs_per_shard=2)
        # 3 pairs / min 2 per shard -> only 1 shard -> serial.
        assert plan_shards(ks, np.ones(3), config) is None
        assert plan_shards(
            np.empty(0, dtype=np.int64), np.empty(0), config
        ) is None

    def test_balanced_follows_weights(self):
        ks = np.arange(8, dtype=np.int64)
        weights = np.array([100, 1, 1, 1, 1, 1, 1, 1], dtype=np.float64)
        config = ShardedConfig(
            workers=2, strategy="balanced", min_pairs_per_shard=1
        )
        parts = plan_shards(ks, weights, config)
        assert len(parts) == 2
        # The heavy first pair gets its own shard.
        assert parts[0].size == 1
        assert np.array_equal(np.concatenate(parts), ks)

    def test_balanced_degenerate_weights_keep_shards_nonempty(self):
        ks = np.arange(6, dtype=np.int64)
        config = ShardedConfig(
            workers=3, strategy="balanced", min_pairs_per_shard=1
        )
        parts = plan_shards(ks, np.zeros(6), config)
        assert all(p.size > 0 for p in parts)
        assert np.array_equal(np.concatenate(parts), ks)


class TestShardedSolve:
    def test_bit_identical_to_serial(
        self, scenario, serial_result, shm_leak_check
    ):
        topology, demands = scenario
        with MegaTEOptimizer(shard_workers=3) as opt:
            sharded = opt.solve(topology, demands)
        assert sharded.stats[StatKey.NUM_SHARDED_PAIRS] > 0
        assert sharded.stats[StatKey.SHARD_WORKERS] == 3
        assert _digest(sharded) == _digest(serial_result)
        assert (
            sharded.satisfied_volume == serial_result.satisfied_volume
        )

    def test_balanced_strategy_also_bit_identical(
        self, scenario, serial_result, shm_leak_check
    ):
        topology, demands = scenario
        config = ShardedConfig(
            workers=2, strategy="balanced", min_pairs_per_shard=1
        )
        with MegaTEOptimizer(shard_workers=config) as opt:
            sharded = opt.solve(topology, demands)
        assert sharded.stats[StatKey.NUM_SHARDED_PAIRS] > 0
        assert _digest(sharded) == _digest(serial_result)

    def test_context_reuse_across_intervals(
        self, scenario, serial_result, shm_leak_check
    ):
        topology, demands = scenario
        with MegaTEOptimizer(shard_workers=2) as opt:
            first = opt.solve(topology, demands)
            ctx = opt._sharded.ctx
            second = opt.solve(topology, demands)
            assert opt._sharded.ctx is ctx  # arena + pool were reused
        assert _digest(first) == _digest(second) == _digest(serial_result)

    def test_env_var_selection(
        self, scenario, serial_result, shm_leak_check, monkeypatch
    ):
        topology, demands = scenario
        monkeypatch.setenv(SHARD_WORKERS_ENV, "2")
        with MegaTEOptimizer() as opt:
            sharded = opt.solve(topology, demands)
        assert sharded.stats[StatKey.SHARD_WORKERS] == 2
        assert sharded.stats[StatKey.NUM_SHARDED_PAIRS] > 0
        assert _digest(sharded) == _digest(serial_result)

    def test_serial_cutoff_keeps_solve_in_process(
        self, scenario, serial_result, shm_leak_check
    ):
        topology, demands = scenario
        config = ShardedConfig(workers=2, min_pairs_per_shard=10_000)
        with MegaTEOptimizer(shard_workers=config) as opt:
            result = opt.solve(topology, demands)
        assert result.stats[StatKey.NUM_SHARDED_PAIRS] == 0
        assert _digest(result) == _digest(serial_result)

    def test_incremental_warm_start_parity(self, scenario, shm_leak_check):
        from repro.traffic.matrices import DiurnalSequence

        topology, demands = scenario
        sequence = DiurnalSequence(base=demands, seed=3)
        inproc = MegaTEOptimizer(incremental=True, delta_threshold=0.05)
        with MegaTEOptimizer(
            incremental=True, delta_threshold=0.05, shard_workers=2
        ) as sharded_opt:
            reused = 0
            for interval in range(3):
                matrix = sequence.matrix(interval)
                a = inproc.solve(topology, matrix)
                b = sharded_opt.solve(topology, matrix)
                assert _digest(a) == _digest(b)
                assert (
                    a.stats[StatKey.SSP_STATE_REUSED]
                    == b.stats[StatKey.SSP_STATE_REUSED]
                )
                reused += b.stats[StatKey.SSP_STATE_REUSED]
        assert reused > 0  # the sharded warm path actually fired

    def test_worker_telemetry_folds_back(self, scenario, shm_leak_check):
        topology, demands = scenario
        obs.set_enabled(True)
        obs.reset()
        try:
            with MegaTEOptimizer(shard_workers=2) as opt:
                result = opt.solve(topology, demands)
            assert result.stats[StatKey.NUM_SHARDED_PAIRS] > 0
            snapshot = obs.get_registry().snapshot()
            assert "megate_shard_pairs_total" in snapshot
            pairs_from_workers = sum(
                series["state"]["value"]
                for series in snapshot["megate_shard_pairs_total"][
                    "series"
                ]
            )
            assert pairs_from_workers == result.stats[
                StatKey.NUM_SHARDED_PAIRS
            ]
            assert "megate_shard_phase_seconds" in snapshot
        finally:
            obs.set_enabled(False)
            obs.reset()

    def test_shard_timings_recorded(self, scenario, shm_leak_check):
        topology, demands = scenario
        with MegaTEOptimizer(shard_workers=2) as opt:
            result = opt.solve(topology, demands)
        timings = result.stats[StatKey.SHARD_TIMINGS]
        assert timings
        for task in timings:
            assert task["pairs"] > 0
            assert task["seconds"] >= 0.0
            assert set(task["phase_s"]) == {"fill", "writeback"}
        assert (
            sum(t["pairs"] for t in timings)
            == result.stats[StatKey.NUM_SHARDED_PAIRS]
        )


class TestShmCleanup:
    def test_close_unlinks_segment(self, scenario, shm_leak_check):
        topology, demands = scenario
        opt = MegaTEOptimizer(shard_workers=2)
        opt.solve(topology, demands)
        assert live_segment_names()  # arena is live while the opt is open
        opt.close()
        assert not live_segment_names()
        opt.close()  # idempotent

    def test_gc_unlinks_segment(self, scenario, shm_leak_check):
        import gc

        topology, demands = scenario
        opt = MegaTEOptimizer(shard_workers=2)
        opt.solve(topology, demands)
        del opt
        gc.collect()
        assert not live_segment_names()

    def test_worker_crash_degrades_and_unlinks(
        self, scenario, serial_result, shm_leak_check
    ):
        """Killing the workers mid-life must not leak the arena, and the
        optimizer must finish the solve through the in-process path."""
        topology, demands = scenario
        with MegaTEOptimizer(shard_workers=2) as opt:
            first = opt.solve(topology, demands)
            assert first.stats[StatKey.NUM_SHARDED_PAIRS] > 0
            for proc in opt._sharded.ctx._pool._processes.values():
                os.kill(proc.pid, signal.SIGKILL)
            degraded = opt.solve(topology, demands)
            # The broken pool disabled sharding; the result is intact.
            assert degraded.stats[StatKey.NUM_SHARDED_PAIRS] == 0
            assert _digest(degraded) == _digest(serial_result)
            assert opt._sharded.disabled
            again = opt.solve(topology, demands)
            assert _digest(again) == _digest(serial_result)
        assert not live_segment_names()
