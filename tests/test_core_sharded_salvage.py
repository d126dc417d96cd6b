"""Worker-crash degradation of the sharded second stage.

A shard worker can die mid-dispatch (the production analogue is an
OOM-kill).  The contract under test: completed shards' results and
telemetry snapshots are salvaged and merged *exactly once* (no
double-counted ``megate_shard_*`` series), the lost pairs are re-solved
in-process so the assignment stays bit-identical to the serial
reference, and the optimizer tears the context down and keeps solving.

Two injection levels: a fake half-broken pool pins the partial-salvage
branch deterministically (a real crash races the executor's
broken-pool detection, which can fail every future), and the
``REPRO_SHARD_FAILPOINT`` env failpoint kills a real worker process to
cover the genuine ``BrokenProcessPool`` path, asserting the
race-proof invariants only.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.core import MegaTEOptimizer
from repro.core import sharded as sharded_mod
from repro.core.sharded import SHARD_FAILPOINT_ENV
from repro.core.types import StatKey
from repro.experiments.common import build_scenario
from repro.simulation.soak import run_soak
from repro.traffic import DiurnalSequence

from test_core_sharded import (  # noqa: F401  (fixture re-use)
    scenario,
    serial_result,
    shm_leak_check,
)


def _digest(result) -> str:
    h = hashlib.sha256()
    for arr in result.assignment.per_pair:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _shard_pairs_total() -> float:
    entry = obs.get_registry().snapshot().get("megate_shard_pairs_total")
    if not entry:
        return 0.0
    return sum(s["state"]["value"] for s in entry["series"])


@pytest.fixture()
def metrics_on():
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(False)


class _HalfBrokenPool:
    """Shard 0 completes in-process; every other shard 'crashes'.

    Runs the real ``_worker_solve_range`` against the parent's arena
    (with the module's worker state temporarily pointed at it), so the
    completed shard produces a genuine result dict and telemetry
    snapshot; the rest get a ``BrokenProcessPool`` on their futures —
    exactly what the executor reports when a worker dies after some
    shards already returned.
    """

    def __init__(self, ctx, inner):
        self._ctx = ctx
        self._inner = inner

    def submit(self, fn, shard_index, *args) -> Future:
        future: Future = Future()
        if shard_index == 0:
            prev = sharded_mod._WORKER
            sharded_mod._WORKER = {
                "arena": self._ctx.arena,
                "obs": obs.get_registry().enabled,
            }
            try:
                future.set_result(fn(shard_index, *args))
            finally:
                sharded_mod._WORKER = prev
        else:
            future.set_exception(BrokenProcessPool("injected crash"))
        return future

    def shutdown(self, **kwargs) -> None:
        self._inner.shutdown(**kwargs)


class TestPartialSalvage:
    def test_completed_shards_survive_without_double_count(
        self, scenario, serial_result, shm_leak_check, metrics_on
    ):
        topology, demands = scenario
        with MegaTEOptimizer(shard_workers=2) as opt:
            healthy = opt.solve(topology, demands)
            healthy_sharded = healthy.stats[StatKey.NUM_SHARDED_PAIRS]
            assert healthy_sharded > 0
            ctx = opt._sharded.ctx
            ctx._pool = _HalfBrokenPool(ctx, ctx._pool)

            obs.reset()  # isolate the crash interval's series
            crashed = opt.solve(topology, demands)

            # Bit-identical to the serial reference despite the crash.
            assert _digest(crashed) == _digest(serial_result)
            # Shard 0 of the first dispatched class was salvaged; the
            # lost pairs were re-solved in-process and do not count.
            salvaged = crashed.stats[StatKey.NUM_SHARDED_PAIRS]
            assert 0 < salvaged < healthy_sharded
            assert salvaged == sum(
                t["pairs"]
                for t in crashed.stats[StatKey.SHARD_TIMINGS]
            )
            # Exactly-once telemetry merge: the registry's shard-pair
            # count equals the salvaged count (a double merge would
            # show 2x; a dropped snapshot would show 0).
            assert _shard_pairs_total() == salvaged

            # Context torn down; later solves degrade cleanly and stay
            # bit-identical.
            assert opt._sharded.disabled
            assert opt._sharded.ctx is None
            after = opt.solve(topology, demands)
            assert _digest(after) == _digest(serial_result)
            assert after.stats[StatKey.NUM_SHARDED_PAIRS] == 0


class TestWorkerProcessCrash:
    def test_failpoint_crash_degrades_bit_identically(
        self, scenario, serial_result, shm_leak_check, metrics_on, monkeypatch
    ):
        topology, demands = scenario
        # Must be set before the pool forks: workers inherit the env.
        monkeypatch.setenv(SHARD_FAILPOINT_ENV, "1")
        with MegaTEOptimizer(shard_workers=2) as opt:
            crashed = opt.solve(topology, demands)
            assert _digest(crashed) == _digest(serial_result)
            # Whether shard 0 beat the executor's broken-pool detection
            # is a race; the invariant is agreement between the solver
            # stat, the per-task timings, and the merged telemetry —
            # any double count or dropped snapshot breaks it.
            salvaged = crashed.stats[StatKey.NUM_SHARDED_PAIRS]
            assert salvaged == sum(
                t["pairs"]
                for t in crashed.stats[StatKey.SHARD_TIMINGS]
            )
            assert _shard_pairs_total() == salvaged
            assert opt._sharded.disabled
            after = opt.solve(topology, demands)
            assert _digest(after) == _digest(serial_result)


class TestSoakCrashRegression:
    def test_mid_soak_crash_keeps_digest_and_metrics(
        self, shm_leak_check, monkeypatch
    ):
        """A worker crash during a soak interval must not corrupt the
        replay digest or double-count merged ``megate_shard_*`` series
        (the run's SLO report is computed from that registry)."""
        sc = build_scenario(
            "twan",
            total_endpoints=2_000,
            num_site_pairs=24,
            target_load=1.6,
            seed=7,
        )
        sequence = DiurnalSequence(base=sc.demands, seed=5)
        reference = run_soak(
            sc.topology, sequence, 3, (), seed=0, scenario="baseline"
        )
        monkeypatch.setenv(SHARD_FAILPOINT_ENV, "1")
        with MegaTEOptimizer(
            incremental=True, delta_threshold=0.0, shard_workers=2
        ) as opt:
            report = run_soak(
                sc.topology,
                sequence,
                3,
                (),
                optimizer=opt,
                seed=0,
                scenario="baseline",
            )
        assert report.assignment_digest == reference.assignment_digest
        # run_soak leaves the run's metrics in the registry: the merged
        # shard series must agree with the solver's sharded-pair count.
        assert _shard_pairs_total() == report.num_sharded_pairs
        obs.reset()
