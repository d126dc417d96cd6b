"""Chaos property tests: sync-plane invariants under any seeded fault plan.

Drives the chaos harness (:mod:`repro.experiments.chaos_sync`) — which
checks its invariants *inside* the simulation loop on every sample — and
asserts none fire, for Hypothesis-drawn fault plans and for a broad
fixed-seed sweep.  The invariants:

* no agent is ever at a version newer than the published one;
* agent versions are monotone (stale-replica reads never roll back);
* an agent still vouching for its config (``serving_paths``) is within
  its staleness bound;
* faults degrade availability but never correctness, and the fleet
  converges on the final version once the weather clears;
* a shard's committed version never exceeds the newest version whose
  configs are all readable on that shard — through crashes, re-sharding,
  reconciles, stale replicas and commits that fail part-way (checked
  here against the store directly, with the same reads an agent makes).

The Hypothesis budget is environment-tunable so the scheduled chaos CI
lane can run far more examples than the default push-time suite:

* ``CHAOS_EXAMPLES`` — examples per property (default 15);
* ``CHAOS_SEED`` — base seed for the fixed-seed sweep matrix (default 0).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.controlplane import (
    FaultPlan,
    FaultWindow,
    FaultyTEDatabase,
    ResumablePublisher,
    ShardFaults,
    ShardHealthMonitor,
    SyncError,
    TEDatabase,
    config_key,
    orchestrate_shard_failover,
)
from repro.experiments import chaos_sync

CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "15"))
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Small-but-representative simulation: a few poll periods, several
#: publishes, every fault class reachable.  Keeps one run ~10 ms so the
#: seed sweep can cover hundreds of plans.
SMALL_SIM = dict(
    num_agents=8,
    num_shards=3,
    horizon_s=120.0,
    publish_period_s=40.0,
    poll_period_s=5.0,
    tick_s=1.0,
)

_chaos_settings = settings(
    max_examples=CHAOS_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_invariants(result: chaos_sync.ChaosSimResult) -> None:
    row = result.row
    assert result.violations == [], result.violations[:5]
    assert row.invariant_violations == 0
    assert 0.0 <= row.availability <= 1.0
    assert 0.0 <= row.poll_success_rate <= 1.0
    for agent in result.agents:
        assert agent.local_version <= result.published_version
        assert agent.local_version >= 0


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    intensity=st.floats(min_value=0.0, max_value=1.0),
)
@_chaos_settings
def test_invariants_hold_for_any_plan(seed: int, intensity: float):
    result = chaos_sync.simulate(
        intensity=intensity, seed=seed, **SMALL_SIM
    )
    _assert_invariants(result)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@_chaos_settings
def test_max_intensity_still_converges(seed: int):
    """Even at intensity 1.0, the managed store converges eventually."""
    result = chaos_sync.simulate(
        intensity=1.0, seed=seed, **SMALL_SIM
    )
    _assert_invariants(result)
    assert result.row.final_converged_fraction == 1.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@_chaos_settings
def test_simulation_replays_bit_for_bit(seed: int):
    a = chaos_sync.simulate(intensity=0.8, seed=seed, **SMALL_SIM)
    b = chaos_sync.simulate(intensity=0.8, seed=seed, **SMALL_SIM)
    assert a.row == b.row


def test_fair_weather_is_fully_available():
    result = chaos_sync.simulate(intensity=0.0, seed=CHAOS_SEED, **SMALL_SIM)
    _assert_invariants(result)
    assert result.row.availability == 1.0
    assert result.row.injected_faults == 0
    assert result.row.failed_polls == 0
    assert result.row.final_converged_fraction == 1.0


def test_unmanaged_store_still_never_lies():
    """Without the failover pass, availability may crater — but an
    agent must still never serve past its bound or ahead of publish."""
    for seed in range(CHAOS_SEED, CHAOS_SEED + 20):
        result = chaos_sync.simulate(
            intensity=1.0,
            seed=seed,
            manage_failover=False,
            **SMALL_SIM,
        )
        _assert_invariants(result)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tick_s", 0.0),
        ("tick_s", -1.0),
        ("tick_s", float("nan")),
        ("publish_period_s", float("nan")),
        ("poll_period_s", float("nan")),
        ("horizon_s", float("inf")),
    ],
)
def test_bad_clocks_rejected(field, value):
    # A zero or negative tick used to loop forever; a NaN one to
    # publish nothing.
    with pytest.raises(ValueError, match=field):
        chaos_sync.simulate(0.5, **{**SMALL_SIM, field: value})


def test_seeded_plan_sweep():
    """The acceptance sweep: >= 200 seeded fault plans, all invariant-clean
    and all degrading gracefully."""
    intensities = (0.25, 0.5, 0.75, 1.0)
    seeds = range(CHAOS_SEED, CHAOS_SEED + 50)
    runs = 0
    for seed in seeds:
        for intensity in intensities:
            result = chaos_sync.simulate(
                intensity=intensity, seed=seed, **SMALL_SIM
            )
            _assert_invariants(result)
            assert result.row.final_converged_fraction == 1.0
            runs += 1
    assert runs >= 200


def _drive_store(plan: FaultPlan, manage_failover: bool) -> dict[str, int]:
    """Publish every 25 s for 120 s through ``plan``, a few writes per
    tick so publishes span ticks and supersede one another, and check
    after every tick that no key's shard vouches for a version newer
    than the config it serves for that key."""
    num_endpoints, num_shards = 8, 3
    database = FaultyTEDatabase(
        TEDatabase(num_shards=num_shards, shard_capacity_qps=1_000_000), plan
    )
    publisher = ResumablePublisher(database, num_endpoints)
    monitor = ShardHealthMonitor(down_after=2, up_after=1)
    seen = {"partial_commits": 0, "checks": 0}
    for tick in range(181):
        now = float(tick)
        if manage_failover:
            orchestrate_shard_failover(database, now, monitor=monitor)
        if tick % 25 == 0 and tick <= 120:
            publisher.start(tick // 25 + 1)
        publisher.pump(now, budget=3)
        committed_on = {
            database.committed_version(s) for s in range(num_shards)
        }
        seen["partial_commits"] += len(committed_on) > 1
        for endpoint in range(num_endpoints):
            key = config_key(endpoint)
            try:
                committed, key_version = database.check_version(key, now=now)
                newest = 0
                if key_version:
                    config, pulled = database.get(key, now=now)
                    assert pulled == key_version
                    newest = config.version
            except SyncError:
                continue
            # Every publish rewrites every config, so a config older
            # than the commit means the commit vouches for a lost write.
            assert committed <= newest, (tick, endpoint)
            seen["checks"] += 1
    seen["converged"] = committed_on == {publisher.published_version}
    return seen


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    intensity=st.floats(min_value=0.0, max_value=1.0),
    manage_failover=st.booleans(),
)
@_chaos_settings
def test_committed_version_never_outruns_readable_configs(
    seed: int, intensity: float, manage_failover: bool
):
    plan = FaultPlan.generate(
        seed=seed, num_shards=3, horizon_s=120.0, intensity=intensity
    )
    assert _drive_store(plan, manage_failover)["checks"]


def test_commit_failing_part_way_through_crash_reshard_reconcile():
    """The same invariant on a hand-built plan that is sure to hit it:
    shard 0 crashes mid-run with a lagging replica, the commits issued
    meanwhile reach only the live shards, its keys are evacuated and come
    home on reconcile."""
    plan = FaultPlan(
        shards={
            0: ShardFaults(
                crash_windows=(FaultWindow(40.0, 90.0),), stale_lag_s=20.0
            )
        }
    )
    for manage_failover in (True, False):
        seen = _drive_store(plan, manage_failover)
        # Unmanaged, shard 0's config writes stall the publish instead.
        assert bool(seen["partial_commits"]) == manage_failover
        assert seen["checks"] and seen["converged"]
