"""Pinned identities of the scenario-engine drivers.

The property suites compare a run with itself or with the plain
replay; these pin absolute values, so a refactor of the shared engine
(:mod:`repro.simulation.engine`) that moves any soak, stream or chaos
result fails here even when both sides of an anchor move together.
Each pin is a few seconds of small-scenario simulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro import obs
from repro.core import MegaTEOptimizer
from repro.experiments import chaos_sync
from repro.experiments.common import build_scenario
from repro.simulation.admission import AdmissionConfig
from repro.simulation.soak import run_soak, scenario_events
from repro.simulation.streaming import (
    HybridTrigger,
    run_stream,
    stream_scenario_events,
)
from repro.traffic import DiurnalSequence


@pytest.fixture(scope="module")
def small():
    return build_scenario(
        "twan", total_endpoints=2_000, num_site_pairs=24, target_load=1.4,
        seed=7,
    )


@pytest.fixture(autouse=True)
def _registry_guard():
    yield
    obs.reset()
    obs.set_enabled(False)


def _incremental() -> MegaTEOptimizer:
    return MegaTEOptimizer(incremental=True, delta_threshold=0.0)


@pytest.mark.parametrize(
    "scenario, digest",
    [
        ("full-mix",
         "b1d3863188a3e7ae7c3863407f4c5287ecd8acd82c805ec8f54209d1d94d2bdf"),
        ("sync-storm",
         "5cc2440f4e866a10eef0495bf560dc241c2f048d5be800572b38f15d0465e479"),
    ],
)
def test_soak_identity_pinned(small, scenario, digest):
    report = run_soak(
        small.topology,
        DiurnalSequence(base=small.demands, seed=5),
        12,
        scenario_events(scenario, 12, seed=0),
        optimizer=_incremental(),
        seed=0,
        scenario=scenario,
        topology_name="twan",
    )
    assert report.identity_digest() == digest


@pytest.mark.parametrize(
    "admission, digest",
    [
        (None,
         "45422857a55f51750b0a61fc8de28233f246249901fc6a2292a164224eee5d6a"),
        (AdmissionConfig(budget_factor=1.15),
         "83ce394b5099b39a1aaca79d61d72531bb7c4d059339c9a77215164627072d43"),
    ],
    ids=["no-admission", "admission"],
)
def test_flash_crowd_stream_identity_pinned(small, admission, digest):
    report = run_stream(
        small.topology,
        small.demands,
        stream_scenario_events("flash-crowd", 24, 16, tick_s=30.0, seed=0),
        16,
        tick_s=30.0,
        trigger=HybridTrigger(threshold=0.25, refresh_s=600.0),
        optimizer=_incremental(),
        admission=admission,
        seed=0,
        scenario="flash-crowd",
        topology_name="twan",
    )
    assert report.identity_digest() == digest


def test_chaos_rows_pinned():
    rows = [
        asdict(
            chaos_sync.simulate(
                intensity=intensity,
                seed=0,
                num_agents=8,
                num_shards=3,
                horizon_s=120.0,
                publish_period_s=40.0,
                poll_period_s=5.0,
                tick_s=1.0,
            ).row
        )
        for intensity in (0.0, 0.5, 1.0)
    ]
    payload = json.dumps(rows, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == (
        "a876aaaf65aa3bb260f9eb494935622d72f832364043f2f3ebae10c494749d9c"
    )
