"""One hostile-input sweep over the public constructors and entry points.

Every numeric field of the registry below is fed NaN, ``±inf``, ``0``,
``-1``, where the field has an upper bound a value above it, and where
it is a count of at least one, ``0.5``.  The call must raise a
``ValueError`` whose message names the field, unless the ``(field,
value)`` pair is on :data:`ACCEPTED`, which says why it is a legal
input; an accepted pair must then go through.  The rule each
field follows lives in :mod:`repro.checks`.

A Hypothesis property then draws arbitrary floats for the fast entries:
whatever the value, the call goes through or raises a ``ValueError``
naming the field, and NaN never goes through.  Its budget is
``CHAOS_EXAMPLES`` (default 15), which the nightly chaos lane raises.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import checks
from repro.baselines.ncflow import NCFlowTE
from repro.baselines.pop import POPTE
from repro.controlplane import (
    DemandCollector,
    EndpointAgent,
    FaultPlan,
    FaultWindow,
    FaultyTEDatabase,
    RetryPolicy,
    ShardFaults,
    TEDatabase,
    spread_offsets,
)
from repro.controlplane.watcher import LinkStateMonitor
from repro.core.fastssp import _triage, fast_ssp, fast_ssp_sorted
from repro.core.flowtable import FlowTable
from repro.core.incremental import IncrementalConfig
from repro.core.siteflow import SiteFlowSolver
from repro.core.ssp import greedy_ssp, meet_in_the_middle_ssp
from repro.dataplane.ebpf import EBPFMap
from repro.experiments import chaos_sync
from repro.experiments.common import build_scenario
from repro.obs.metrics import log_linear_buckets
from repro.simulation.admission import AdmissionConfig
from repro.simulation.soak import (
    FlashCrowd,
    LinkCut,
    MaintenanceDrain,
    ShardFailover,
    SLOSpec,
    StaleReplicaStorm,
    run_soak,
)
from repro.simulation.streaming import (
    BurstStart,
    DeltaTrigger,
    FlowArrival,
    FlowDeparture,
    HybridTrigger,
    PeriodicTrigger,
    StreamEvent,
    VolumeScale,
    run_stream,
)
from repro.topology import Link
from repro.topology.tunnels import build_tunnels
from repro.traffic import DiurnalSequence, PairDemands, generate_demands
from repro.traffic.prediction import DiurnalPredictor

CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "15"))

INF = math.inf
NAN = math.nan

#: The hostile values every field is fed, by label.
HOSTILE = {"nan": NAN, "inf": INF, "-inf": -INF, "0": 0, "-1": -1}


@lru_cache(maxsize=None)
def _scenario():
    """A small TWAN scenario (topology, demands) for the run entry points."""
    sc = build_scenario("twan", total_endpoints=600, num_site_pairs=6, seed=3)
    return sc.topology, sc.demands


@lru_cache(maxsize=None)
def _solver() -> SiteFlowSolver:
    return SiteFlowSolver.for_topology(_scenario()[0])


def _solve_priced(**arrays) -> None:
    """``solve_priced`` with one entry of one argument replaced."""
    solver = _solver()
    args = {
        "site_demands": _scenario()[1].site_demands(),
        "capacities": solver.capacities.copy(),
        "tunnel_weights": solver.tunnel_weights.copy(),
    }
    epsilon = arrays.pop("epsilon", None)
    for name, value in arrays.items():
        args[name] = args[name].copy()
        args[name][0] = value
    solver.solve_priced(
        args["site_demands"], args["capacities"], args["tunnel_weights"], epsilon
    )


def _flow_table(volume: float) -> FlowTable:
    table = FlowTable.from_columns(
        [np.array([volume, 1.0])], [np.array([1, 2], dtype=np.int8)]
    )
    table.validate()
    return table


def _host_report(byte_count: float) -> None:
    collector = DemandCollector(_scenario()[0])
    collector.ingest_host_report({7: byte_count}, {7: 1})


#: Chaos simulation kept to a few ticks: accepted values run it whole.
SMALL_CHAOS = dict(
    intensity=0.3,
    num_agents=4,
    num_shards=2,
    horizon_s=60.0,
    publish_period_s=20.0,
    poll_period_s=5.0,
    tick_s=1.0,
)


def _chaos(**override) -> None:
    chaos_sync.simulate(**{**SMALL_CHAOS, **override})


@dataclass(frozen=True)
class Case:
    """One numeric field of one public entry point.

    ``call(value)`` builds the input with only this field hostile;
    ``high`` is a value above the field's range (None: no upper bound).
    ``count`` marks a count of at least one, which ``0.5`` must fail.
    ``any_float`` is False for the entries the Hypothesis property
    leaves to the fixed sweep: those that run a solve or a simulation
    on an accepted value, and integer counts, where a fractional value
    is a ``TypeError`` at first use.
    """

    field: str
    call: Callable[[float], object]
    high: float | None = None
    count: bool = False
    any_float: bool = True

    @property
    def name(self) -> str:
        """The field name the error message must carry."""
        return re.split(r"[. ]", self.field)[-1]


def _kw(factory, field: str, **base) -> Callable[[float], object]:
    return lambda value: factory(**{**base, field: value})


REGISTRY = [
    # topology and stage 1
    *[
        Case(f"Link.{f}", _kw(Link, f, src="a", dst="b", capacity=1.0))
        for f in ("capacity", "latency_ms", "cost_per_gbps")
    ],
    Case("Link.availability", _kw(Link, "availability", src="a", dst="b",
                                  capacity=1.0), high=1.5),
    *[
        Case(f"solve_priced.{f}", lambda v, f=f: _solve_priced(**{f: v}),
             any_float=False)
        for f in ("site_demands", "capacities", "tunnel_weights", "epsilon")
    ],
    # faults and the store
    Case("FaultWindow.start", lambda v: FaultWindow(v, INF)),
    Case("FaultWindow.end", lambda v: FaultWindow(-5.0, v)),
    *[
        Case(f"ShardFaults.{f}", _kw(ShardFaults, f), high=1.5)
        for f in ("read_error_rate", "write_error_rate")
    ],
    *[
        Case(f"ShardFaults.{f}", _kw(ShardFaults, f))
        for f in ("extra_latency_s", "stale_lag_s")
    ],
    Case("FaultPlan.intensity", _kw(FaultPlan.generate, "intensity", seed=1,
                                    num_shards=2, horizon_s=60.0), high=1.5),
    Case("FaultPlan.horizon_s", _kw(FaultPlan.generate, "horizon_s", seed=1,
                                    num_shards=2)),
    Case("FaultPlan.num_shards", _kw(FaultPlan.generate, "num_shards", seed=1,
                                     horizon_s=60.0), count=True,
         any_float=False),
    *[
        Case(f"RetryPolicy.{f}", _kw(RetryPolicy, f))
        for f in ("max_retries", "backoff_base_s", "backoff_multiplier",
                  "backoff_cap_s", "poll_budget_s")
    ],
    Case("RetryPolicy.jitter", _kw(RetryPolicy, "jitter"), high=1.0),
    Case("TEDatabase.num_shards", _kw(TEDatabase, "num_shards"), count=True,
         any_float=False),
    Case("TEDatabase.shard_capacity_qps", _kw(TEDatabase, "shard_capacity_qps")),
    Case("TEDatabase.timeout_s",
         lambda v: FaultyTEDatabase(TEDatabase(), timeout_s=v)),
    # agents and the collector
    *[
        Case(f"EndpointAgent.{f}", _kw(EndpointAgent, f, endpoint_id=3))
        for f in ("poll_period_s", "poll_offset_s", "max_staleness_s")
    ],
    Case("DemandCollector.interval_seconds",
         lambda v: DemandCollector(_scenario()[0], interval_seconds=v)),
    Case("DemandCollector.bytes_sent", _host_report, any_float=False),
    Case("spread_offsets.num_agents", lambda v: spread_offsets(v, 10.0),
         any_float=False),
    Case("spread_offsets.window_s", lambda v: spread_offsets(4, v)),
    # SLOs, triggers and stream events
    *[
        Case(f"SLOSpec.{f}", _kw(SLOSpec, f), high=1.5)
        for f in ("min_availability", "max_degraded_fraction",
                  "min_delivered_floor")
    ],
    *[
        Case(f"SLOSpec.{f}", _kw(SLOSpec, f))
        for f in ("max_staleness_p99_s", "max_solver_phase_p99_s")
    ],
    # OracleTrigger has no numeric field.
    Case("PeriodicTrigger.period_s", _kw(PeriodicTrigger, "period_s")),
    Case("DeltaTrigger.threshold", _kw(DeltaTrigger, "threshold")),
    Case("HybridTrigger.threshold", _kw(HybridTrigger, "threshold")),
    Case("HybridTrigger.refresh_s", _kw(HybridTrigger, "refresh_s")),
    Case("StreamEvent.time", _kw(StreamEvent, "time")),
    Case("VolumeScale.factor", _kw(VolumeScale, "factor", time=0.0)),
    Case("FlowArrival.fraction", _kw(FlowArrival, "fraction", time=0.0),
         high=1.5),
    Case("FlowArrival.volume_scale", _kw(FlowArrival, "volume_scale", time=0.0)),
    Case("FlowDeparture.fraction", _kw(FlowDeparture, "fraction", time=0.0),
         high=1.5),
    Case("BurstStart.magnitude", _kw(BurstStart, "magnitude", time=0.0)),
    # soak events
    *[
        Case(f"{name}.{f}", _kw(factory, f, start=0, duration=1), high=high)
        for name, factory, f, high in [
            ("FlashCrowd", FlashCrowd, "magnitude", None),
            ("FlashCrowd", FlashCrowd, "pair_fraction", 1.5),
            ("MaintenanceDrain", MaintenanceDrain, "residual", None),
            ("MaintenanceDrain", MaintenanceDrain, "pair_fraction", 1.5),
            ("LinkCut", LinkCut, "num_fibers", None),
            ("ShardFailover", ShardFailover, "shard", None),
            ("StaleReplicaStorm", StaleReplicaStorm, "lag_s", None),
        ]
    ],
    Case("StaleReplicaStorm.shards",
         lambda v: StaleReplicaStorm(start=0, duration=1, shards=(0, v))),
    # counts of at least one elsewhere: buckets, maps, monitors, models
    *[
        Case(f"{name}.{f}", _kw(factory, f, **base), count=True,
             any_float=False)
        for name, factory, f, base in [
            ("LinkStateMonitor", LinkStateMonitor, "down_after", {}),
            ("LinkStateMonitor", LinkStateMonitor, "up_after", {}),
            ("EBPFMap", EBPFMap, "max_entries", {"name": "m"}),
            ("log_linear_buckets", log_linear_buckets, "decades", {}),
            ("LinkCut", LinkCut, "duration", {"start": 0}),
            ("POPTE", POPTE, "num_partitions", {}),
            ("NCFlowTE", NCFlowTE, "num_clusters", {}),
            ("NCFlowTE", NCFlowTE, "paths_per_commodity", {}),
            ("DiurnalPredictor", DiurnalPredictor, "intervals_per_day", {}),
        ]
    ],
    Case("build_tunnels.tunnels_per_pair",
         lambda v: build_tunnels(_scenario()[0].network, [],
                                 tunnels_per_pair=v),
         count=True, any_float=False),
    # the run entry points
    *[
        Case(f"run_soak.{f}", lambda v, f=f: run_soak(
            _scenario()[0], DiurnalSequence(base=_scenario()[1]),
            **{"num_intervals": 2, f: v}),
             high=600.0 if f == "tick_s" else None, any_float=False)
        for f in ("interval_s", "tick_s", "poll_period_s", "num_intervals")
    ],
    *[
        Case(f"run_stream.{f}", lambda v, f=f: run_stream(
            _scenario()[0], _scenario()[1], (), **{"num_epochs": 2, f: v}),
             any_float=False)
        for f in ("tick_s", "num_epochs")
    ],
    *[
        Case(f"chaos_sync.simulate.{f}", lambda v, f=f: _chaos(**{f: v}),
             any_float=False)
        for f in ("tick_s", "poll_period_s", "publish_period_s", "horizon_s")
    ],
    Case("chaos_sync.simulate.intensity", lambda v: _chaos(intensity=v),
         high=1.5, any_float=False),
    # solver configs
    Case("IncrementalConfig.delta_threshold",
         _kw(IncrementalConfig, "delta_threshold")),
    Case("IncrementalConfig.refresh_every", _kw(IncrementalConfig, "refresh_every")),
    Case("AdmissionConfig.budget_factor", _kw(AdmissionConfig, "budget_factor")),
    # demands and the FastSSP / SSP value arrays
    Case("generate_demands.target_load",
         lambda v: generate_demands(_scenario()[0], target_load=v), any_float=False),
    Case("PairDemands.volumes",
         lambda v: PairDemands(volumes=[v, 1.0], qos=[1, 2])),
    Case("FlowTable.validate.volumes", _flow_table),
    Case("_triage.values", lambda v: _triage([v, 1.0], 1.0, 0.1)),
    *[
        Case(f"{solve.__name__}.values", lambda v, s=solve: s([v, 1.0], 1.5))
        for solve in (fast_ssp, fast_ssp_sorted, greedy_ssp,
                      meet_in_the_middle_ssp)
    ],
    *[
        Case(f"{solve.__name__}.capacity", lambda v, s=solve: s([1.0, 2.0], v))
        for solve in (fast_ssp, fast_ssp_sorted, greedy_ssp)
    ],
    *[
        Case(f"{solve.__name__}.epsilon",
             lambda v, s=solve: s([1.0, 2.0], 1.5, epsilon=v), high=1.0)
        for solve in (fast_ssp, fast_ssp_sorted)
    ],
]  # fmt: skip


def _accept(reason: str, fields: str, labels: str) -> dict:
    return {
        (f, label): reason for f in fields.split() for label in labels.split()
    }


#: The hostile values a field takes, and why.  Anything else raises.
ACCEPTED = {
    # inf means "never": no end, cap, budget, deadline, refresh or bound.
    **_accept(
        "inf means never",
        "FaultWindow.end ShardFaults.extra_latency_s ShardFaults.stale_lag_s "
        "RetryPolicy.backoff_cap_s RetryPolicy.poll_budget_s "
        "TEDatabase.shard_capacity_qps TEDatabase.timeout_s "
        "EndpointAgent.poll_offset_s EndpointAgent.max_staleness_s "
        "SLOSpec.max_staleness_p99_s SLOSpec.max_solver_phase_p99_s "
        "PeriodicTrigger.period_s DeltaTrigger.threshold "
        "HybridTrigger.threshold HybridTrigger.refresh_s StreamEvent.time "
        "chaos_sync.simulate.publish_period_s StaleReplicaStorm.lag_s",
        "inf",
    ),
    # 0 is a legal count, delay, rate, bound, scale or value.
    **_accept(
        "zero is in the field's range",
        "Link.capacity Link.latency_ms Link.cost_per_gbps Link.availability "
        "FaultWindow.start FaultWindow.end ShardFaults.read_error_rate "
        "ShardFaults.write_error_rate ShardFaults.extra_latency_s "
        "ShardFaults.stale_lag_s FaultPlan.intensity RetryPolicy.max_retries "
        "RetryPolicy.backoff_base_s RetryPolicy.backoff_cap_s "
        "RetryPolicy.jitter EndpointAgent.poll_offset_s "
        "EndpointAgent.max_staleness_s DemandCollector.bytes_sent "
        "spread_offsets.num_agents spread_offsets.window_s "
        "SLOSpec.min_availability SLOSpec.max_degraded_fraction "
        "SLOSpec.min_delivered_floor SLOSpec.max_staleness_p99_s "
        "SLOSpec.max_solver_phase_p99_s DeltaTrigger.threshold "
        "HybridTrigger.threshold StreamEvent.time VolumeScale.factor "
        "FlowArrival.fraction FlowArrival.volume_scale "
        "FlowDeparture.fraction BurstStart.magnitude "
        "chaos_sync.simulate.intensity IncrementalConfig.delta_threshold "
        "IncrementalConfig.refresh_every PairDemands.volumes "
        "FlowTable.validate.volumes _triage.values fast_ssp.values "
        "fast_ssp_sorted.values greedy_ssp.values "
        "meet_in_the_middle_ssp.values fast_ssp.capacity "
        "fast_ssp_sorted.capacity greedy_ssp.capacity "
        "solve_priced.site_demands solve_priced.capacities "
        "solve_priced.tunnel_weights solve_priced.epsilon "
        "FlashCrowd.magnitude FlashCrowd.pair_fraction "
        "MaintenanceDrain.residual MaintenanceDrain.pair_fraction "
        "LinkCut.num_fibers ShardFailover.shard StaleReplicaStorm.shards "
        "StaleReplicaStorm.lag_s",
        "0",
    ),
    **_accept(
        "a soak cut of no fibers cuts nothing; a shard id is taken modulo "
        "the shard count",
        "LinkCut.num_fibers ShardFailover.shard StaleReplicaStorm.shards",
        "-1",
    ),
    # A time, phase or weight may be any real.
    **_accept(
        "any finite real: a window's ends, a phase, a staleness bound "
        "already passed, an LP weight",
        "FaultWindow.start FaultWindow.end EndpointAgent.poll_offset_s "
        "EndpointAgent.max_staleness_s solve_priced.tunnel_weights "
        "solve_priced.epsilon",
        "-1",
    ),
    **_accept(
        "a residual capacity below 0 is full: FastSSP clamps it to 0, and "
        "stage 1 prices it",
        "fast_ssp.capacity fast_ssp_sorted.capacity solve_priced.capacities",
        "-1",
    ),
    **_accept(
        "inf capacity never binds",
        "fast_ssp.capacity fast_ssp_sorted.capacity greedy_ssp.capacity",
        "inf",
    ),
    **_accept(
        "the array rule is one pass (values >= 0); an inf demand is never "
        "eligible for FastSSP, and stage 1 rejects it (solve_priced)",
        "PairDemands.volumes FlowTable.validate.volumes _triage.values "
        "fast_ssp.values fast_ssp_sorted.values greedy_ssp.values "
        "meet_in_the_middle_ssp.values",
        "inf",
    ),
}

VALUES = [*HOSTILE.items(), ("high", None), ("0.5", 0.5)]


@pytest.mark.parametrize(
    "case, label, value",
    [
        pytest.param(case, label, case.high if label == "high" else value,
                     id=f"{case.field}-{label}")
        for case in REGISTRY
        for label, value in VALUES
        if (label != "high" or case.high is not None)
        and (label != "0.5" or case.count)
    ],
)  # fmt: skip
def test_hostile_value_is_named_or_accepted(case, label, value):
    reason = ACCEPTED.get((case.field, label))
    if reason is not None:
        case.call(value)  # accepted: must go through
        return
    with pytest.raises(ValueError, match=case.name):
        case.call(value)


def test_every_accepted_pair_is_in_the_registry():
    fields = {case.field for case in REGISTRY}
    stale = [key for key in ACCEPTED if key[0] not in fields]
    assert not stale, stale


@pytest.mark.parametrize("ends", ["[]", "(]"])
def test_in_range_takes_inf_only_with_allow_inf(ends):
    """A closed upper end at ``inf`` is no second way in for ``inf``."""
    with pytest.raises(ValueError, match="x must be finite, got inf"):
        checks.in_range("x", INF, 1, INF, ends)
    checks.in_range("x", INF, 1, INF, ends, allow_inf=True)
    checks.in_range("x", 5.0, 1, INF, ends)


FAST = [case for case in REGISTRY if case.any_float]


@settings(
    max_examples=CHAOS_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(FAST),
    value=st.floats(-1e6, 1e6) | st.sampled_from([NAN, INF, -INF]),
)
def test_any_value_goes_through_or_is_named(case, value):
    try:
        case.call(value)
    except ValueError as exc:
        assert case.name in str(exc), (case.field, value, exc)
    else:
        assert value == value, f"{case.field} took NaN"
