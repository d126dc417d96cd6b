"""Long-horizon soak: overlapping disturbances, SLOs from metrics.

The claim that matters (§6.3, Fig. 16) is that availability and
satisfied volume hold up through *sustained, overlapping* disturbance:
link cuts land during flash crowds while a database shard restores
from a stale replica.  The soak is the scenario engine (:mod:`.engine`)
with every plane live at once:

* **solver and data plane** — the engine's lockstep epoch loop solves
  each interval on the current (possibly degraded) topology, typically
  with the incremental engine active, and realizes it with the flow
  simulator, so overload shows up as lost delivered volume;
* **sync plane** — the engine's :class:`~.engine.SyncPlane`, the same
  one the chaos study (:mod:`repro.experiments.chaos_sync`) drives:
  retrying agents poll a TE database under a fault plan while a
  resumable publisher pushes one config version per interval;
* **telemetry** — the obs registry is *always on*, because the verdict,
  the :class:`SLOReport`, is computed from the Prometheus snapshot.

Events map onto the planes they disturb: :class:`LinkCut` (the union
of active cuts' fibers fails), :class:`ShardFailover` and
:class:`StaleReplicaStorm` (fault-plan windows), :class:`FlashCrowd`
and :class:`MaintenanceDrain` (one product of factors per interval on
seeded pairs, in schedule order).

Everything derives from explicit seeds on the simulated clock.  A run
with an *empty* schedule is bit-identical to the plain interval replay
(:func:`repro.experiments.interval_replay.replay_intervals`): the
anchor the property suite pins the event machinery against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import ClassVar, Sequence

import numpy as np

from .. import checks
from ..core import MegaTEOptimizer
from ..obs import get_tracer
from ..traffic import DiurnalSequence
from ..traffic.demand import DemandMatrix
from .engine import (
    CutTopologies,
    EpochLoop,
    RunIdentity,
    SyncPlane,
    owned_registry,
)

__all__ = [
    "SoakEvent",
    "LinkCut",
    "FlashCrowd",
    "MaintenanceDrain",
    "ShardFailover",
    "StaleReplicaStorm",
    "SLOSpec",
    "SLOReport",
    "SLOViolation",
    "SoakIntervalRecord",
    "SoakReport",
    "run_soak",
    "scenario_events",
    "snapshot_counter_total",
    "snapshot_gauge_value",
    "snapshot_histogram_quantile",
    "SCENARIO_NAMES",
]


# ---------------------------------------------------------------------------
# Events


def _each_finite(name: str, values: Sequence[int]) -> None:
    for value in values:
        checks.finite(name, value)


@dataclass(frozen=True)
class SoakEvent:
    """A disturbance active over intervals ``[start, start + duration)``.

    Subclasses add the disturbance parameters; the engine asks each
    event whether it is :meth:`active` at the current interval and
    applies active events in schedule order (the order they appear in
    the run's event tuple), which is what makes overlapping events
    deterministic.
    """

    kind: ClassVar[str] = "event"
    #: The subclass's numeric fields, each with its :mod:`repro.checks` rule.
    rules: ClassVar[tuple] = ()

    start: int
    duration: int

    def __post_init__(self) -> None:
        checks.nonnegative("start", self.start)
        checks.in_range("duration", self.duration, 1, math.inf, "[)")
        for name, rule in self.rules:
            rule(name, getattr(self, name))

    @property
    def end(self) -> int:
        """First interval *after* the event window."""
        return self.start + self.duration

    def active(self, interval: int) -> bool:
        return self.start <= interval < self.end

    def describe(self) -> dict:
        """JSON-serializable event descriptor (for the event log)."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class LinkCut(SoakEvent):
    """Fail ``num_fibers`` duplex fibers for the window's duration.

    The concrete fibers are sampled once per event from the healthy
    site network with ``scenario_seed``
    (:func:`repro.topology.failures.sample_failure_scenarios`, connected
    scenarios only); overlapping cuts fail the union of their fibers.
    ``num_fibers <= 0`` cuts nothing.
    """

    kind: ClassVar[str] = "link_cut"
    rules: ClassVar[tuple] = (("num_fibers", checks.finite),)

    num_fibers: int = 1
    scenario_seed: int = 0


@dataclass(frozen=True)
class FlashCrowd(SoakEvent):
    """Multiply a seeded subset of site pairs' volumes by ``magnitude``.

    ``pair_fraction`` of the pairs (at least one) are chosen.
    """

    kind: ClassVar[str] = "flash_crowd"
    rules: ClassVar[tuple] = (
        ("magnitude", checks.nonnegative),
        ("pair_fraction", checks.fraction),
    )

    magnitude: float = 3.0
    pair_fraction: float = 0.25
    choice_seed: int = 0


@dataclass(frozen=True)
class MaintenanceDrain(SoakEvent):
    """Scale a seeded subset of site pairs down to ``residual`` volume.

    Models traffic drained away from sites under maintenance; the
    drained pairs keep their flow identities (volumes shrink, flows
    never disappear), so the incremental engine's population contract
    holds across the drain.
    """

    kind: ClassVar[str] = "maintenance_drain"
    rules: ClassVar[tuple] = (
        ("residual", checks.nonnegative),
        ("pair_fraction", checks.fraction),
    )

    residual: float = 0.25
    pair_fraction: float = 0.25
    choice_seed: int = 0


@dataclass(frozen=True)
class ShardFailover(SoakEvent):
    """Crash one TE-database shard for the window (then stale restore).

    ``shard`` is any integer, taken modulo the shard count.
    """

    kind: ClassVar[str] = "shard_failover"
    rules: ClassVar[tuple] = (("shard", checks.finite),)

    shard: int = 0


@dataclass(frozen=True)
class StaleReplicaStorm(SoakEvent):
    """Serve several shards from replicas lagging ``lag_s`` seconds.

    ``shards`` are integers taken modulo the shard count; an infinite
    ``lag_s`` is a replica that never catches up.
    """

    kind: ClassVar[str] = "stale_replica_storm"
    rules: ClassVar[tuple] = (
        ("shards", _each_finite),
        ("lag_s", partial(checks.nonnegative, allow_inf=True)),
    )

    shards: tuple[int, ...] = (0,)
    lag_s: float = 120.0


#: Replica lag applied to a crash-restored shard when no storm pinned a
#: larger one — the restore always comes from a slightly-behind replica.
_RESTORE_LAG_S = 45.0


# ---------------------------------------------------------------------------
# Scenario matrix

#: Named scenario mixes, mild to full production weather.
SCENARIO_NAMES = (
    "baseline",
    "link-flap",
    "sync-storm",
    "traffic-surge",
    "full-mix",
)


def _stagger(
    num_intervals: int,
    count: int,
    duration: int,
    seed: int,
    tag: int,
) -> list[int]:
    """Spread ``count`` event starts over the horizon, seeded jitter."""
    from ..controlplane import deterministic_uniform

    starts: list[int] = []
    span = num_intervals / max(1, count)
    for i in range(count):
        slack = max(1.0, span - duration)
        jitter = deterministic_uniform(seed, tag, i)
        start = int(i * span + jitter * slack)
        starts.append(min(max(0, start), max(0, num_intervals - 1)))
    return starts


def scenario_events(
    name: str,
    num_intervals: int,
    seed: int = 0,
    num_shards: int = 4,
) -> tuple[SoakEvent, ...]:
    """The seeded event schedule of one named scenario mix.

    Event density scales with the horizon (roughly one event of each
    enabled kind per dozen intervals), and every start, fiber pick, and
    pair choice derives from ``seed`` — the same name/intervals/seed
    always builds the identical schedule.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}"
        )
    checks.positive("num_intervals", num_intervals)
    events: list[SoakEvent] = []
    per_kind = max(1, num_intervals // 12)
    few = max(1, per_kind // 2)
    duration = max(2, num_intervals // 16)

    def place(count: int, length: int, tag: int, make) -> None:
        starts = _stagger(num_intervals, count, length, seed, tag)
        events.extend(make(i, start) for i, start in enumerate(starts))

    if name in ("link-flap", "full-mix"):
        place(per_kind, duration, 1, lambda i, start: LinkCut(
            start=start,
            duration=duration,
            num_fibers=1 + i % 2,
            scenario_seed=seed * 1000 + i,
        ))
    if name in ("sync-storm", "full-mix"):
        place(per_kind, duration, 2, lambda i, start: ShardFailover(
            start=start, duration=duration, shard=i % num_shards
        ))
        place(few, duration + 1, 3, lambda i, start: StaleReplicaStorm(
            start=start,
            duration=duration + 1,
            shards=tuple(s % num_shards for s in (i, i + 1)),
            lag_s=120.0,
        ))
    if name in ("traffic-surge", "full-mix"):
        place(per_kind, duration, 4, lambda i, start: FlashCrowd(
            start=start,
            duration=duration,
            magnitude=2.5,
            pair_fraction=0.25,
            choice_seed=seed * 2000 + i,
        ))
        place(few, duration, 5, lambda i, start: MaintenanceDrain(
            start=start,
            duration=duration,
            residual=0.3,
            pair_fraction=0.2,
            choice_seed=seed * 3000 + i,
        ))
    return tuple(events)


# ---------------------------------------------------------------------------
# SLOs


#: One row per SLO: label, :class:`SLOReport` metric, :class:`SLOSpec`
#: bound (``min_`` a floor, ``max_`` a ceiling), value format and unit.
_SLOS = (
    ("availability", "availability", "min_availability", ".4f", ""),
    ("staleness p99", "staleness_p99_s", "max_staleness_p99_s", ".1f", "s"),
    ("degraded fraction", "degraded_fraction", "max_degraded_fraction", ".4f", ""),
    ("delivered floor", "delivered_floor", "min_delivered_floor", ".4f", ""),
    ("solver phase p99", "solver_phase_p99_s", "max_solver_phase_p99_s", ".3f", "s"),
)


def _holds(value: float, limit: float, bound: str) -> bool:
    return not (value < limit if bound.startswith("min_") else value > limit)


@dataclass(frozen=True)
class SLOSpec:
    """Declarative service-level objectives a soak run is gated on.

    Thresholds cover the five snapshot-derived metrics of
    :class:`SLOReport`; ``max_solver_phase_p99_s`` is the only
    wall-clock-dependent one (keep it generous on shared CI runners).
    Fraction bounds lie in [0, 1]; second bounds are non-negative
    (``inf`` never fails); NaN is rejected everywhere.
    """

    min_availability: float = 0.92
    max_staleness_p99_s: float = 300.0
    max_degraded_fraction: float = 0.08
    min_delivered_floor: float = 0.30
    max_solver_phase_p99_s: float = 30.0

    def __post_init__(self) -> None:
        # inf: a seconds bound that never fails.
        for _, _, bound, _, unit in _SLOS:
            if unit:
                checks.nonnegative(
                    f"SLOSpec.{bound}", getattr(self, bound), allow_inf=True
                )
            else:
                checks.fraction(f"SLOSpec.{bound}", getattr(self, bound))

    def as_dict(self) -> dict:
        return asdict(self)


class SLOViolation(AssertionError):
    """A soak run missed at least one of its declared SLOs."""


def _series_of(snapshot: dict, name: str) -> list[dict]:
    entry = snapshot.get(name)
    if not entry:
        return []
    return list(entry.get("series", ()))


def snapshot_counter_total(snapshot: dict, name: str) -> float:
    """Sum of a counter family's series in a registry snapshot."""
    return float(
        sum(s["state"]["value"] for s in _series_of(snapshot, name))
    )


def snapshot_gauge_value(
    snapshot: dict, name: str, default: float = 0.0
) -> float:
    """A gauge's value in a snapshot (last series wins; labeled rare)."""
    series = _series_of(snapshot, name)
    if not series:
        return default
    return float(series[-1]["state"]["value"])


def snapshot_histogram_quantile(
    snapshot: dict, name: str, q: float
) -> float:
    """Upper-bound quantile estimate from a snapshot's histogram family.

    Sums the bucket counts across every series of the family and
    returns the smallest bucket boundary covering the ``q`` quantile —
    the standard conservative (upper-bound) histogram estimate.
    Observations in the overflow bucket yield ``inf``; an absent or
    empty family yields ``0.0``.
    """
    checks.in_range("q", q, 0, 1, "(]")
    entry = snapshot.get(name)
    if not entry:
        return 0.0
    buckets = list(entry.get("buckets", ()))
    counts = [0] * (len(buckets) + 1)
    total = 0
    for series in entry.get("series", ()):
        state = series["state"]
        for i, c in enumerate(state["bucket_counts"]):
            counts[i] += c
        total += state["count"]
    if total == 0:
        return 0.0
    rank = math.ceil(q * total)
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= rank:
            return buckets[i] if i < len(buckets) else math.inf
    return math.inf  # pragma: no cover - unreachable


@dataclass
class SLOReport:
    """The run's verdict, computed *from the Prometheus snapshot*.

    Every field derives from metric families a production scrape would
    see — nothing privileged — so a dashboards-and-alerts deployment of
    the same SLOs measures exactly what this gate measures.

    Attributes:
        availability: Fraction of post-warmup agent samples whose
            serving config was inside the staleness bound
            (``megate_soak_agent_fresh_samples_total`` over
            ``megate_soak_agent_samples_total``).
        staleness_p99_s: 99th-percentile sampled agent config staleness
            on the simulated clock
            (``megate_soak_agent_staleness_seconds``).
        degraded_fraction: Fraction of agent samples taken while the
            agent was past its staleness bound.
        delivered_floor: Worst per-interval delivered volume fraction
            (``megate_soak_delivered_fraction_floor``).
        solver_phase_p99_s: 99th-percentile per-phase solver duration
            (``megate_phase_seconds``; wall clock, therefore excluded
            from the deterministic identity).
        agent_samples: Post-warmup agent samples taken.
        intervals: Intervals completed (``megate_soak_intervals_total``).
    """

    availability: float
    staleness_p99_s: float
    degraded_fraction: float
    delivered_floor: float
    solver_phase_p99_s: float
    agent_samples: int
    intervals: int

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "SLOReport":
        """Derive the report from a ``MetricsRegistry.snapshot()``."""
        samples = snapshot_counter_total(
            snapshot, "megate_soak_agent_samples_total"
        )
        fresh = snapshot_counter_total(
            snapshot, "megate_soak_agent_fresh_samples_total"
        )
        degraded = snapshot_counter_total(
            snapshot, "megate_soak_agent_degraded_samples_total"
        )
        return cls(
            availability=(fresh / samples) if samples else 1.0,
            staleness_p99_s=snapshot_histogram_quantile(
                snapshot, "megate_soak_agent_staleness_seconds", 0.99
            ),
            degraded_fraction=(
                (degraded / samples) if samples else 0.0
            ),
            delivered_floor=snapshot_gauge_value(
                snapshot,
                "megate_soak_delivered_fraction_floor",
                default=1.0,
            ),
            solver_phase_p99_s=snapshot_histogram_quantile(
                snapshot, "megate_phase_seconds", 0.99
            ),
            agent_samples=int(samples),
            intervals=int(
                snapshot_counter_total(
                    snapshot, "megate_soak_intervals_total"
                )
            ),
        )

    def checks(self, spec: SLOSpec) -> list[tuple[str, float, str, bool]]:
        """``(metric, value, bound, holds)`` per SLO, bound as ``">= 0.92"``."""
        rows = []
        for _, metric, bound, _, _ in _SLOS:
            value, limit = getattr(self, metric), getattr(spec, bound)
            sign = ">=" if bound.startswith("min_") else "<="
            rows.append(
                (metric, value, f"{sign} {limit}", _holds(value, limit, bound))
            )
        return rows

    def violations(self, spec: SLOSpec) -> list[str]:
        """Human-readable SLO misses (empty when every SLO holds)."""
        out = []
        for label, metric, bound, fmt, unit in _SLOS:
            value, limit = getattr(self, metric), getattr(spec, bound)
            if not _holds(value, limit, bound):
                sign = "<" if bound.startswith("min_") else ">"
                out.append(
                    f"{label} {value:{fmt}}{unit} {sign} {limit:{fmt}}{unit}"
                )
        return out

    def as_dict(self) -> dict:
        return asdict(self)

    def deterministic_fields(self) -> dict:
        """The seed-reproducible subset (wall-clock timings excluded)."""
        out = self.as_dict()
        out.pop("solver_phase_p99_s")
        return out


# ---------------------------------------------------------------------------
# Reports


@dataclass
class SoakIntervalRecord:
    """One interval's outcome under whatever events were active.

    ``runtime_s`` is wall clock and excluded from the deterministic
    identity; everything else replays bit-for-bit from the seeds.
    """

    interval: int
    delivered_fraction: float
    satisfied_fraction: float
    max_utilization: float
    events: tuple[str, ...]
    failed_fibers: int
    runtime_s: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SoakReport(RunIdentity):
    """Aggregate outcome of one soak run.

    :meth:`identity` / :meth:`identity_digest` cover the deterministic
    subset — two runs with the same seeds must agree on them exactly,
    which is how the CLI and the property suite assert reproducibility
    without pinning wall-clock timings.
    """

    scenario: str
    seed: int
    topology: str
    num_intervals: int
    num_flows: int
    interval_s: float
    num_agents: int
    num_shards: int
    assignment_digest: str
    records: list[SoakIntervalRecord] = field(default_factory=list)
    event_log: list[dict] = field(default_factory=list)
    slo: SLOReport | None = None
    slo_spec: SLOSpec = field(default_factory=SLOSpec)
    violations: list[str] = field(default_factory=list)
    publishes: int = 0
    final_converged_fraction: float = 1.0
    resharded_keys: int = 0
    injected_faults: int = 0
    total_runtime_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            **self.identity(),
            "records": [r.as_dict() for r in self.records],
            "slo": self.slo.as_dict() if self.slo else None,
            "slo_spec": self.slo_spec.as_dict(),
            "violations": list(self.violations),
            "total_runtime_s": self.total_runtime_s,
            "identity_digest": self.identity_digest(),
        }

    def identity(self) -> dict:
        """The seed-deterministic view (no wall-clock fields)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "topology": self.topology,
            "num_intervals": self.num_intervals,
            "num_flows": self.num_flows,
            "interval_s": self.interval_s,
            "num_agents": self.num_agents,
            "num_shards": self.num_shards,
            "assignment_digest": self.assignment_digest,
            "records": self.timeless(self.records),
            "event_log": list(self.event_log),
            "slo": (
                self.slo.deterministic_fields() if self.slo else None
            ),
            "publishes": self.publishes,
            "final_converged_fraction": self.final_converged_fraction,
            "resharded_keys": self.resharded_keys,
            "injected_faults": self.injected_faults,
        }

    def assert_slos(self) -> None:
        """Raise :class:`SLOViolation` when any SLO was missed."""
        if self.violations:
            raise SLOViolation(
                "soak SLO violations: " + "; ".join(self.violations)
            )


# ---------------------------------------------------------------------------
# Engine helpers


def _fault_plan(
    events: Sequence[SoakEvent],
    interval_s: float,
    num_shards: int,
    seed: int,
):
    """Map the schedule's sync-plane events onto a seeded fault plan."""
    # Imported lazily: controlplane.failover imports the simulation
    # package, so a module-level import here would close a cycle.
    from ..controlplane import FaultPlan, FaultWindow, ShardFaults

    crash: dict[int, list[FaultWindow]] = {}
    stale: dict[int, list[FaultWindow]] = {}
    lag: dict[int, float] = {}
    for event in events:
        window = FaultWindow(
            start=event.start * interval_s,
            end=event.end * interval_s,
        )
        if isinstance(event, ShardFailover):
            shard = event.shard % num_shards
            crash.setdefault(shard, []).append(window)
            lag[shard] = max(lag.get(shard, 0.0), _RESTORE_LAG_S)
        elif isinstance(event, StaleReplicaStorm):
            for raw in event.shards:
                shard = raw % num_shards
                stale.setdefault(shard, []).append(window)
                lag[shard] = max(lag.get(shard, 0.0), event.lag_s)
    shards = {
        shard: ShardFaults(
            crash_windows=tuple(crash.get(shard, ())),
            stale_windows=tuple(stale.get(shard, ())),
            stale_lag_s=lag.get(shard, 0.0),
        )
        for shard in sorted(set(crash) | set(stale))
    }
    return FaultPlan(seed=seed, shards=shards)


def _event_pairs(
    num_pairs: int, pair_fraction: float, choice_seed: int
) -> np.ndarray:
    """The seeded site-pair subset a traffic event touches."""
    count = max(1, int(round(pair_fraction * num_pairs)))
    count = min(count, num_pairs)
    rng = np.random.default_rng(choice_seed)
    return rng.choice(num_pairs, size=count, replace=False)


def _scaled_matrix(
    matrix: DemandMatrix, active: Sequence[SoakEvent]
) -> DemandMatrix:
    """Apply active traffic events (in schedule order) to one matrix.

    Events only scale volumes — flow identities and QoS never change,
    which keeps the interval runner's flow-identity contract and the
    incremental engine's population check intact.  With no active
    traffic events the input matrix is returned untouched (the
    empty-schedule bit-identity anchor).
    """
    traffic = [
        e for e in active if isinstance(e, (FlashCrowd, MaintenanceDrain))
    ]
    if not traffic:
        return matrix
    table = matrix.table
    pair_of_flow = table.pair_ids()
    mult = np.ones(table.num_flows, dtype=np.float64)
    for event in traffic:
        pairs = _event_pairs(
            matrix.num_site_pairs,
            event.pair_fraction,
            event.choice_seed,
        )
        mask = np.isin(pair_of_flow, pairs)
        factor = (
            event.magnitude
            if isinstance(event, FlashCrowd)
            else event.residual
        )
        mult[mask] *= factor
    return matrix.with_volumes(table.volumes * mult)


# ---------------------------------------------------------------------------
# The soak loop


def run_soak(
    topology,
    sequence: DiurnalSequence,
    num_intervals: int,
    events: Sequence[SoakEvent] = (),
    optimizer: MegaTEOptimizer | None = None,
    interval_s: float = 300.0,
    num_agents: int = 40,
    num_shards: int = 4,
    poll_period_s: float = 30.0,
    tick_s: float = 5.0,
    staleness_slo_s: float | None = None,
    seed: int = 0,
    slo_spec: SLOSpec | None = None,
    scenario: str = "custom",
    topology_name: str = "",
) -> SoakReport:
    """Replay ``num_intervals`` TE intervals under the event schedule.

    The run owns the metrics registry (:func:`~.engine.owned_registry`)
    and computes the SLO report from its final snapshot; export the
    metrics before starting another run.

    Args:
        topology: Healthy contracted two-layer topology; link cuts
            solve on seeded degraded variants
            (:meth:`~repro.topology.contraction.TwoLayerTopology.with_failures`,
            site-pair indices preserved).
        sequence: Demand sequence; interval ``i`` starts from
            ``sequence.matrix(i)`` before traffic events scale it.
        num_intervals: Intervals to replay.
        events: The scenario's event schedule (see
            :func:`scenario_events`); empty replays plain intervals.
        optimizer: Solver to drive (a default :class:`MegaTEOptimizer`
            when omitted).  The soak study passes an incremental one.
        interval_s: Simulated seconds per TE interval.
        num_agents: Endpoint-agent fleet size in the sync plane.
        num_shards: TE database shards.
        poll_period_s: Agent poll period (simulated seconds).
        tick_s: Sync-plane tick (simulated seconds).
        staleness_slo_s: Agent staleness bound; defaults to three poll
            periods (the chaos study's convention).
        seed: Seed for fault coins, retry jitter, and poll offsets.
        slo_spec: SLOs to evaluate (violations are *recorded*, not
            raised — call :meth:`SoakReport.assert_slos` to gate).
        scenario: Scenario name recorded in the report.
        topology_name: Topology label recorded in the report.
    """
    checks.positive("num_intervals", num_intervals)
    checks.positive("interval_s", interval_s)
    checks.positive("tick_s", tick_s)
    checks.positive("poll_period_s", poll_period_s)
    if interval_s < tick_s:
        raise ValueError(f"interval_s must be at least tick_s, got {interval_s!r}")
    spec = slo_spec if slo_spec is not None else SLOSpec()
    events = tuple(events)
    tracer = get_tracer()
    report = SoakReport(
        scenario=scenario,
        seed=seed,
        topology=topology_name,
        num_intervals=num_intervals,
        num_flows=sequence.base.num_endpoint_pairs,
        interval_s=interval_s,
        num_agents=num_agents,
        num_shards=num_shards,
        assignment_digest="",
        slo_spec=spec,
    )

    with owned_registry() as registry:
        loop = EpochLoop(optimizer if optimizer is not None else MegaTEOptimizer())
        plane = SyncPlane(
            _fault_plan(events, interval_s, num_shards, seed),
            num_agents,
            num_shards,
            poll_period_s,
            tick_s,
            seed,
            staleness_slo_s,
        )
        cuts = CutTopologies(topology)

        intervals_c = registry.counter(
            "megate_soak_intervals_total", "Soak intervals completed"
        )
        events_c = registry.counter(
            "megate_soak_events_total",
            "Soak event windows opened, by kind",
            labelnames=("kind",),
        )
        samples_c = registry.counter(
            "megate_soak_agent_samples_total",
            "Post-warmup (agent, tick) freshness samples taken",
        )
        fresh_c = registry.counter(
            "megate_soak_agent_fresh_samples_total",
            "Samples whose agent served a config within its bound",
        )
        degraded_c = registry.counter(
            "megate_soak_agent_degraded_samples_total",
            "Samples whose agent was past its staleness bound",
        )
        floor_g = registry.gauge(
            "megate_soak_delivered_fraction_floor",
            "Worst per-interval delivered volume fraction so far",
        )
        # The agent's own staleness histogram only observes at poll
        # completion (where a successful poll reads ~0); sampling every
        # post-warmup tick measures *serving* staleness between polls,
        # which is what the staleness SLO is about.
        staleness_h = registry.histogram(
            "megate_soak_agent_staleness_seconds",
            "Sampled agent config staleness (simulated clock)",
        )

        delivered_floor = 1.0
        ticks_per_interval = max(1, int(round(interval_s / tick_s)))
        for interval in range(num_intervals):
            active = [e for e in events if e.active(interval)]
            for event in events:
                if event.start == interval:
                    events_c.labels(kind=event.kind).inc()
                    report.event_log.append(
                        {"interval": interval, **event.describe()}
                    )

            # Topology under the active link cuts (union of fibers).
            fibers: set = set()
            for event in active:
                if isinstance(event, LinkCut):
                    fibers.update(
                        cuts.fibers(event.num_fibers, event.scenario_seed)
                    )
            # Horizons longer than one diurnal cycle wrap around the
            # day (interval N repeats interval N mod num_intervals).
            matrix = _scaled_matrix(
                sequence.matrix(interval % sequence.num_intervals),
                active,
            )

            with tracer.span(
                "soak.interval",
                interval=interval,
                num_events=len(active),
            ):
                epoch = loop.step(cuts.topology(fibers), matrix, matrix)
            result, outcome = epoch.solved, epoch.flow

            total = matrix.total_demand
            delivered_fraction = (
                outcome.delivered_volume / total if total > 0 else 1.0
            )
            delivered_floor = min(delivered_floor, delivered_fraction)
            floor_g.set(delivered_floor)
            intervals_c.inc()
            report.total_runtime_s += result.runtime_s
            report.records.append(
                SoakIntervalRecord(
                    interval=interval,
                    delivered_fraction=delivered_fraction,
                    satisfied_fraction=result.satisfied_fraction,
                    max_utilization=outcome.max_utilization,
                    events=tuple(e.kind for e in active),
                    failed_fibers=len(fibers),
                    runtime_s=result.runtime_s,
                )
            )

            # Publish the interval's config version, then advance the
            # sync plane across the interval on the simulated clock.
            plane.publisher.start(interval + 1)
            t0 = interval * interval_s
            for tick in range(ticks_per_interval):
                t = t0 + tick * tick_s
                plane.step(t)
                if t < plane.warmup_s:
                    continue
                fresh = 0
                degraded = 0
                for agent in plane.agents:
                    if agent.serving_paths(t) is not None:
                        fresh += 1
                    if agent.is_degraded(t):
                        degraded += 1
                    staleness = agent.staleness_s(t)
                    if math.isfinite(staleness):
                        staleness_h.observe(staleness)
                samples_c.inc(num_agents)
                fresh_c.inc(fresh)
                degraded_c.inc(degraded)

        # Run-end bookkeeping folded into the registry *before* the
        # snapshot the SLO report is computed from.
        converged = plane.converged_fraction()
        injected = plane.database.injected.total_injected
        registry.gauge(
            "megate_soak_final_converged_fraction",
            "Agents on the newest published version at the horizon",
        ).set(converged)
        registry.counter(
            "megate_soak_resharded_keys_total",
            "Keys migrated off crashed shards during the run",
        ).inc(plane.resharded_keys)
        registry.counter(
            "megate_soak_injected_faults_total",
            "Store faults injected across the run (all classes)",
        ).inc(injected)
        snapshot = registry.snapshot()

    report.assignment_digest = loop.digest.hexdigest()
    report.publishes = plane.publisher.published_version
    report.final_converged_fraction = converged
    report.resharded_keys = plane.resharded_keys
    report.injected_faults = injected
    report.slo = SLOReport.from_snapshot(snapshot)
    report.violations = report.slo.violations(spec)
    report.violations.extend(
        f"sync invariant: {v}" for v in plane.violations[:10]
    )
    return report
