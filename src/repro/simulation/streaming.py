"""Streaming control loop: event-driven demands and re-solve triggers.

One configuration of the scenario engine (:mod:`.engine`): the soak
engine and the interval runner solve every interval in lockstep, while
here the controller decides *when* a solve is worth it.  The engine's
epoch loop solves, digests, actuates and realizes; this module adds:

* a deterministic seeded **event stream** of per-site-pair updates
  (:class:`VolumeScale`, :class:`VolumeSet`, :class:`FlowArrival`,
  :class:`FlowDeparture`, :class:`BurstStart`/:class:`BurstEnd`,
  :class:`TopologyChange`), drained in epoch-sized batches;
* a pluggable **trigger policy** choosing no-op, the incremental delta
  path or a full re-solve: :class:`OracleTrigger` (every event, the
  online-TE competitive-ratio baseline), :class:`PeriodicTrigger`,
  :class:`DeltaTrigger` (:mod:`repro.core.incremental`'s relative-delta
  semantics) and :class:`HybridTrigger` (delta + staleness refresh);
* optional **prediction** (:mod:`repro.traffic.prediction`), whose
  forecast drift feeds the trigger alongside the measured drift;
* optional **admission control** (:mod:`.admission`), which sheds
  best-effort classes to per-pair budgets, charged against delivered
  fraction.

**Actuation delay.**  A solve decided at epoch *t* takes effect at
epoch *t+1* — the paper's weak coupling — except the epoch-0 bootstrap
and topology changes, which have nothing valid to keep serving.  Every
trigger pays the same delay, so comparisons are fair, and an
un-resolved flash crowd overloads links until the next solve actuates.

**Determinism anchors.**  Events mutate volumes (and swap among seeded
topology variants), never flow identities, so the incremental engine's
population contract holds.  (1) A threshold-0 :class:`DeltaTrigger` on
:func:`lockstep_events` reproduces the plain interval replay's
assignment digest bit-for-bit; (2) same-seed runs agree on
:meth:`StreamReport.identity_digest`, which excludes wall-clock timings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import ClassVar, Sequence

import numpy as np

from ..core import MegaTEOptimizer
from ..core.incremental import _REL_FLOOR  # shared rel-delta semantics
from ..obs import get_tracer
from ..traffic.demand import DemandMatrix
from .admission import AdmissionConfig, AdmissionController
from .engine import (
    DELTA,
    FULL,
    NOOP,
    CutTopologies,
    EpochLoop,
    RunIdentity,
    check_clock,
    owned_registry,
)

__all__ = [
    "NOOP",
    "DELTA",
    "FULL",
    "STREAM_SCENARIO_NAMES",
    "TRIGGER_NAMES",
    "StreamEvent",
    "VolumeSet",
    "VolumeScale",
    "FlowArrival",
    "FlowDeparture",
    "BurstStart",
    "BurstEnd",
    "TopologyChange",
    "StreamState",
    "TriggerContext",
    "OracleTrigger",
    "PeriodicTrigger",
    "DeltaTrigger",
    "HybridTrigger",
    "make_trigger",
    "stream_scenario_events",
    "lockstep_events",
    "StreamEpochRecord",
    "StreamReport",
    "run_stream",
]


#: Named streaming scenarios (see :func:`stream_scenario_events`).
STREAM_SCENARIO_NAMES = ("flash-crowd", "diurnal-shift", "failure-surge")

#: Named trigger policies (see :func:`make_trigger`).
TRIGGER_NAMES = ("oracle", "periodic", "delta", "hybrid")


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class StreamEvent:
    """One demand-stream update, applied at simulated second ``time``.

    Events with the same timestamp apply in their order in the stream
    (stable), which is what makes overlapping updates deterministic.
    """

    kind: ClassVar[str] = "event"

    time: float

    def __post_init__(self) -> None:
        if not self.time >= 0:  # NaN too
            raise ValueError(f"event time must be non-negative, got {self.time!r}")

    def describe(self) -> dict:
        """JSON-serializable event descriptor (for the event log)."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class VolumeSet(StreamEvent):
    """Replace one site pair's per-flow volumes wholesale.

    This is the lockstep bridge: :func:`lockstep_events` compiles a
    matrix sequence into per-boundary :class:`VolumeSet` events, and
    the anchor test pins the streaming loop against the plain replay.
    """

    kind: ClassVar[str] = "volume_set"

    pair: int = 0
    volumes: tuple[float, ...] = ()

    def describe(self) -> dict:
        # The full volume tuple would bloat the event log; summarize.
        return {
            "kind": self.kind,
            "time": self.time,
            "pair": self.pair,
            "num_flows": len(self.volumes),
            "volume_sum": float(sum(self.volumes)),
        }


@dataclass(frozen=True)
class VolumeScale(StreamEvent):
    """Scale one site pair's current volumes by ``factor``."""

    kind: ClassVar[str] = "volume_scale"

    pair: int = 0
    factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.factor >= 0:  # NaN too
            raise ValueError(f"scale factor must be non-negative, got {self.factor!r}")


@dataclass(frozen=True)
class FlowArrival(StreamEvent):
    """New demand on a seeded subset of one pair's flow slots.

    Flow *identities* are fixed for a run (the CSR layout never
    changes), so an arrival is modeled as a volume transition: a seeded
    ``fraction`` of the pair's slots each gain ``volume_scale`` times
    their baseline volume.
    """

    kind: ClassVar[str] = "flow_arrival"

    pair: int = 0
    fraction: float = 0.25
    volume_scale: float = 1.0
    choice_seed: int = 0


@dataclass(frozen=True)
class FlowDeparture(StreamEvent):
    """A seeded subset of one pair's flows departs (volume -> 0)."""

    kind: ClassVar[str] = "flow_departure"

    pair: int = 0
    fraction: float = 0.25
    choice_seed: int = 0


@dataclass(frozen=True)
class BurstStart(StreamEvent):
    """Start a burst: save the pair's volumes, then multiply.

    The pre-burst volumes are saved under ``burst_id`` so the matching
    :class:`BurstEnd` restores them *byte-for-byte* — a multiply-then-
    divide round trip would not (float non-associativity), and the
    delta trigger's drift measurement would see phantom residue.
    """

    kind: ClassVar[str] = "burst_start"

    pair: int = 0
    magnitude: float = 2.0
    burst_id: int = 0


@dataclass(frozen=True)
class BurstEnd(StreamEvent):
    """End a burst: restore the volumes saved by its ``burst_id``."""

    kind: ClassVar[str] = "burst_end"

    burst_id: int = 0


@dataclass(frozen=True)
class TopologyChange(StreamEvent):
    """Switch to a seeded degraded topology (or back to healthy).

    ``num_fibers == 0`` restores the healthy topology; otherwise the
    failed fibers are sampled once per ``(num_fibers, scenario_seed)``
    and the degraded variant is cached, so a flap back to the same
    scenario reuses one topology object (keeping the per-topology
    solver cache effective).
    """

    kind: ClassVar[str] = "topology_change"

    num_fibers: int = 1
    scenario_seed: int = 0


# ---------------------------------------------------------------------------
# Stream state


class StreamState:
    """Mutable demand + topology state the event stream acts on.

    The CSR layout (offsets, QoS, endpoints) is shared with the base
    table and never changes; events mutate a private volumes array.
    """

    def __init__(self, topology, base: DemandMatrix) -> None:
        self.healthy_topology = topology
        self.topology = topology
        table = base.table
        self._base = base
        self._offsets = table.offsets
        self._base_volumes = table.volumes.astype(np.float64, copy=True)
        self.volumes = table.volumes.astype(np.float64, copy=True)
        self.num_pairs = table.num_pairs
        #: Set by a :class:`TopologyChange`; the runner clears it at
        #: the top of every epoch.
        self.topology_changed = False
        self._saved_bursts: dict[int, tuple[int, np.ndarray]] = {}
        self._cuts = CutTopologies(topology)

    def _pair_slice(self, pair: int) -> slice:
        if not 0 <= pair < self.num_pairs:
            raise ValueError(
                f"pair {pair} out of range [0, {self.num_pairs})"
            )
        return slice(
            int(self._offsets[pair]), int(self._offsets[pair + 1])
        )

    def _chosen(self, pair: int, fraction: float, seed: int) -> slice:
        """Seeded flow-index subset within one pair's slice."""
        sl = self._pair_slice(pair)
        count = sl.stop - sl.start
        size = min(count, max(1, int(round(fraction * count))))
        rng = np.random.default_rng(seed)
        return sl.start + rng.choice(count, size=size, replace=False)

    def apply(self, event: StreamEvent) -> None:
        """Apply one event to the demand/topology state."""
        if isinstance(event, VolumeSet):
            sl = self._pair_slice(event.pair)
            values = np.asarray(event.volumes, dtype=np.float64)
            if values.size != sl.stop - sl.start:
                raise ValueError(
                    f"volume_set on pair {event.pair}: "
                    f"{values.size} values for "
                    f"{sl.stop - sl.start} flows"
                )
            self.volumes[sl] = values
        elif isinstance(event, VolumeScale):
            self.volumes[self._pair_slice(event.pair)] *= event.factor
        elif isinstance(event, FlowArrival):
            idx = self._chosen(
                event.pair, event.fraction, event.choice_seed
            )
            self.volumes[idx] += (
                self._base_volumes[idx] * event.volume_scale
            )
        elif isinstance(event, FlowDeparture):
            idx = self._chosen(
                event.pair, event.fraction, event.choice_seed
            )
            self.volumes[idx] = 0.0
        elif isinstance(event, BurstStart):
            if event.burst_id in self._saved_bursts:
                raise ValueError(
                    f"burst id {event.burst_id} already active"
                )
            sl = self._pair_slice(event.pair)
            self._saved_bursts[event.burst_id] = (
                event.pair,
                self.volumes[sl].copy(),
            )
            self.volumes[sl] *= event.magnitude
        elif isinstance(event, BurstEnd):
            saved = self._saved_bursts.pop(event.burst_id, None)
            if saved is None:
                raise ValueError(
                    f"burst_end for unknown burst id {event.burst_id}"
                )
            pair, volumes = saved
            self.volumes[self._pair_slice(pair)] = volumes
        elif isinstance(event, TopologyChange):
            cut = self._cuts.fibers(event.num_fibers, event.scenario_seed)
            self.topology = self._cuts.topology(cut)
            self.topology_changed = True
        else:
            raise TypeError(f"unknown stream event {type(event).__name__}")

    def matrix(self) -> DemandMatrix:
        """Snapshot the current demands as a fresh matrix."""
        return self._base.with_volumes(self.volumes.copy())


# ---------------------------------------------------------------------------
# Triggers


def max_rel_delta(
    current: np.ndarray, reference: np.ndarray
) -> float:
    """Worst per-pair relative demand drift, incremental-engine style.

    Uses the same ``|delta| / max(reference, floor)`` form as
    :mod:`repro.core.incremental`, so a trigger threshold is directly
    comparable to the engine's ``delta_threshold``.
    """
    if reference.size == 0:
        return 0.0
    rel = np.abs(current - reference) / np.maximum(reference, _REL_FLOOR)
    return float(rel.max())


@dataclass(frozen=True)
class TriggerContext:
    """What a trigger policy sees each epoch.

    Attributes:
        epoch: Epoch index.
        time: Simulated seconds at the epoch boundary.
        num_events: Events drained this epoch.
        measured_drift: Worst per-pair relative delta between the
            epoch's (admitted) demands and the demands last solved on.
        predicted_drift: Same, for the predictor's forecast (0 when no
            predictor or no forecast yet).
        staleness_s: Simulated seconds since the last solve.
        topology_changed: A topology change landed this epoch (the
            runner forces a full solve regardless of the policy).
    """

    epoch: int
    time: float
    num_events: int
    measured_drift: float
    predicted_drift: float
    staleness_s: float
    topology_changed: bool

    @property
    def drift(self) -> float:
        """Measured-or-forecast drift, whichever is worse."""
        return max(self.measured_drift, self.predicted_drift)


def _check_threshold(threshold: float) -> None:
    if not threshold >= 0:  # NaN too
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")


@dataclass(frozen=True)
class OracleTrigger:
    """Full re-solve on every epoch that saw any event.

    The competitive-ratio baseline: maximum solve cost, freshest
    possible allocation (modulo the shared actuation delay).
    """

    name: ClassVar[str] = "oracle"

    def decide(self, ctx: TriggerContext) -> str:
        if ctx.num_events > 0 or ctx.topology_changed:
            return FULL
        return NOOP


@dataclass(frozen=True)
class PeriodicTrigger:
    """Full re-solve every ``period_s`` simulated seconds."""

    name: ClassVar[str] = "periodic"

    period_s: float = 300.0

    def __post_init__(self) -> None:
        check_clock(period_s=self.period_s)

    def decide(self, ctx: TriggerContext) -> str:
        if ctx.topology_changed or ctx.staleness_s >= self.period_s:
            return FULL
        return NOOP


@dataclass(frozen=True)
class DeltaTrigger:
    """Delta fast path whenever drift exceeds ``threshold``.

    ``threshold`` shares the incremental engine's relative-delta
    semantics, so threshold 0 means "solve whenever anything moved at
    all" — the lockstep-anchor configuration.
    """

    name: ClassVar[str] = "delta"

    threshold: float = 0.25

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)

    def decide(self, ctx: TriggerContext) -> str:
        if ctx.topology_changed:
            return FULL
        if ctx.drift > self.threshold:
            return DELTA
        return NOOP


@dataclass(frozen=True)
class HybridTrigger:
    """Delta on drift, plus a staleness-bounded full refresh.

    The production-shaped policy: cheap delta solves track real drift,
    and a periodic full refresh bounds how long incremental error can
    accumulate regardless of what the drift measurement says.
    """

    name: ClassVar[str] = "hybrid"

    threshold: float = 0.25
    refresh_s: float = 900.0

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)
        check_clock(refresh_s=self.refresh_s)

    def decide(self, ctx: TriggerContext) -> str:
        if ctx.topology_changed or ctx.staleness_s >= self.refresh_s:
            return FULL
        if ctx.drift > self.threshold:
            return DELTA
        return NOOP


def make_trigger(
    name: str,
    threshold: float = 0.25,
    period_s: float = 300.0,
    refresh_s: float = 900.0,
):
    """Build a named trigger policy (the CLI's ``--trigger`` values)."""
    if name == "oracle":
        return OracleTrigger()
    if name == "periodic":
        return PeriodicTrigger(period_s=period_s)
    if name == "delta":
        return DeltaTrigger(threshold=threshold)
    if name == "hybrid":
        return HybridTrigger(threshold=threshold, refresh_s=refresh_s)
    raise ValueError(
        f"unknown trigger {name!r}; choose from {TRIGGER_NAMES}"
    )


# ---------------------------------------------------------------------------
# Scenarios


def stream_scenario_events(
    name: str,
    num_pairs: int,
    num_epochs: int,
    tick_s: float = 30.0,
    seed: int = 0,
) -> tuple[StreamEvent, ...]:
    """The seeded event stream of one named streaming scenario.

    Pure: the same arguments always build the identical stream.  All
    randomness (pair choices, jitter factors, arrival subsets) derives
    from ``seed`` through one generator, drawn in a fixed order.

    Scenarios:

    * ``flash-crowd`` — a ramped 1.5x -> 2.25x burst on a few hot
      pairs mid-run (stacked bursts, byte-exact unwind), over constant
      low-level volume jitter on two random pairs per epoch plus a few
      arrivals/departures.  The jitter means the every-event oracle
      solves *every* epoch while a drift trigger only needs the burst
      transitions.
    * ``diurnal-shift`` — a regional subset of pairs follows a smooth
      sinusoidal day (successive :class:`VolumeScale` ratios), no
      bursts: the periodic-refresh-vs-drift comparison case.
    * ``failure-surge`` — a fiber cut lands mid-run, a correlated 2x
      surge follows on seeded pairs (rerouted recovery traffic), then
      the cut heals; light jitter throughout.
    """
    if name not in STREAM_SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"choose from {STREAM_SCENARIO_NAMES}"
        )
    if num_pairs <= 0 or num_epochs <= 0:
        raise ValueError("num_pairs and num_epochs must be positive")
    check_clock(tick_s=tick_s)

    rng = np.random.default_rng(seed)
    events: list[StreamEvent] = []

    def jitter(epoch: int, pairs: int = 2) -> None:
        chosen = rng.choice(num_pairs, size=min(pairs, num_pairs), replace=False)
        for pair in chosen:
            events.append(
                VolumeScale(
                    time=epoch * tick_s,
                    pair=int(pair),
                    factor=float(rng.uniform(0.97, 1.03)),
                )
            )

    if name == "flash-crowd":
        num_hot = max(1, num_pairs // 12)
        hot = rng.choice(num_pairs, size=num_hot, replace=False)
        r0 = max(1, num_epochs // 3)
        r1 = min(num_epochs - 1, max(r0 + 2, (2 * num_epochs) // 3))
        burst_id = 0
        for epoch in range(1, num_epochs):
            jitter(epoch)
        for pair in hot:
            outer, inner = burst_id, burst_id + 1
            burst_id += 2
            events.append(
                BurstStart(
                    time=r0 * tick_s,
                    pair=int(pair),
                    magnitude=1.5,
                    burst_id=outer,
                )
            )
            events.append(
                BurstStart(
                    time=(r0 + 1) * tick_s,
                    pair=int(pair),
                    magnitude=1.5,
                    burst_id=inner,
                )
            )
            events.append(BurstEnd(time=r1 * tick_s, burst_id=inner))
            events.append(
                BurstEnd(time=(r1 + 1) * tick_s, burst_id=outer)
            )
        for i in range(max(1, num_epochs // 24)):
            pair = int(rng.integers(num_pairs))
            epoch = int(rng.integers(1, num_epochs))
            events.append(
                FlowArrival(
                    time=epoch * tick_s,
                    pair=pair,
                    fraction=0.1,
                    volume_scale=0.05,
                    choice_seed=seed * 7000 + i,
                )
            )
        for i in range(max(1, num_epochs // 32)):
            pair = int(rng.integers(num_pairs))
            epoch = int(rng.integers(1, num_epochs))
            events.append(
                FlowDeparture(
                    time=epoch * tick_s,
                    pair=pair,
                    fraction=0.02,
                    choice_seed=seed * 9000 + i,
                )
            )
    elif name == "diurnal-shift":
        size = max(1, int(round(0.4 * num_pairs)))
        region = rng.choice(num_pairs, size=size, replace=False)

        def shape(epoch: int) -> float:
            return 1.0 + 0.4 * float(
                np.sin(2.0 * np.pi * epoch / num_epochs)
            )

        for epoch in range(1, num_epochs):
            ratio = shape(epoch) / shape(epoch - 1)
            for pair in region:
                events.append(
                    VolumeScale(
                        time=epoch * tick_s,
                        pair=int(pair),
                        factor=ratio,
                    )
                )
    else:  # failure-surge
        cut_epoch = max(1, num_epochs // 4)
        heal_epoch = min(num_epochs - 1, (3 * num_epochs) // 4)
        surge_end = min(heal_epoch, max(cut_epoch + 2, num_epochs // 2))
        surged = rng.choice(
            num_pairs, size=min(3, num_pairs), replace=False
        )
        events.append(
            TopologyChange(
                time=cut_epoch * tick_s,
                num_fibers=1,
                scenario_seed=seed * 500 + 1,
            )
        )
        for i, pair in enumerate(surged):
            events.append(
                BurstStart(
                    time=(cut_epoch + 1) * tick_s,
                    pair=int(pair),
                    magnitude=2.0,
                    burst_id=i,
                )
            )
            events.append(
                BurstEnd(time=surge_end * tick_s, burst_id=i)
            )
        events.append(
            TopologyChange(
                time=heal_epoch * tick_s,
                num_fibers=0,
                scenario_seed=0,
            )
        )
        for epoch in range(1, num_epochs, 3):
            jitter(epoch, pairs=1)

    # Stable by time: same-time events keep their construction order.
    events.sort(key=lambda e: e.time)
    return tuple(events)


def lockstep_events(
    sequence,
    num_intervals: int,
    interval_s: float = 300.0,
) -> tuple[StreamEvent, ...]:
    """Compile a matrix sequence into boundary-aligned events.

    Interval ``i`` becomes one :class:`VolumeSet` per site pair at
    ``i * interval_s``, reproducing ``sequence.matrix(i)``'s volumes
    exactly (the float round trip through the event tuple is lossless
    for float64).  Driving :func:`run_stream` with these events, a
    zero-threshold :class:`DeltaTrigger`, and ``tick_s == interval_s``
    is the lockstep determinism anchor.
    """
    events: list[StreamEvent] = []
    for i in range(num_intervals):
        table = sequence.matrix(i % sequence.num_intervals).table
        for pair in range(table.num_pairs):
            lo = int(table.offsets[pair])
            hi = int(table.offsets[pair + 1])
            events.append(
                VolumeSet(
                    time=i * interval_s,
                    pair=pair,
                    volumes=tuple(
                        float(v) for v in table.volumes[lo:hi]
                    ),
                )
            )
    return tuple(events)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class StreamEpochRecord:
    """One epoch's outcome.

    ``runtime_s`` is wall clock and excluded from the deterministic
    identity; everything else replays bit-for-bit from the seeds.
    """

    epoch: int
    time_s: float
    events: tuple[str, ...]
    decision: str
    offered_volume: float
    admitted_volume: float
    shed_volume: float
    delivered_volume: float
    delivered_fraction: float
    qos1_fraction: float
    staleness_s: float
    max_utilization: float
    runtime_s: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class StreamReport(RunIdentity):
    """Aggregate outcome of one streaming run.

    :meth:`identity` / :meth:`identity_digest` cover the deterministic
    subset — two runs with the same seeds must agree on them exactly.
    ``assignment_digest`` covers the solves only (in solve order), so
    it is comparable with the lockstep replay digest when the anchor
    configuration makes the solve sequences coincide.
    """

    scenario: str
    trigger: str
    seed: int
    topology: str
    num_epochs: int
    tick_s: float
    num_flows: int
    num_events: int
    solves_full: int
    solves_delta: int
    assignment_digest: str
    records: list[StreamEpochRecord] = field(default_factory=list)
    event_log: list[dict] = field(default_factory=list)
    offered_volume: float = 0.0
    admitted_volume: float = 0.0
    delivered_volume: float = 0.0
    shed_volume: float = 0.0
    qos1_offered: float = 0.0
    qos1_delivered: float = 0.0
    qos1_floor: float = 1.0
    delivered_floor: float = 1.0
    admission: dict | None = None
    total_runtime_s: float = 0.0

    @property
    def solves(self) -> int:
        return self.solves_full + self.solves_delta

    @property
    def solves_per_event(self) -> float:
        return self.solves / self.num_events if self.num_events else 0.0

    @property
    def satisfied_fraction(self) -> float:
        if self.offered_volume <= 0:
            return 1.0
        return self.delivered_volume / self.offered_volume

    @property
    def qos1_fraction(self) -> float:
        if self.qos1_offered <= 0:
            return 1.0
        return self.qos1_delivered / self.qos1_offered

    def as_dict(self) -> dict:
        return {
            **self.identity(),
            "records": [r.as_dict() for r in self.records],
            "total_runtime_s": self.total_runtime_s,
            "solves": self.solves,
            "solves_per_event": self.solves_per_event,
            "satisfied_fraction": self.satisfied_fraction,
            "qos1_fraction": self.qos1_fraction,
            "identity_digest": self.identity_digest(),
        }

    def identity(self) -> dict:
        """The seed-deterministic view (no wall-clock fields)."""
        return {
            "scenario": self.scenario,
            "trigger": self.trigger,
            "seed": self.seed,
            "topology": self.topology,
            "num_epochs": self.num_epochs,
            "tick_s": self.tick_s,
            "num_flows": self.num_flows,
            "num_events": self.num_events,
            "solves_full": self.solves_full,
            "solves_delta": self.solves_delta,
            "assignment_digest": self.assignment_digest,
            "records": self.timeless(self.records),
            "event_log": list(self.event_log),
            "offered_volume": self.offered_volume,
            "admitted_volume": self.admitted_volume,
            "delivered_volume": self.delivered_volume,
            "shed_volume": self.shed_volume,
            "qos1_offered": self.qos1_offered,
            "qos1_delivered": self.qos1_delivered,
            "qos1_floor": self.qos1_floor,
            "delivered_floor": self.delivered_floor,
            "admission": self.admission,
        }


# ---------------------------------------------------------------------------
# The streaming loop


def run_stream(
    topology,
    base: DemandMatrix,
    events: Sequence[StreamEvent],
    num_epochs: int,
    tick_s: float = 30.0,
    trigger=None,
    optimizer: MegaTEOptimizer | None = None,
    predictor=None,
    admission: AdmissionConfig | AdmissionController | None = None,
    seed: int = 0,
    scenario: str = "custom",
    topology_name: str = "",
) -> StreamReport:
    """Drain an event stream through the online controller loop.

    Each epoch ``t`` (simulated second ``t * tick_s``): drain every
    event with ``time <= t * tick_s`` (stable order), snapshot the
    demands, run admission, measure drift against the last-solved
    demands (and the predictor's forecast), ask the trigger for a
    decision, maybe solve, then realize the *actuated* allocation on
    the epoch's actual demands (one-epoch actuation delay; epoch-0 and
    topology-change solves actuate immediately) and account delivered
    and shed volume.

    The run owns the metrics registry (:func:`~.engine.owned_registry`);
    the ``megate_stream_*`` series stay in it for export.

    Args:
        topology: Healthy contracted two-layer topology.
        base: Baseline demand matrix; the stream mutates volumes from
            here (flow identities fixed for the run).
        events: The event stream (see :func:`stream_scenario_events`).
        num_epochs: Controller epochs to run.
        tick_s: Simulated seconds per epoch.
        trigger: Trigger policy (default :class:`HybridTrigger`).
        optimizer: Solver to drive (a default :class:`MegaTEOptimizer`
            when omitted).
        predictor: Optional forecaster with ``observe``/``predict``
            (:mod:`repro.traffic.prediction`); its forecast drift
            feeds the trigger.
        admission: Optional :class:`AdmissionConfig` (budgets derived
            from ``base``) or a prebuilt :class:`AdmissionController`.
        seed: Recorded in the report (the stream itself is already
            seeded at construction).
        scenario: Scenario name recorded in the report.
        topology_name: Topology label recorded in the report.
    """
    if num_epochs <= 0:
        raise ValueError("num_epochs must be positive")
    check_clock(tick_s=tick_s)
    if trigger is None:
        trigger = HybridTrigger()

    controller: AdmissionController | None
    if isinstance(admission, AdmissionController):
        controller = admission
    elif isinstance(admission, AdmissionConfig):
        controller = AdmissionController.for_matrix(base, admission)
    elif admission is None:
        controller = None
    else:
        raise TypeError(
            "admission must be an AdmissionConfig, an "
            "AdmissionController, or None"
        )

    tracer = get_tracer()
    state = StreamState(topology, base)
    # Stable sort: same-time events keep their order in the stream.
    queue = sorted(events, key=lambda e: e.time)
    cursor = 0

    report = StreamReport(
        scenario=scenario,
        trigger=getattr(trigger, "name", type(trigger).__name__),
        seed=seed,
        topology=topology_name,
        num_epochs=num_epochs,
        tick_s=tick_s,
        num_flows=base.num_endpoint_pairs,
        num_events=0,
        solves_full=0,
        solves_delta=0,
        assignment_digest="",
    )
    last_solved_site: np.ndarray | None = None
    last_solve_t: float | None = None

    with owned_registry() as registry:
        loop = EpochLoop(
            optimizer if optimizer is not None else MegaTEOptimizer(),
            delay_actuation=True,
        )
        events_c = registry.counter(
            "megate_stream_events_total",
            "Stream events applied, by kind",
            labelnames=("kind",),
        )
        resolves_c = registry.counter(
            "megate_stream_resolves_total",
            "Controller solves issued, by trigger decision",
            labelnames=("trigger",),
        )
        epochs_c = registry.counter(
            "megate_stream_epochs_total", "Controller epochs completed"
        )
        staleness_g = registry.gauge(
            "megate_stream_staleness_seconds",
            "Simulated seconds since the last solve",
        )
        shed_c = registry.counter(
            "megate_stream_shed_volume_total",
            "Volume shed by admission control across the run",
        )
        delivered_g = registry.gauge(
            "megate_stream_delivered_fraction",
            "Delivered fraction of offered volume, latest epoch",
        )
        qos1_floor_g = registry.gauge(
            "megate_stream_qos1_fraction_floor",
            "Worst per-epoch QoS-1 satisfied fraction so far",
        )

        for epoch in range(num_epochs):
            t = epoch * tick_s
            state.topology_changed = False
            drained = 0
            while cursor < len(queue) and queue[cursor].time <= t:
                event = queue[cursor]
                cursor += 1
                drained += 1
                with tracer.span(
                    "stream.event", kind=event.kind, epoch=epoch
                ):
                    state.apply(event)
                events_c.labels(kind=event.kind).inc()
                report.event_log.append(
                    {"epoch": epoch, **event.describe()}
                )
            report.num_events += drained

            raw = state.matrix()
            raw_site = raw.site_demands()
            raw_total = float(raw_site.sum())

            shed_this = 0.0
            if controller is not None:
                outcome = controller.admit(raw.table)
                admitted = raw.with_volumes(outcome.volumes)
                shed_this = outcome.shed_total
                shed_c.inc(shed_this)
            else:
                admitted = raw
            admitted_site = admitted.site_demands()
            admitted_total = float(admitted_site.sum())

            staleness_s = t - (
                last_solve_t if last_solve_t is not None else 0.0
            )
            # Drift is measured on the *raw* observed demands: admission
            # caps what the solver sees, but a capped surge is still the
            # drift signal that should trip a re-solve (otherwise the
            # cap would mask the very overload it exists to manage).
            measured = (
                max_rel_delta(raw_site, last_solved_site)
                if last_solved_site is not None
                else float("inf")
            )
            predicted = 0.0
            if predictor is not None and last_solved_site is not None:
                try:
                    forecast = predictor.predict()
                except RuntimeError:
                    forecast = None
                if forecast is not None:
                    predicted = max_rel_delta(
                        forecast.site_demands(), last_solved_site
                    )
            context = TriggerContext(
                epoch=epoch,
                time=t,
                num_events=drained,
                measured_drift=measured,
                predicted_drift=predicted,
                staleness_s=staleness_s,
                topology_changed=state.topology_changed,
            )

            # The actuated allocation is realized on this epoch's actual
            # (admitted) demands; shed volume counts against delivered
            # fraction because raw volume is the denominator.
            step = loop.step(
                state.topology,
                admitted,
                admitted,
                decide=partial(trigger.decide, context),
                topology_changed=state.topology_changed,
            )
            decision, sim = step.decision, step.flow
            runtime_s = 0.0
            if step.solved is not None:
                resolves_c.labels(trigger=decision).inc()
                if decision == FULL:
                    report.solves_full += 1
                else:
                    report.solves_delta += 1
                runtime_s = step.solved.runtime_s
                report.total_runtime_s += runtime_s
                last_solved_site = raw_site
                last_solve_t = t
                staleness_s = 0.0

            fractions = np.concatenate(sim.flow_delivery)
            q1 = raw.table.qos == 1
            qos1_offered = float(raw.table.volumes[q1].sum())
            qos1_delivered = float(
                (admitted.table.volumes[q1] * fractions[q1]).sum()
            )
            qos1_fraction = (
                qos1_delivered / qos1_offered if qos1_offered > 0 else 1.0
            )
            delivered_fraction = (
                sim.delivered_volume / raw_total if raw_total > 0 else 1.0
            )

            report.offered_volume += raw_total
            report.admitted_volume += admitted_total
            report.delivered_volume += sim.delivered_volume
            report.shed_volume += shed_this
            report.qos1_offered += qos1_offered
            report.qos1_delivered += qos1_delivered
            report.qos1_floor = min(report.qos1_floor, qos1_fraction)
            report.delivered_floor = min(
                report.delivered_floor, delivered_fraction
            )

            epochs_c.inc()
            staleness_g.set(staleness_s)
            delivered_g.set(delivered_fraction)
            qos1_floor_g.set(report.qos1_floor)

            report.records.append(
                StreamEpochRecord(
                    epoch=epoch,
                    time_s=t,
                    events=tuple(
                        e["kind"]
                        for e in report.event_log[
                            len(report.event_log) - drained :
                        ]
                    ),
                    decision=decision,
                    offered_volume=raw_total,
                    admitted_volume=admitted_total,
                    shed_volume=shed_this,
                    delivered_volume=float(sim.delivered_volume),
                    delivered_fraction=delivered_fraction,
                    qos1_fraction=qos1_fraction,
                    staleness_s=staleness_s,
                    max_utilization=sim.max_utilization,
                    runtime_s=runtime_s,
                )
            )

            if predictor is not None:
                predictor.observe(raw)

    report.assignment_digest = loop.digest.hexdigest()
    if controller is not None:
        report.admission = {
            **controller.config.as_dict(),
            "total_shed": controller.total_shed,
            "total_released": controller.total_released,
            "backlog_total": controller.backlog_total,
        }
    return report
