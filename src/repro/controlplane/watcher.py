"""Link-state watching: detecting failures and triggering recomputation.

§6.3's recovery story starts before the solver runs: something must
notice the fiber is down.  Production WANs learn this from BFD/IGP within
tens of milliseconds to seconds.  This module models that stage:

* routers (or a telemetry pipeline) feed per-link *probe observations*
  into a :class:`LinkStateMonitor`;
* a link is declared **down** after ``down_after`` consecutive probe
  losses and **up** again after ``up_after`` consecutive successes
  (the standard BFD-style hysteresis, so one lost probe does not flap
  the whole TE system);
* every declared transition is timestamped and handed to a callback —
  in MegaTE, the controller's failure-triggered recompute.

The detection delay this produces (probe interval × down_after) is the
first term of the outage timeline measured by
:func:`repro.controlplane.failover.orchestrate_failover`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .. import checks

__all__ = [
    "LinkEvent",
    "LinkStateMonitor",
    "ShardHealthMonitor",
    "shard_link",
]


@dataclass(frozen=True)
class LinkEvent:
    """A declared link-state transition.

    Attributes:
        link: The directed link key ``(src, dst)``.
        up: True for recovery, False for failure.
        time: When the transition was declared (after hysteresis).
    """

    link: tuple[str, str]
    up: bool
    time: float


@dataclass
class _LinkTrack:
    up: bool = True
    consecutive_losses: int = 0
    consecutive_successes: int = 0


class LinkStateMonitor:
    """BFD-style link-state detector with hysteresis.

    Args:
        down_after: Consecutive probe losses before declaring down.
        up_after: Consecutive probe successes before declaring up.
        on_event: Callback invoked with each :class:`LinkEvent` — e.g.
            ``lambda e: controller.run_interval(...)`` on failures.
    """

    def __init__(
        self,
        down_after: int = 3,
        up_after: int = 2,
        on_event: Callable[[LinkEvent], None] | None = None,
    ) -> None:
        checks.in_range("down_after", down_after, 1, math.inf, "[)")
        checks.in_range("up_after", up_after, 1, math.inf, "[)")
        self.down_after = down_after
        self.up_after = up_after
        self.on_event = on_event
        self._tracks: dict[tuple[str, str], _LinkTrack] = {}
        self.events: list[LinkEvent] = []

    def observe(
        self, link: tuple[str, str], success: bool, now: float = 0.0
    ) -> LinkEvent | None:
        """Feed one probe observation.

        Returns:
            The declared transition, or ``None`` when the state held.
        """
        track = self._tracks.setdefault(link, _LinkTrack())
        if success:
            track.consecutive_successes += 1
            track.consecutive_losses = 0
            if not track.up and track.consecutive_successes >= self.up_after:
                track.up = True
                return self._declare(link, True, now)
        else:
            track.consecutive_losses += 1
            track.consecutive_successes = 0
            if track.up and track.consecutive_losses >= self.down_after:
                track.up = False
                return self._declare(link, False, now)
        return None

    def _declare(
        self, link: tuple[str, str], up: bool, now: float
    ) -> LinkEvent:
        event = LinkEvent(link=link, up=up, time=now)
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def is_up(self, link: tuple[str, str]) -> bool:
        """Current declared state (unknown links are up)."""
        track = self._tracks.get(link)
        return track.up if track else True

    def failed_links(self) -> list[tuple[str, str]]:
        """All links currently declared down."""
        return [
            link for link, track in self._tracks.items() if not track.up
        ]

    def detection_delay(self, probe_interval_s: float) -> float:
        """Worst-case failure-detection delay for a probe cadence."""
        checks.positive("probe_interval_s", probe_interval_s)
        return probe_interval_s * self.down_after


def shard_link(shard: int) -> tuple[str, str]:
    """The virtual link key standing for one TE-database shard."""
    return ("db", f"shard:{shard}")


class ShardHealthMonitor(LinkStateMonitor):
    """Link-state hysteresis applied to TE-database shards.

    The same detector that declares fibers down (§6.3) watches the sync
    plane: each shard is a virtual link probed by health checks, a shard
    is declared down after ``down_after`` consecutive probe failures,
    and declared transitions feed the failover orchestrator
    (:func:`repro.controlplane.failover.orchestrate_shard_failover`) —
    re-shard on down, reconcile on up.
    """

    def observe_shard(
        self, shard: int, alive: bool, now: float = 0.0
    ) -> LinkEvent | None:
        """Feed one shard health probe; returns a declared transition."""
        return self.observe(shard_link(shard), alive, now=now)

    def shard_is_up(self, shard: int) -> bool:
        """Current declared state (unprobed shards are up)."""
        return self.is_up(shard_link(shard))

    def failed_shards(self) -> list[int]:
        """Shards currently declared down, ascending."""
        return sorted(
            int(dst.split(":", 1)[1])
            for src, dst in self.failed_links()
            if src == "db" and dst.startswith("shard:")
        )
