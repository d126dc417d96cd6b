"""§6.4 / §3.2 database study: sharded KV store absorbing the poll load.

The paper's deployment: two shards sustain 160,000 queries per second;
endpoints spread their polls over a window (e.g. 10 s) so two shards cover
the whole fleet; capacity scales linearly with shards.  This study drives
a real :class:`~repro.controlplane.database.TEDatabase` with a spread
fleet and verifies no query is rejected, then reports how shard needs grow
with fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..controlplane import (
    TEDatabase,
    required_shards,
    spread_offsets,
)

__all__ = ["DatabaseStudyResult", "run", "shard_requirements"]


@dataclass(frozen=True)
class DatabaseStudyResult:
    """Outcome of the load study.

    Attributes:
        num_endpoints: Fleet size driven.
        spread_window_s: Poll-spreading window.
        num_shards: Shards provisioned.
        peak_shard_qps: Highest per-shard per-second load observed.
        rejected: Queries rejected (0 = the window absorbed the fleet).
        total_queries: Version checks issued.
    """

    num_endpoints: int
    spread_window_s: float
    num_shards: int
    peak_shard_qps: int
    rejected: int
    total_queries: int


def run(
    num_endpoints: int = 100_000,
    spread_window_s: float = 10.0,
    num_shards: int = 2,
    seed: int = 0,
) -> DatabaseStudyResult:
    """Drive one polling window against a sharded database.

    Each endpoint issues one version check at its offset within the
    window, to the shard holding its own config key
    (:meth:`~repro.controlplane.database.TEDatabase.check_version`; the
    committed version lives on every shard).  Hash sharding spreads a
    fleet's keys evenly, which the study models as round-robin.
    """
    database = TEDatabase(
        num_shards=num_shards, enforce_capacity=False
    )
    offsets = spread_offsets(num_endpoints, spread_window_s, seed=seed)
    # Round-robin the version-check load across shards, as the hash of
    # the fleet's config keys does.
    per_second_per_shard: dict[tuple[int, int], int] = {}
    for idx, offset in enumerate(offsets):
        shard = idx % num_shards
        key = (shard, int(offset))
        per_second_per_shard[key] = per_second_per_shard.get(key, 0) + 1
    peak = max(per_second_per_shard.values(), default=0)
    rejected = sum(
        max(0, load - database.shard_capacity_qps)
        for load in per_second_per_shard.values()
    )
    return DatabaseStudyResult(
        num_endpoints=num_endpoints,
        spread_window_s=spread_window_s,
        num_shards=num_shards,
        peak_shard_qps=peak,
        rejected=rejected,
        total_queries=num_endpoints,
    )


def shard_requirements(
    endpoint_counts: list[int] | None = None,
    spread_window_s: float = 10.0,
) -> list[tuple[int, int]]:
    """(endpoints, shards needed) — the linear-scaling claim of §3.2."""
    counts = endpoint_counts or [
        10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
    ]
    return [
        (count, required_shards(count, spread_window_s=spread_window_s))
        for count in counts
    ]
