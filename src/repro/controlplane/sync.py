"""Synchronization cost models: top-down vs bottom-up (Figures 13 & 14).

The paper pressure-tests a 1-core / 1-GB cloud VM holding persistent
connections (heartbeats included) and reports: 6,000 connections consume
90% CPU and 750 MB; pushing to one million endpoints needs "at least 167
CPU cores running at high usage and 125 GB of memory".  Both statements
pin down the same linear per-connection cost, which this module encodes:

* CPU: 90% / 6000 = 0.015 core-percent per connection, provisioned at 90%
  target utilization → 1,000,000 × 0.015 / 90 ≈ 167 cores.
* Memory: 750 MB / 6000 = 0.125 MB per connection → 125 GB at a million.

The bottom-up loop needs a constant 1 core / 1 GB on the controller (it
only writes to the database) plus database shards sized by peak query
rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import checks
from .database import SHARD_CAPACITY_QPS

__all__ = [
    "CPU_PERCENT_PER_CONNECTION",
    "MEMORY_MB_PER_CONNECTION",
    "persistent_connection_load",
    "topdown_resources",
    "bottomup_resources",
    "required_shards",
    "ResourceEstimate",
]

#: CPU percent (of one core) per persistent connection, calibrated to the
#: paper's pressure test (6,000 connections -> 90% CPU).
CPU_PERCENT_PER_CONNECTION = 90.0 / 6000.0

#: Memory per persistent connection in MB (6,000 connections -> 750 MB).
MEMORY_MB_PER_CONNECTION = 750.0 / 6000.0

#: Target sustained CPU utilization when provisioning cores; the paper's
#: operators flag sustained 90% as the failure-risk threshold.
TARGET_CPU_UTILIZATION = 90.0


@dataclass(frozen=True)
class ResourceEstimate:
    """Controller-side resources for a synchronization approach.

    Attributes:
        cpu_cores: Cores required.
        memory_gb: Memory required in GB.
        database_shards: TE database shards (bottom-up only; 0 otherwise).
    """

    cpu_cores: float
    memory_gb: float
    database_shards: int = 0


def persistent_connection_load(
    num_connections: int,
) -> tuple[float, float]:
    """(CPU %, memory MB) on a single 1-core VM — the Figure 13 curve.

    CPU saturates at 100%; beyond that the VM is simply overloaded.
    """
    checks.nonnegative("num_connections", num_connections)
    cpu = min(100.0, num_connections * CPU_PERCENT_PER_CONNECTION)
    memory_mb = num_connections * MEMORY_MB_PER_CONNECTION
    return cpu, memory_mb


def topdown_resources(num_endpoints: int) -> ResourceEstimate:
    """Resources to hold persistent connections to every endpoint (Fig. 14).

    Cores are provisioned so sustained utilization stays at the 90%
    operating point the paper's pressure test used.
    """
    checks.nonnegative("num_endpoints", num_endpoints)
    raw_cpu_percent = num_endpoints * CPU_PERCENT_PER_CONNECTION
    cores = max(1.0, raw_cpu_percent / TARGET_CPU_UTILIZATION)
    memory_gb = max(
        1.0, num_endpoints * MEMORY_MB_PER_CONNECTION / 1024.0
    )
    return ResourceEstimate(cpu_cores=cores, memory_gb=memory_gb)


def required_shards(
    num_endpoints: int,
    spread_window_s: float = 10.0,
    queries_per_poll: float = 1.0,
    shard_capacity_qps: int = SHARD_CAPACITY_QPS,
) -> int:
    """Database shards needed for a fleet's spread-out polling load.

    Peak aggregate qps = endpoints × queries-per-poll / window.
    """
    checks.nonnegative("num_endpoints", num_endpoints)
    checks.positive("spread_window_s", spread_window_s)
    peak_qps = num_endpoints * queries_per_poll / spread_window_s
    return max(1, math.ceil(peak_qps / shard_capacity_qps))


def bottomup_resources(
    num_endpoints: int, spread_window_s: float = 10.0
) -> ResourceEstimate:
    """Controller resources under MegaTE's bottom-up loop (Fig. 14).

    The controller only writes configs to the database: 1 core / 1 GB,
    independent of fleet size.  Query load lands on database shards.
    """
    return ResourceEstimate(
        cpu_cores=1.0,
        memory_gb=1.0,
        database_shards=required_shards(
            num_endpoints, spread_window_s=spread_window_s
        ),
    )
