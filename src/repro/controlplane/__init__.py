"""Control plane: bottom-up, database-mediated TE config distribution."""

from .agent import EndpointAgent, RetryPolicy
from .collector import DemandCollector, FlowRecord
from .consistency import (
    ConvergenceReport,
    analytic_convergence,
    simulate_convergence,
    spread_offsets,
)
from .controller import EndpointConfig, TEController, config_key
from .failover import (
    FailoverTimeline,
    ShardFailoverReport,
    orchestrate_failover,
    orchestrate_shard_failover,
)
from .faults import (
    FaultPlan,
    FaultStats,
    FaultWindow,
    FaultyTEDatabase,
    ShardFaults,
    ShardPartitioned,
    ShardTimeout,
    ShardUnavailable,
    TransientShardError,
    deterministic_uniform,
    wrap_database,
)
from .watcher import (
    LinkEvent,
    LinkStateMonitor,
    ShardHealthMonitor,
    shard_link,
)
from .hybrid import HybridPlan, exposure_after_failure, plan_hybrid_sync
from .publisher import ResumablePublisher
from .database import (
    QueryRejected,
    SHARD_CAPACITY_QPS,
    ShardStats,
    SyncError,
    TEDatabase,
    VERSION_KEY,
)
from .sync import (
    ResourceEstimate,
    bottomup_resources,
    persistent_connection_load,
    required_shards,
    topdown_resources,
)

__all__ = [
    "TEDatabase",
    "ShardStats",
    "QueryRejected",
    "SyncError",
    "SHARD_CAPACITY_QPS",
    "FaultPlan",
    "FaultStats",
    "FaultWindow",
    "FaultyTEDatabase",
    "ShardFaults",
    "ShardPartitioned",
    "ShardTimeout",
    "ShardUnavailable",
    "TransientShardError",
    "deterministic_uniform",
    "wrap_database",
    "RetryPolicy",
    "ShardFailoverReport",
    "orchestrate_shard_failover",
    "ShardHealthMonitor",
    "shard_link",
    "TEController",
    "EndpointConfig",
    "VERSION_KEY",
    "config_key",
    "EndpointAgent",
    "ResumablePublisher",
    "ConvergenceReport",
    "spread_offsets",
    "simulate_convergence",
    "analytic_convergence",
    "persistent_connection_load",
    "topdown_resources",
    "bottomup_resources",
    "required_shards",
    "ResourceEstimate",
    "HybridPlan",
    "plan_hybrid_sync",
    "exposure_after_failure",
    "FailoverTimeline",
    "orchestrate_failover",
    "DemandCollector",
    "FlowRecord",
    "LinkStateMonitor",
    "LinkEvent",
]
