"""Fleet-scale simulation: many co-processor cards behind one dispatcher.

This package scales the paper's single-card story up to a cluster: N
independent cards (each with its own PCI bus, bridge and host driver) share
one discrete-event kernel, an open-arrival multi-tenant stream feeds a
dispatcher with pluggable routing policies, and fleet-level statistics report
what the cluster as a whole delivered.

The headline policy is configuration-affinity dispatch
(:class:`~repro.cluster.dispatch.ConfigAffinityPolicy`): route each request to
a card whose mini OS already holds the function's frames, turning the paper's
per-card reconfiguration-locality result into a fleet-level scheduling win.
See ``docs/architecture.md`` for the design notes and experiment E9 for the
measurements.
"""

from repro.cluster.card import FleetCard
from repro.cluster.dispatch import (
    POLICIES,
    ConfigAffinityPolicy,
    DispatchPolicy,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    StaticHashPolicy,
    build_dispatch_policy,
)
from repro.cluster.sharded import (
    ShardedRunConfig,
    ShardedRunResult,
    ShardTraceView,
    ShardWorkerError,
    build_single_process_fleet,
    merge_digest_lines,
    partition_cards,
    run_sharded,
)
from repro.cluster.fleet import Fleet
from repro.cluster.orders import (
    DefragOrder,
    HealOrder,
    MigrateOrder,
    Order,
    ReleaseOrder,
    RestoreOrder,
    ScrubOrder,
)
from repro.cluster.rebalance import MigrationOrder, Rebalancer
from repro.cluster.stats import FleetStatistics

__all__ = [
    "POLICIES",
    "ConfigAffinityPolicy",
    "DefragOrder",
    "DispatchPolicy",
    "Fleet",
    "FleetCard",
    "FleetStatistics",
    "HealOrder",
    "MigrateOrder",
    "MigrationOrder",
    "Order",
    "Rebalancer",
    "ReleaseOrder",
    "RestoreOrder",
    "ScrubOrder",
    "LeastOutstandingPolicy",
    "RoundRobinPolicy",
    "ShardTraceView",
    "ShardWorkerError",
    "ShardedRunConfig",
    "ShardedRunResult",
    "StaticHashPolicy",
    "build_dispatch_policy",
    "build_single_process_fleet",
    "merge_digest_lines",
    "partition_cards",
    "run_sharded",
]
