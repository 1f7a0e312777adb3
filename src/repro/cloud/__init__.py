"""Multi-tenant cloud serving layer for ShEF Shields.

The seed reproduction deploys one Shield for one Data Owner on one board.
This package scales that story to a serving fleet: a
:class:`~repro.cloud.service.ShieldCloudService` admits many concurrent
tenant sessions (each its own Data Owner, Load Key, and Shield), schedules
their accelerator jobs across boards with a policy-driven
:class:`~repro.cloud.scheduler.FleetScheduler` (FIFO, priority, weighted
fair-share, shortest-job-first -- the zoo lives in
:mod:`repro.cloud.policies` and is shared with the timed
:class:`~repro.sim.cloud.CloudSimulator`), keeps a session's Shield *warm* on
its board between jobs so repeated-tenant traffic skips the ~6.2 s reload,
and keeps tenants isolated by construction -- every byte crossing the
untrusted host is ciphertext under a session-scoped key.  The companion
timing harness lives in :mod:`repro.sim.cloud`.
"""

from repro.cloud.policies import (
    POLICIES,
    POLICY_NAMES,
    FifoPolicy,
    JobRequest,
    PriorityPolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    WeightedFairSharePolicy,
    make_policy,
)
from repro.cloud.scheduler import AcceleratorJob, FleetScheduler, JobState
from repro.cloud.shard import (
    ShardReplayReport,
    ShardRouter,
    partition_trace,
    replay_sharded,
)
from repro.cloud.service import (
    BoardSlot,
    CloudServiceStats,
    HostObservation,
    PlacedJob,
    ShieldCloudService,
)
from repro.cloud.tenant import SessionState, TenantSession, TenantUsage

__all__ = [
    "AcceleratorJob",
    "FleetScheduler",
    "JobState",
    "BoardSlot",
    "CloudServiceStats",
    "HostObservation",
    "PlacedJob",
    "ShieldCloudService",
    "SessionState",
    "TenantSession",
    "TenantUsage",
    "POLICIES",
    "POLICY_NAMES",
    "JobRequest",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "WeightedFairSharePolicy",
    "ShortestJobFirstPolicy",
    "make_policy",
    "ShardReplayReport",
    "ShardRouter",
    "partition_trace",
    "replay_sharded",
]
