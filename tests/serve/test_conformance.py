"""Async-vs-sync conformance: the serving front-end must not change outcomes.

The same workload submitted through :class:`AsyncShieldFrontend` and through
the synchronous ``submit_job`` + ``run_until_idle`` path must produce
identical per-job outcomes -- terminal state, output bytes, board warm-hit
and eviction counts.  Concurrency is allowed to change *when* things happen,
never *what* happens: per-session serialization pins each session to its
warm board, so with tenants <= boards the async placement collapses to the
sync one exactly.
"""

from __future__ import annotations

import asyncio

import repro.obs as obs_api
from repro.accelerators import VectorAddAccelerator
from repro.cloud import JobState, ShieldCloudService
from repro.obs import lifecycle_signature
from repro.serve import AsyncShieldFrontend
from repro.sim.simulator import outputs_equal

ACCEL_BYTES = 8 * 1024

#: (tenant, seed) submission order shared by both paths.
WORKLOAD = [
    ("alice", 0),
    ("bob", 10),
    ("alice", 1),
    ("bob", 11),
    ("alice", 2),
    ("bob", 12),
]


def _build(num_boards: int):
    service = ShieldCloudService(num_boards=num_boards)
    accels = {
        "alice": VectorAddAccelerator(ACCEL_BYTES),
        "bob": VectorAddAccelerator(ACCEL_BYTES),
    }
    sessions = {
        tenant: service.admit_tenant(tenant, accel) for tenant, accel in accels.items()
    }
    return service, accels, sessions


def _counts(service) -> dict:
    summary = service.fleet_summary()
    return {
        "jobs_completed": summary["jobs_completed"],
        "shield_loads": summary["shield_loads"],
        "affinity_hits": summary["affinity_hits"],
        "evictions": sum(
            board["evictions"] for board in summary["boards"].values()
        ),
    }


def _run_sync(num_boards: int):
    with obs_api.scoped() as handle:
        service, accels, sessions = _build(num_boards)
        jobs = [
            service.submit_job(
                sessions[tenant].session_id, inputs=accels[tenant].prepare_inputs(seed=seed)
            )
            for tenant, seed in WORKLOAD
        ]
        service.run_until_idle()
        counts = _counts(service)
    return jobs, counts, lifecycle_signature(handle.tracer.events)


def _run_async(num_boards: int):
    async def main():
        service, accels, sessions = _build(num_boards)
        frontend = AsyncShieldFrontend(service)
        futures = [
            frontend.submit_nowait(
                sessions[tenant].session_id, inputs=accels[tenant].prepare_inputs(seed=seed)
            )
            for tenant, seed in WORKLOAD
        ]
        jobs = await asyncio.gather(*futures)
        # Snapshot the counters before shutdown evicts the warm Shields --
        # the sync path's counters are read at the same point (post-drain,
        # pre-teardown).
        counts = _counts(service)
        await frontend.shutdown()
        return jobs, counts

    with obs_api.scoped() as handle:
        jobs, counts = asyncio.run(main())
    return jobs, counts, lifecycle_signature(handle.tracer.events)


def _assert_same_outcomes(sync_jobs, async_jobs):
    assert len(sync_jobs) == len(async_jobs)
    for sync_job, async_job in zip(sync_jobs, async_jobs):
        assert sync_job.tenant == async_job.tenant
        assert sync_job.state is async_job.state is JobState.COMPLETED
        assert outputs_equal(sync_job.result.outputs, async_job.result.outputs)


def test_single_board_runs_are_identical():
    # One board fully serializes both paths: outcomes, counters, and even
    # the lifecycle signature (stage order, tenant attribution, warm flags)
    # must match event for event.
    sync_jobs, sync_counts, sync_signature = _run_sync(num_boards=1)
    async_jobs, async_counts, async_signature = _run_async(num_boards=1)
    _assert_same_outcomes(sync_jobs, async_jobs)
    assert sync_counts == async_counts
    assert sync_signature == async_signature


def test_two_board_overlap_preserves_outcomes_and_warm_hits():
    # Two boards, two tenants: the async path overlaps the tenants across
    # boards, but session pinning keeps every warm-hit and eviction count
    # identical to the sequential drain.
    sync_jobs, sync_counts, _ = _run_sync(num_boards=2)
    async_jobs, async_counts, _ = _run_async(num_boards=2)
    _assert_same_outcomes(sync_jobs, async_jobs)
    assert sync_counts == async_counts
    # Sanity-pin the shape this conformance relies on: one cold load per
    # tenant, every revisit warm, no evictions while serving.
    assert async_counts["shield_loads"] == 2
    assert async_counts["affinity_hits"] == 4
    assert async_counts["evictions"] == 0
