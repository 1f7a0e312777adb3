"""Job-lifecycle hygiene: no state leaks, bounded retention, cheap cancels.

Regression coverage for the PR 7 bug sweep:

* ``_submit_ts`` used to leak an entry for every cancelled job (the pop only
  happened when a job was *placed*);
* ``ShieldCloudService.jobs`` retained every terminal job forever -- it now
  holds live jobs only, with terminal jobs moving to a bounded retention
  ring and exact lifetime totals living in the metrics registry;
* ``FleetScheduler.cancel_session_jobs`` rebuilt the queue once per
  cancelled job (quadratic); it is now a single-pass rebuild shared with
  ``cancel_queued``.

The property-style tests drive random submit/reject/cancel/fail/complete
mixes through both the sync drain and the async front-end and assert the
lifecycle invariants that make a long-lived service possible.
"""

from __future__ import annotations

import asyncio
import gc
import random
import weakref

import pytest

import repro.obs as obs_api
from repro.accelerators import AffineTransformAccelerator, VectorAddAccelerator
from repro.cloud import FleetScheduler, JobState, ShieldCloudService
from repro.cloud.scheduler import AcceleratorJob
from repro.errors import CloudError
from repro.serve import AsyncShieldFrontend

ACCEL_BYTES = 8 * 1024

TERMINAL = (
    JobState.COMPLETED,
    JobState.FAILED,
    JobState.CANCELLED,
    JobState.REJECTED,
)


def _service(**kwargs):
    kwargs.setdefault("num_boards", 2)
    return ShieldCloudService(**kwargs)


def _assert_lifecycle_invariants(service, num_boards: int) -> None:
    """The invariants a drained fleet must satisfy after ANY workload mix."""
    # 1. No submit-timestamp residue: every queued job was either placed
    #    (popped at placement) or cancelled (popped at cancellation).
    assert service._submit_ts == {}
    # 2. The live-job map holds no terminal jobs -- after a drain it is empty.
    assert service.jobs == {}
    for job in service.terminal_jobs:
        assert job.state in TERMINAL
    # 3. The board free pool is conserved: nothing leaked out of rotation.
    assert service.scheduler.free_boards == num_boards
    # 4. Job-count conservation: every submission is accounted exactly once.
    stats = service.stats
    assert stats.jobs_submitted == (
        stats.jobs_completed
        + stats.jobs_failed
        + stats.jobs_cancelled
        + stats.jobs_rejected
    )
    # 5. The retention ring is bounded (and the overflow was counted).
    if service.job_retention is not None:
        assert len(service.terminal_jobs) <= service.job_retention
        terminal_total = (
            stats.jobs_completed
            + stats.jobs_failed
            + stats.jobs_cancelled
            + stats.jobs_rejected
        )
        assert stats.jobs_retired == max(
            0, terminal_total - len(service.terminal_jobs) - len(service.jobs)
        )


# ---------------------------------------------------------------------------
# The cancelled-job _submit_ts leak
# ---------------------------------------------------------------------------


def test_cancelled_job_pops_submit_timestamp_and_emits_queue_span():
    with obs_api.scoped() as handle:
        service = _service(num_boards=1)
        accel = VectorAddAccelerator(ACCEL_BYTES)
        session = service.admit_tenant("alice", accel)
        doomed = service.submit_job(
            session.session_id, inputs=accel.prepare_inputs(seed=0)
        )
        assert doomed.job_id in service._submit_ts
        service.close_session(session.session_id)
        assert doomed.state is JobState.CANCELLED
        # The leak: this entry used to stay forever.
        assert service._submit_ts == {}
        # The queue span is still emitted -- with a cancelled outcome -- so
        # queue-wait percentiles account for work that never ran.
        queue_spans = handle.tracer.spans("queue")
        assert len(queue_spans) == 1
        assert queue_spans[0].job == doomed.job_id
        assert queue_spans[0].attrs["outcome"] == "cancelled"


def test_drain_cancel_clears_submit_timestamps():
    service = _service(num_boards=1)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(3)
    ]
    cancelled = service.cancel_queued_jobs(reason="maintenance window")
    assert cancelled == jobs
    assert all(job.state is JobState.CANCELLED for job in jobs)
    assert all("maintenance window" in job.error for job in jobs)
    assert service._submit_ts == {}
    assert service.stats.jobs_cancelled == 3


# ---------------------------------------------------------------------------
# Bounded terminal-job retention
# ---------------------------------------------------------------------------


def test_terminal_jobs_leave_the_live_map_for_the_retention_ring():
    service = _service(num_boards=1, job_retention=2)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(4)
    ]
    service.run_until_idle()
    # Live map empty; ring keeps only the 2 most recent terminal jobs.
    assert service.jobs == {}
    retained = [job.job_id for job in service.terminal_jobs]
    assert retained == [jobs[2].job_id, jobs[3].job_id]
    assert service.stats.jobs_retired == 2
    # Exact lifetime totals survive the ring (mirroring placement_totals).
    assert service.stats.jobs_completed == 4
    # job_result: retained jobs resolve, evicted ones are gone.
    assert service.job_result(jobs[3].job_id, "alice") is jobs[3]
    with pytest.raises(CloudError):
        service.job_result(jobs[0].job_id, "alice")


def test_unbounded_retention_keeps_everything():
    service = _service(num_boards=1, job_retention=None)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    for seed in range(3):
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
    service.run_until_idle()
    assert len(service.terminal_jobs) == 3
    assert service.stats.jobs_retired == 0


def test_boards_used_records_each_board_once():
    # 50 warm jobs of one session on one board: the session's board list
    # stays one entry long instead of growing by one per job.
    service = _service(num_boards=1)
    accel = AffineTransformAccelerator(16)
    session = service.admit_tenant("alice", accel)
    for seed in range(50):
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
    service.run_until_idle()
    assert service.stats.jobs_completed == 50
    assert service.fleet_summary()["affinity_hits"] == 49
    assert session.boards_used == ["board-0"]


def test_invalid_retention_is_rejected():
    with pytest.raises(CloudError):
        _service(job_retention=0)
    with pytest.raises(CloudError):
        _service(job_retention=-5)


def test_rejected_jobs_are_retained_not_live():
    service = _service(num_boards=1, queue_cap=1)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=0))
    rejected = service.submit_job(
        session.session_id, inputs=accel.prepare_inputs(seed=1)
    )
    assert rejected.state is JobState.REJECTED
    assert rejected.job_id not in service.jobs
    assert rejected in service.terminal_jobs
    service.run_until_idle()
    _assert_lifecycle_invariants(service, num_boards=1)


# ---------------------------------------------------------------------------
# Single-pass queue cancellation
# ---------------------------------------------------------------------------


def test_cancel_queued_is_a_single_pass_rebuild():
    scheduler = FleetScheduler(["b0"])
    jobs = [
        AcceleratorJob(job_id=f"j{i}", session_id=f"s{i % 2}") for i in range(6)
    ]
    for job in jobs:
        scheduler.submit(job)
    cancelled = scheduler.cancel_session_jobs("s0")
    assert [job.job_id for job in cancelled] == ["j0", "j2", "j4"]
    assert all(job.state is JobState.CANCELLED for job in cancelled)
    assert scheduler.pending_jobs == 3
    # Survivors keep their relative order.
    order = []
    while True:
        placement = scheduler.acquire()
        if placement is None:
            break
        job, _, _ = placement
        order.append(job.job_id)
        scheduler.release(job, completed=True)
    assert order == ["j1", "j3", "j5"]


def test_cancel_queued_without_predicate_empties_the_queue():
    scheduler = FleetScheduler(["b0"])
    for i in range(4):
        scheduler.submit(AcceleratorJob(job_id=f"j{i}", session_id="s"))
    cancelled = scheduler.cancel_queued()
    assert len(cancelled) == 4
    assert scheduler.pending_jobs == 0


#: Jobs left queued after every round, so tenants never run dry.
BACKLOG = 6


def _drain_round(scheduler, jobs, drain: str) -> None:
    """Submit ``jobs`` and finish all but the newest ``BACKLOG`` queued jobs."""
    for job in jobs:
        scheduler.submit(job)
    if drain == "cancel":
        cutoff = jobs[-1].seq - BACKLOG
        scheduler.cancel_queued(lambda job: job.seq <= cutoff)
        return
    eligible = (lambda _: True) if drain == "eligible" else None
    while scheduler.pending_jobs > BACKLOG:
        job, _, _ = scheduler.acquire(eligible)
        scheduler.release(job, completed=True)


@pytest.mark.parametrize("drain", ["acquire", "eligible", "cancel"])
def test_fair_share_releases_every_finished_job(drain):
    """Fair-share used to keep every popped or cancelled job in its
    per-tenant heaps, so ``job_retention`` bounded nothing under ``fair``:
    a finished job (popped with or without an ``eligible`` filter, or
    cancelled) must not stay reachable from the scheduler, even while
    other jobs of its tenant are still queued."""
    scheduler = FleetScheduler(["b0", "b1"], policy="fair")
    refs = []
    for round_index in range(100):
        jobs = [
            AcceleratorJob(
                job_id=f"j{round_index}-{index}",
                session_id=f"s{index}",
                tenant=f"t{index % 2}",
                weight=float(1 + index),
            )
            for index in range(3)
        ]
        refs.extend(weakref.ref(job) for job in jobs)
        _drain_round(scheduler, jobs, drain)
        del jobs
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    assert [job.job_id for job in alive if job.state is not JobState.QUEUED] == []
    assert len(alive) == scheduler.pending_jobs == BACKLOG


# ---------------------------------------------------------------------------
# Property-style random lifecycle mixes (sync and async paths)
# ---------------------------------------------------------------------------

NUM_BOARDS = 2


def _random_inputs(accel, rng):
    if rng.random() < 0.2:
        return {"no-such-region": b"x"}  # will FAIL during execution
    return accel.prepare_inputs(seed=rng.randrange(1000))


@pytest.mark.parametrize("seed", [1, 42])
def test_random_lifecycle_mix_sync(seed):
    rng = random.Random(seed)
    service = _service(
        num_boards=NUM_BOARDS, queue_cap=4, job_retention=8
    )
    accel = VectorAddAccelerator(ACCEL_BYTES)
    sessions = {
        tenant: service.admit_tenant(tenant, accel)
        for tenant in ("alice", "bob", "carol")
    }
    for _ in range(30):
        action = rng.random()
        tenant = rng.choice(sorted(sessions))
        if action < 0.55:
            # Submit: may be REJECTED by the queue cap, may FAIL later.
            service.submit_job(
                sessions[tenant].session_id, inputs=_random_inputs(accel, rng)
            )
        elif action < 0.75:
            service.run_next_job()
        elif action < 0.9:
            # Close (cancelling queued jobs) and re-admit the tenant.
            service.close_session(sessions[tenant].session_id)
            sessions[tenant] = service.admit_tenant(tenant, accel)
        else:
            service.cancel_queued_jobs(reason="random drain")
    service.run_until_idle()
    _assert_lifecycle_invariants(service, NUM_BOARDS)


@pytest.mark.parametrize("seed", [3, 11])
def test_random_lifecycle_mix_async(seed):
    rng = random.Random(seed)
    service = _service(
        num_boards=NUM_BOARDS, queue_cap=6, job_retention=8
    )
    accel = VectorAddAccelerator(ACCEL_BYTES)

    async def main():
        sessions = {
            tenant: service.admit_tenant(tenant, accel)
            for tenant in ("alice", "bob", "carol")
        }
        async with AsyncShieldFrontend(service, max_pending=5) as frontend:
            futures = []
            for _ in range(24):
                action = rng.random()
                tenant = rng.choice(sorted(sessions))
                if action < 0.7:
                    futures.append(
                        frontend.submit_nowait(
                            sessions[tenant].session_id,
                            inputs=_random_inputs(accel, rng),
                        )
                    )
                elif action < 0.85:
                    await frontend.close_session(sessions[tenant].session_id)
                    sessions[tenant] = service.admit_tenant(tenant, accel)
                else:
                    # Let the fleet make progress so mixes vary.
                    await asyncio.sleep(0)
            jobs = await asyncio.gather(*futures)
        return jobs

    jobs = asyncio.run(main())
    assert all(job.state in TERMINAL for job in jobs)
    _assert_lifecycle_invariants(service, NUM_BOARDS)
