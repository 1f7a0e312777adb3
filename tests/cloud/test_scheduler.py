"""Scheduling and admission control on the cloud serving layer.

Covers the FleetScheduler contract (policy-driven ordering, longest-idle
placement with warm affinity, release semantics) and the service-level
rules: unprovisioned or closed sessions cannot submit, queued jobs are
cancelled with their session, and a board is reusable by other tenants after
a session tears down.
"""

from __future__ import annotations

import pytest

from repro.accelerators import MatMulAccelerator, VectorAddAccelerator
from repro.cloud import AcceleratorJob, FleetScheduler, JobState, ShieldCloudService
from repro.cloud.tenant import SessionState
from repro.errors import CloudError, SchedulingError


# ---------------------------------------------------------------------------
# FleetScheduler unit behaviour
# ---------------------------------------------------------------------------


def _job(job_id: str, session_id: str = "sess-x") -> AcceleratorJob:
    return AcceleratorJob(job_id=job_id, session_id=session_id)


def test_jobs_run_in_submission_order():
    scheduler = FleetScheduler(["b0"])
    jobs = [_job(f"j{i}") for i in range(4)]
    for job in jobs:
        scheduler.submit(job)
    order = []
    while True:
        placement = scheduler.acquire()
        if placement is None:
            break
        job, board, warm = placement
        order.append(job.job_id)
        scheduler.release(job, completed=True)
    assert order == ["j0", "j1", "j2", "j3"]


def test_placement_rotates_over_free_boards_and_blocks_when_full():
    scheduler = FleetScheduler(["b0", "b1"])
    for i in range(3):
        scheduler.submit(_job(f"j{i}", session_id=f"s{i}"))
    first, board0, _ = scheduler.acquire()
    second, board1, _ = scheduler.acquire()
    assert (board0, board1) == ("b0", "b1")
    assert scheduler.acquire() is None  # fleet saturated, j2 must wait
    scheduler.release(first, completed=True)
    third, board2, warm = scheduler.acquire()
    assert third.job_id == "j2" and board2 == "b0"
    assert not warm  # different session: b0's resident Shield does not match
    assert scheduler.placement_history["b0"] == ["s0", "s2"]


def test_release_requires_running_job():
    scheduler = FleetScheduler(["b0"])
    job = _job("j0")
    with pytest.raises(SchedulingError):
        scheduler.release(job, completed=True)
    scheduler.submit(job)
    running, _, _ = scheduler.acquire()
    assert running is job
    with pytest.raises(SchedulingError):
        scheduler.submit(job)  # a RUNNING job cannot be re-queued


def test_empty_fleet_is_rejected():
    with pytest.raises(SchedulingError):
        FleetScheduler([])


# ---------------------------------------------------------------------------
# Service-level admission control and board reuse
# ---------------------------------------------------------------------------


def test_unknown_session_cannot_submit():
    service = ShieldCloudService(num_boards=1)
    with pytest.raises(CloudError):
        service.submit_job("sess-9999", inputs={})


def test_closed_session_cannot_submit():
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("alice", accel)
    service.close_session(session.session_id)
    assert session.state is SessionState.CLOSED
    with pytest.raises(SchedulingError):
        service.submit_job(session.session_id, inputs=accel.prepare_inputs())


def test_closing_a_session_cancels_its_queued_jobs():
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    doomed = service.admit_tenant("doomed", accel)
    survivor = service.admit_tenant("survivor", accel)
    doomed_job = service.submit_job(doomed.session_id, inputs=accel.prepare_inputs(seed=1))
    survivor_job = service.submit_job(
        survivor.session_id, inputs=accel.prepare_inputs(seed=2)
    )
    cancelled = service.close_session(doomed.session_id)
    assert cancelled == [doomed_job]
    # A job that never ran is CANCELLED, not FAILED -- and billed as such.
    assert doomed_job.state is JobState.CANCELLED
    assert "session closed" in doomed_job.error
    assert doomed.usage.jobs_cancelled == 1
    assert doomed.usage.jobs_failed == 0
    assert service.stats.jobs_cancelled == 1
    assert service.stats.jobs_failed == 0
    finished = service.run_until_idle()
    assert finished == [survivor_job]
    assert survivor_job.state is JobState.COMPLETED
    # Job conservation: every submission is accounted for exactly once.
    assert service.stats.jobs_submitted == (
        service.stats.jobs_completed
        + service.stats.jobs_failed
        + service.stats.jobs_cancelled
        + service.stats.jobs_rejected
    )


def test_board_is_reused_after_session_teardown():
    service = ShieldCloudService(num_boards=1)
    accel_a = VectorAddAccelerator(8 * 1024)
    accel_b = MatMulAccelerator(32)

    first = service.admit_tenant("first", accel_a)
    job1 = service.submit_job(first.session_id, inputs=accel_a.prepare_inputs(seed=3))
    service.run_until_idle()
    service.close_session(first.session_id)

    # The same physical board must serve a brand-new tenant cleanly: the
    # previous Shield's on-chip allocations and register port are gone.
    board = service.slots["board-0"].board
    assert board.on_chip_memory.used_bytes == 0

    second = service.admit_tenant("second", accel_b)
    job2 = service.submit_job(second.session_id, inputs=accel_b.prepare_inputs(seed=4))
    service.run_until_idle()

    assert job1.state is JobState.COMPLETED
    assert job2.state is JobState.COMPLETED, job2.error
    assert job1.board_name == job2.board_name == "board-0"
    assert service.slots["board-0"].shield_loads == 2
    assert service.scheduler.placement_history["board-0"] == [
        first.session_id,
        second.session_id,
    ]


def test_same_session_runs_many_jobs_on_one_board():
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("looper", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(3)
    ]
    finished = service.run_until_idle()
    assert [j.job_id for j in finished] == [j.job_id for j in jobs]
    assert all(j.state is JobState.COMPLETED for j in jobs)
    assert session.usage.jobs_completed == 3
    assert len(session.job_stats) == 3


def test_dangling_session_id_still_frees_the_board():
    """Regression: the session lookup in run_next_job happens after the board
    is acquired, so a dangling session id used to leave the job RUNNING and
    the board leaked out of the free pool forever."""
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("ghost", accel)
    orphan = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=6))
    # Simulate state corruption / an out-of-band teardown losing the session.
    del service.sessions[session.session_id]

    job = service.run_next_job()
    assert job is orphan
    assert job.state is JobState.FAILED
    assert "no session" in (job.error or "")
    assert service.stats.jobs_failed == 1
    assert service.scheduler.free_boards == 1

    # The freed board serves the next tenant normally.
    other = service.admit_tenant("alive", accel)
    ok = service.submit_job(other.session_id, inputs=accel.prepare_inputs(seed=7))
    service.run_until_idle()
    assert ok.state is JobState.COMPLETED, ok.error


def test_failed_job_frees_the_board():
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("fumble", accel)
    # Garbage input region name makes sealing fail inside job execution.
    bad = service.submit_job(session.session_id, inputs={"no-such-region": b"x"})
    good = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=9))
    service.run_until_idle()
    assert bad.state is JobState.FAILED
    assert bad.error
    assert good.state is JobState.COMPLETED, good.error
    assert session.usage.jobs_failed == 1
    assert session.usage.jobs_completed == 1
    assert service.scheduler.free_boards == 1
