"""Warm-board Shield affinity, eviction, admission control, and history caps.

The serving-layer half of the tentpole: a session's Shield stays resident on
its board between jobs (the ~6.2 s partial-reconfiguration reload is paid
once per session per board, not once per job), while the clean-slate
guarantee across *different* sessions is preserved by explicit eviction --
including at session close and on job failure.
"""

from __future__ import annotations

import pytest

from repro.accelerators import MatMulAccelerator, VectorAddAccelerator
from repro.cloud import AcceleratorJob, FleetScheduler, JobState, ShieldCloudService
from repro.errors import AdmissionError, SchedulingError

ACCEL_BYTES = 8 * 1024


def _service(**kwargs):
    kwargs.setdefault("num_boards", 1)
    return ShieldCloudService(**kwargs)


# ---------------------------------------------------------------------------
# Warm hits skip the reload
# ---------------------------------------------------------------------------


def test_repeated_session_jobs_hit_warm_board():
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("looper", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(3)
    ]
    service.run_until_idle()
    assert [job.state for job in jobs] == [JobState.COMPLETED] * 3
    # One cold load, then warm hits: the Shield never left the board.
    assert [job.warm_start for job in jobs] == [False, True, True]
    assert service.stats.shield_loads == 1
    assert service.stats.affinity_hits == 2
    slot = service.slots["board-0"]
    assert slot.shield_loads == 1
    assert slot.affinity_hits == 2
    assert slot.resident_session == session.session_id
    summary = service.fleet_summary()
    assert summary["affinity_hit_rate"] == pytest.approx(2 / 3)
    # Outputs still verify per job: the datapath was re-keyed, not reused.
    assert all(job.result is not None for job in jobs)


def test_affinity_disabled_reloads_every_job():
    service = _service(affinity=False)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("cold", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(3)
    ]
    service.run_until_idle()
    assert [job.state for job in jobs] == [JobState.COMPLETED] * 3
    assert [job.warm_start for job in jobs] == [False, False, False]
    assert service.stats.shield_loads == 3
    assert service.stats.affinity_hits == 0
    slot = service.slots["board-0"]
    assert slot.resident_session is None
    # Seed behaviour restored: the board is pristine between jobs.
    assert slot.board.on_chip_memory.used_bytes == 0


def test_affinity_placement_sticks_to_the_warm_board():
    """On a two-board fleet a repeated session keeps returning to its board
    even though round-robin rotation would have sent it to the other one."""
    service = _service(num_boards=2)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("sticky", accel)
    jobs = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(4)
    ]
    service.run_until_idle()
    assert {job.board_name for job in jobs} == {"board-0"}
    assert [job.warm_start for job in jobs] == [False, True, True, True]
    assert service.slots["board-1"].shield_loads == 0


# ---------------------------------------------------------------------------
# Eviction: the clean-slate guarantee across sessions
# ---------------------------------------------------------------------------


def test_loading_a_different_session_evicts_the_warm_shield():
    """Satellite: after an affinity hit, a *different* session landing on the
    board must tear the previous Shield down -- allocations freed, register
    port disconnected -- before its own load."""
    service = _service()
    # MatMul's engine set buffers on-chip, so residency is observable in
    # allocation names (VectorAdd's streaming config allocates nothing).
    accel_a = MatMulAccelerator(32)
    accel_b = MatMulAccelerator(32)
    alice = service.admit_tenant("alice", accel_a)
    for seed in range(2):
        service.submit_job(alice.session_id, inputs=accel_a.prepare_inputs(seed=seed))
    service.run_until_idle()
    slot = service.slots["board-0"]
    assert slot.affinity_hits == 1
    assert slot.resident_session == alice.session_id
    alice_allocations = set(slot.board.on_chip_memory.allocation_names())
    assert alice_allocations, "the warm Shield keeps its on-chip state resident"
    assert all(alice.session_id in name for name in alice_allocations)

    # Spy on the Shell: teardown (disconnect) must come before the new
    # session's load (connect), never the other way around.
    shell = slot.board.shell
    events = []
    original_disconnect = shell.disconnect_user_logic
    original_connect = shell.connect_register_slave

    def spy_disconnect():
        events.append("disconnect")
        original_disconnect()

    def spy_connect(handler):
        events.append("connect")
        original_connect(handler)

    shell.disconnect_user_logic = spy_disconnect
    shell.connect_register_slave = spy_connect
    try:
        bob = service.admit_tenant("bob", accel_b)
        job = service.submit_job(bob.session_id, inputs=accel_b.prepare_inputs(seed=7))
        service.run_until_idle()
    finally:
        shell.disconnect_user_logic = original_disconnect
        shell.connect_register_slave = original_connect

    assert job.state is JobState.COMPLETED, job.error
    assert not job.warm_start
    assert events[:2] == ["disconnect", "connect"]
    # Alice's on-chip state is gone; only Bob's Shield is resident now.
    remaining = set(slot.board.on_chip_memory.allocation_names())
    assert not remaining & alice_allocations
    assert all(bob.session_id in name for name in remaining)
    assert slot.resident_session == bob.session_id
    assert slot.evictions >= 1
    assert service.stats.evictions >= 1


def test_failed_job_does_not_leave_a_warm_shield():
    service = _service()
    accel = MatMulAccelerator(32)
    session = service.admit_tenant("fumble", accel)
    good = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=1))
    bad = service.submit_job(session.session_id, inputs={"no-such-region": b"x"})
    after = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=2))
    service.run_until_idle()
    assert good.state is JobState.COMPLETED
    assert bad.state is JobState.FAILED
    assert after.state is JobState.COMPLETED, after.error
    # The bad job was placed warm (same session), but its failure wiped the
    # board -- so the following job had to cold-load.
    assert bad.warm_start is True
    assert after.warm_start is False
    assert service.slots["board-0"].board.on_chip_memory.used_bytes > 0  # after's shield
    assert service.scheduler.free_boards == 1


def test_close_session_cancels_queued_jobs_and_frees_the_warm_shield():
    """Satellite: closing a session cancels its queued jobs *and* evicts any
    warm Shield it still holds on a board."""
    service = _service()
    accel = MatMulAccelerator(32)
    session = service.admit_tenant("leaver", accel)
    ran = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=0))
    service.run_until_idle()
    queued = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=1))
    slot = service.slots["board-0"]
    assert slot.resident_session == session.session_id
    assert slot.board.on_chip_memory.used_bytes > 0

    cancelled = service.close_session(session.session_id)

    assert ran.state is JobState.COMPLETED
    assert cancelled == [queued]
    assert queued.state is JobState.CANCELLED
    assert session.usage.jobs_cancelled == 1
    # The warm Shield is gone with the session: allocations freed, no residency.
    assert slot.resident_session is None
    assert slot.shield is None
    assert slot.board.on_chip_memory.used_bytes == 0
    assert service.scheduler.boards_resident_for(session.session_id) == []
    # And nothing dangles: the queue drains to nothing.
    assert service.run_until_idle() == []


# ---------------------------------------------------------------------------
# Admission control / backpressure
# ---------------------------------------------------------------------------


def test_fleet_queue_cap_rejects_overflow():
    service = _service(queue_cap=2)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("flood", accel)
    accepted = [
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
        for seed in range(2)
    ]
    rejected = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=9))
    assert rejected.state is JobState.REJECTED
    assert "queue is full" in rejected.error
    assert service.stats.jobs_rejected == 1
    assert session.usage.jobs_rejected == 1
    service.run_until_idle()
    assert [job.state for job in accepted] == [JobState.COMPLETED] * 2
    # A rejected job never runs and never resurfaces.
    assert rejected.state is JobState.REJECTED
    assert rejected.result is None
    # Conservation across all terminal states.
    assert service.stats.jobs_submitted == (
        service.stats.jobs_completed
        + service.stats.jobs_failed
        + service.stats.jobs_cancelled
        + service.stats.jobs_rejected
    )
    # Draining the queue reopens admission.
    retry = service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=9))
    assert retry.state is JobState.QUEUED


def test_scheduler_level_admission_raises():
    scheduler = FleetScheduler(["b0"], queue_cap=1)
    scheduler.submit(AcceleratorJob(job_id="j0", session_id="s", tenant="t"))
    overflow = AcceleratorJob(job_id="j1", session_id="s", tenant="t")
    with pytest.raises(AdmissionError):
        scheduler.submit(overflow)
    assert overflow.state is JobState.REJECTED
    # The rejected job never entered the queue.
    assert scheduler.pending_jobs == 1
    with pytest.raises(SchedulingError):
        FleetScheduler(["b0"], queue_cap=0)


# ---------------------------------------------------------------------------
# Placement history is bounded
# ---------------------------------------------------------------------------


def test_placement_history_is_ring_buffered_with_exact_totals():
    """Satellite: under sustained traffic the per-board history keeps only a
    bounded recent tail, while lifetime totals stay exact."""
    scheduler = FleetScheduler(["b0"], history_limit=3)
    for index in range(7):
        job = AcceleratorJob(job_id=f"j{index}", session_id=f"s{index}")
        scheduler.submit(job)
        placed, board, _ = scheduler.acquire()
        scheduler.release(placed, completed=True)
    assert scheduler.placement_history["b0"] == ["s4", "s5", "s6"]
    assert scheduler.placement_totals["b0"] == 7


def test_service_history_limit_threads_through_to_fleet_summary():
    service = _service(history_limit=2, affinity=False)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("busy", accel)
    for seed in range(5):
        service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=seed))
    service.run_until_idle()
    summary = service.fleet_summary()
    board = summary["boards"]["board-0"]
    assert board["sessions"] == [session.session_id] * 2  # ring tail only
    assert board["placements_total"] == 5  # exact lifetime count
    assert summary["tenants"]["busy"]["jobs_completed"] == 5
    assert summary["tenants"]["busy"]["completed_share"] == 1.0
