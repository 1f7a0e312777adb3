"""The asyncio front-end: futures, backpressure, serialization, teardown.

No pytest-asyncio in the image, so every test drives its coroutine with
``asyncio.run`` from a plain sync function -- the loop is private to the
test, which also keeps the executor threads from leaking across tests.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.obs as obs_api
from repro.accelerators import MatMulAccelerator, VectorAddAccelerator
from repro.cloud import JobState, ShieldCloudService
from repro.errors import CloudError
from repro.serve import AsyncShieldFrontend

ACCEL_BYTES = 8 * 1024


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def obs():
    with obs_api.scoped() as handle:
        yield handle


def _service(**kwargs):
    kwargs.setdefault("num_boards", 2)
    return ShieldCloudService(**kwargs)


def _accel():
    return VectorAddAccelerator(ACCEL_BYTES)


def test_concurrent_streams_complete_with_results():
    service = _service()
    accel = _accel()

    async def main():
        alice = service.admit_tenant("alice", accel)
        bob = service.admit_tenant("bob", MatMulAccelerator(32))
        async with AsyncShieldFrontend(service) as frontend:
            futures = []
            for seed in range(3):
                futures.append(
                    frontend.submit_nowait(
                        alice.session_id, inputs=accel.prepare_inputs(seed=seed)
                    )
                )
                futures.append(
                    frontend.submit_nowait(
                        bob.session_id,
                        inputs=MatMulAccelerator(32).prepare_inputs(seed=seed),
                    )
                )
            jobs = await asyncio.gather(*futures)
            assert frontend.pending_futures == 0
            assert frontend.inflight_jobs == 0
        return jobs

    jobs = asyncio.run(main())
    assert [job.state for job in jobs] == [JobState.COMPLETED] * 6
    assert all(job.result is not None for job in jobs)
    assert service.stats.jobs_completed == 6
    # No lifecycle state leaks after the async path either.
    assert service.jobs == {}
    assert service._submit_ts == {}
    assert service.scheduler.free_boards == 2


def test_await_submit_returns_the_finished_job():
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            return await frontend.submit(
                session.session_id, inputs=accel.prepare_inputs(seed=1)
            )

    job = asyncio.run(main())
    assert job.state is JobState.COMPLETED
    assert job.result is not None


def test_rate_limited_submission_resolves_rejected(obs):
    clock = FakeClock()
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(
            service, rate_limit=1.0, burst=1.0, clock=clock
        ) as frontend:
            first = frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=0)
            )
            second = frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=1)
            )
            # The bucket refills while the first job runs: a later submit
            # from the same tenant is admitted again.
            clock.advance(1.0)
            third = frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=2)
            )
            return await asyncio.gather(first, second, third)

    first, second, third = asyncio.run(main())
    assert first.state is JobState.COMPLETED
    assert second.state is JobState.REJECTED
    assert "submission rate" in second.error
    assert third.state is JobState.COMPLETED
    assert service.stats.jobs_rejected == 1
    assert service.stats.jobs_ratelimited == 1
    assert service.fleet_summary()["jobs_ratelimited"] == 1
    # The refusal is visible on the trace stream: a mark plus the enqueue
    # span with a ratelimited outcome.
    marks = [e for e in obs.tracer.events if e.kind == "mark" and e.name == "ratelimited"]
    assert len(marks) == 1
    assert marks[0].tenant == "alice"
    enqueues = obs.tracer.spans("enqueue")
    assert [e.attrs["outcome"] for e in enqueues] == ["queued", "ratelimited", "queued"]


def test_queue_depth_load_shed(obs):
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        other = service.admit_tenant("bob", accel)
        async with AsyncShieldFrontend(service, max_pending=1) as frontend:
            futures = [
                frontend.submit_nowait(
                    session.session_id, inputs=accel.prepare_inputs(seed=0)
                ),  # placed immediately (board free), queue stays empty
                frontend.submit_nowait(
                    other.session_id, inputs=accel.prepare_inputs(seed=1)
                ),  # queued: depth 1 == max_pending
                frontend.submit_nowait(
                    session.session_id, inputs=accel.prepare_inputs(seed=2)
                ),  # shed
            ]
            return await asyncio.gather(*futures)

    first, second, third = asyncio.run(main())
    assert first.state is JobState.COMPLETED
    assert second.state is JobState.COMPLETED
    assert third.state is JobState.REJECTED
    assert "queue is full" in third.error
    assert service.stats.jobs_shed == 1
    assert service.fleet_summary()["jobs_shed"] == 1
    sheds = [e for e in obs.tracer.events if e.kind == "mark" and e.name == "shed"]
    assert len(sheds) == 1


def test_rejections_never_raise_on_await():
    # PR 5 admission control through the async path: queue_cap overflow
    # resolves the future with a REJECTED job exactly like the sync submit.
    service = _service(num_boards=1, queue_cap=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        other = service.admit_tenant("bob", accel)
        async with AsyncShieldFrontend(service) as frontend:
            futures = [
                frontend.submit_nowait(
                    session.session_id, inputs=accel.prepare_inputs(seed=seed)
                )
                for seed in range(2)
            ]
            futures.append(
                frontend.submit_nowait(
                    other.session_id, inputs=accel.prepare_inputs(seed=9)
                )
            )
            return await asyncio.gather(*futures)

    jobs = asyncio.run(main())
    states = [job.state for job in jobs]
    assert states.count(JobState.REJECTED) == 1
    assert service.stats.jobs_rejected == 1


def test_unknown_session_still_raises():
    service = _service(num_boards=1)

    async def main():
        async with AsyncShieldFrontend(service) as frontend:
            with pytest.raises(CloudError):
                frontend.submit_nowait("sess-9999", inputs={})

    asyncio.run(main())


def test_failed_job_resolves_without_raising():
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            bad = frontend.submit_nowait(
                session.session_id, inputs={"no-such-region": b"x"}
            )
            good = frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=3)
            )
            return await asyncio.gather(bad, good)

    bad, good = asyncio.run(main())
    assert bad.state is JobState.FAILED
    assert bad.error
    assert good.state is JobState.COMPLETED, good.error
    assert service.stats.jobs_failed == 1
    assert service.scheduler.free_boards == 1


def test_session_jobs_are_serialized_and_pinned():
    # One session, two boards: per-session serialization means its jobs can
    # never overlap, so they all land warm on the board that loaded the
    # Shield -- the second board is never touched.
    service = _service(num_boards=2)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            futures = [
                frontend.submit_nowait(
                    session.session_id, inputs=accel.prepare_inputs(seed=seed)
                )
                for seed in range(3)
            ]
            return await asyncio.gather(*futures)

    jobs = asyncio.run(main())
    assert all(job.state is JobState.COMPLETED for job in jobs)
    boards = {job.board_name for job in jobs}
    assert len(boards) == 1
    assert service.stats.shield_loads == 1
    assert service.stats.affinity_hits == 2


def test_shutdown_without_drain_cancels_queued_jobs():
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        other = service.admit_tenant("bob", accel)
        frontend = AsyncShieldFrontend(service)
        futures = [
            frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=0)
            ),  # in flight
            frontend.submit_nowait(
                other.session_id, inputs=accel.prepare_inputs(seed=1)
            ),  # queued -> cancelled
            frontend.submit_nowait(
                session.session_id, inputs=accel.prepare_inputs(seed=2)
            ),  # queued -> cancelled
        ]
        await frontend.shutdown(drain=False)
        jobs = await asyncio.gather(*futures)
        late = await frontend.submit(
            session.session_id, inputs=accel.prepare_inputs(seed=3)
        )
        return jobs, late

    (first, second, third), late = asyncio.run(main())
    assert first.state is JobState.COMPLETED  # in-flight work always finishes
    assert second.state is JobState.CANCELLED
    assert third.state is JobState.CANCELLED
    assert "shut down" in second.error
    # Post-shutdown intake resolves REJECTED -- never an exception.
    assert late.state is JobState.REJECTED
    assert service.stats.jobs_cancelled == 2
    # The drain left the fleet cold: no resident Shields, all boards free.
    assert service.scheduler.free_boards == 1
    assert all(slot.resident_session is None for slot in service.slots.values())
    # Cancelled-before-scheduled jobs leave no submit-timestamp residue.
    assert service._submit_ts == {}
    assert service.jobs == {}


def test_graceful_shutdown_evicts_warm_shields(obs):
    service = _service(num_boards=2)
    accel = _accel()

    async def main():
        alice = service.admit_tenant("alice", accel)
        bob = service.admit_tenant("bob", accel)
        async with AsyncShieldFrontend(service) as frontend:
            await asyncio.gather(
                frontend.submit_nowait(
                    alice.session_id, inputs=accel.prepare_inputs(seed=0)
                ),
                frontend.submit_nowait(
                    bob.session_id, inputs=accel.prepare_inputs(seed=1)
                ),
            )
            # Both Shields are still warm while the front-end is serving.
            assert sum(
                1 for slot in service.slots.values() if slot.resident_session
            ) == 2

    asyncio.run(main())
    assert all(slot.resident_session is None for slot in service.slots.values())
    assert len(obs.tracer.security_events("eviction")) == 2


def test_close_session_waits_for_inflight_and_cancels_queued():
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        doomed = service.admit_tenant("doomed", accel)
        survivor = service.admit_tenant("survivor", accel)
        async with AsyncShieldFrontend(service) as frontend:
            running = frontend.submit_nowait(
                doomed.session_id, inputs=accel.prepare_inputs(seed=0)
            )
            queued = frontend.submit_nowait(
                doomed.session_id, inputs=accel.prepare_inputs(seed=1)
            )
            keep = frontend.submit_nowait(
                survivor.session_id, inputs=accel.prepare_inputs(seed=2)
            )
            cancelled = await frontend.close_session(doomed.session_id)
            return (
                await running,
                await queued,
                await keep,
                cancelled,
            )

    running, queued, keep, cancelled = asyncio.run(main())
    # The in-flight job finished before teardown touched its board...
    assert running.state is JobState.COMPLETED
    # ...the still-queued one was cancelled and its future resolved...
    assert queued.state is JobState.CANCELLED
    assert [job.job_id for job in cancelled] == [queued.job_id]
    # ...and the other tenant was undisturbed.
    assert keep.state is JobState.COMPLETED, keep.error
    assert service.stats.jobs_cancelled == 1
    assert service.scheduler.free_boards == 1


def test_shutdown_is_idempotent():
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        frontend = AsyncShieldFrontend(service)
        job = await frontend.submit(
            session.session_id, inputs=accel.prepare_inputs(seed=0)
        )
        await frontend.shutdown()
        await frontend.shutdown(drain=False)
        return job

    job = asyncio.run(main())
    assert job.state is JobState.COMPLETED


def test_invalid_max_pending_rejected():
    service = _service(num_boards=1)
    with pytest.raises(CloudError):
        AsyncShieldFrontend(service, max_pending=0)


def test_per_tenant_rate_limit_override():
    clock = FakeClock()
    service = _service(num_boards=1)
    accel = _accel()

    async def main():
        alice = service.admit_tenant("alice", accel)
        bob = service.admit_tenant("bob", accel)
        async with AsyncShieldFrontend(
            service, rate_limit=100.0, clock=clock
        ) as frontend:
            frontend.set_rate_limit("bob", rate=1.0, burst=1.0)
            futures = [
                frontend.submit_nowait(
                    alice.session_id, inputs=accel.prepare_inputs(seed=seed)
                )
                for seed in range(2)
            ]
            futures += [
                frontend.submit_nowait(
                    bob.session_id, inputs=accel.prepare_inputs(seed=seed)
                )
                for seed in range(2)
            ]
            return await asyncio.gather(*futures)

    jobs = asyncio.run(main())
    by_tenant = {}
    for job in jobs:
        by_tenant.setdefault(job.tenant, []).append(job.state)
    assert by_tenant["alice"] == [JobState.COMPLETED] * 2
    assert by_tenant["bob"] == [JobState.COMPLETED, JobState.REJECTED]
