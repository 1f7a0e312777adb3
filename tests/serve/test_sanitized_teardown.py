"""Drain and eviction under the runtime sanitizer (``repro.analysis``).

With the sanitizer armed, every ``@loop_owned`` service and scheduler method
thread-binds to the event loop at first touch, so these tests prove the
serving path's division of labor dynamically: executor threads never mutate
scheduler state (a violation would fail the job with
:class:`~repro.analysis.sanitizer.SanitizerError`), and shutdown leaves no
warm board behind.

Same driving idiom as ``test_frontend.py``: no pytest-asyncio in the image,
so each test runs its coroutine with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.accelerators import VectorAddAccelerator
from repro.analysis import sanitizer
from repro.cloud import JobState, ShieldCloudService
from repro.serve import AsyncShieldFrontend

ACCEL_BYTES = 8 * 1024


@pytest.fixture
def sanitize():
    sanitizer.enable()
    yield
    sanitizer.disable()


def _service(**kwargs):
    kwargs.setdefault("num_boards", 2)
    return ShieldCloudService(**kwargs)


def _accel():
    return VectorAddAccelerator(ACCEL_BYTES)


def test_drain_completes_without_executor_side_violations(sanitize):
    """Executor threads run jobs to completion without ever touching
    loop-owned scheduler state; a violation would surface as a failed job."""
    service = _service()
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            futures = [
                frontend.submit_nowait(
                    session.session_id, inputs=accel.prepare_inputs(seed=seed)
                )
                for seed in range(4)
            ]
            await frontend.drain()
            assert frontend.pending_futures == 0
            return await asyncio.gather(*futures)

    jobs = asyncio.run(main())
    assert [job.state for job in jobs] == [JobState.COMPLETED] * 4
    assert all(job.error is None for job in jobs)


def test_shutdown_leaves_no_warm_board(sanitize):
    """After shutdown every slot is cold: no resident Shield, no residency
    bookkeeping, all boards back in the scheduler's free pool."""
    service = _service()
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            await frontend.submit(
                session.session_id, inputs=accel.prepare_inputs(seed=1)
            )
            # Warm affinity keeps the Shield resident between jobs...
            assert any(slot.shield is not None for slot in service.slots.values())

    asyncio.run(main())
    # ...but the shutdown eviction sweep leaves the fleet cold.
    for slot in service.slots.values():
        assert slot.shield is None
        assert slot.resident_session is None
    assert service.scheduler.free_boards == 2


def test_evict_idle_shields_is_loop_side_and_idempotent(sanitize):
    service = _service()
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            await frontend.submit(
                session.session_id, inputs=accel.prepare_inputs(seed=2)
            )
            warm = sum(1 for slot in service.slots.values() if slot.shield is not None)
            # The sweep runs fine from the owning (loop) thread...
            assert service.evict_idle_shields() == warm >= 1
            assert service.evict_idle_shields() == 0

    asyncio.run(main())


def test_cross_thread_eviction_is_rejected(sanitize):
    """The sanitizer enforces the confinement invariant directly: a foreign
    thread (what an executor worker would be) may not run the eviction sweep."""
    service = _service()
    accel = _accel()

    async def main():
        session = service.admit_tenant("alice", accel)
        async with AsyncShieldFrontend(service) as frontend:
            await frontend.submit(
                session.session_id, inputs=accel.prepare_inputs(seed=3)
            )

        failures = []

        def rogue_eviction():
            try:
                service.evict_idle_shields()
            except sanitizer.SanitizerError as exc:
                failures.append(exc)

        thread = threading.Thread(target=rogue_eviction)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "evict_idle_shields" in str(failures[0])
        # The rogue call must not have torn anything down half-way: the loop
        # thread can still run the sweep (shutdown already emptied the fleet).
        assert service.evict_idle_shields() == 0

    asyncio.run(main())
