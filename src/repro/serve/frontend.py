"""The asyncio serving front-end over :class:`ShieldCloudService`.

:class:`AsyncShieldFrontend` turns the synchronous, caller-driven replay
harness (``submit_job`` + hand-cranked ``run_next_job``) into a service loop
that accepts concurrent tenant request streams and returns *awaitable job
futures*:

* **Concurrency model.**  The event loop owns every piece of shared
  scheduling state -- the :class:`~repro.cloud.scheduler.FleetScheduler`
  queue, the live-job maps, ``_submit_ts`` -- and only the job *body*
  (Shield load, input seal, execute, download, unseal: the numpy crypto) is
  moved onto a thread-pool executor, one worker per board.  A job therefore
  overlaps its crypto with other boards' work while admission, placement,
  and completion bookkeeping stay single-threaded (the service's
  ``begin_next_job`` / ``execute_placed`` / ``finish_placed`` split exists
  for exactly this).
* **One in-flight job per board, one per session.**  Boards serialize
  naturally (a board is acquired until released).  Sessions are additionally
  serialized by an eligibility predicate on the scheduler: two concurrent
  jobs of one session would race on the session's per-job key rotation
  (Data Encryption Key + wrapped Load Key), so a session's next job waits
  until its previous one finishes -- which also pins a session to its warm
  board, preserving the affinity behaviour of the synchronous drain.
* **Backpressure.**  Per-tenant token buckets (:mod:`repro.serve.ratelimit`)
  and a queue-depth load-shed bound layer on top of the scheduler's
  admission control (its fleet queue cap).  Every refusal -- rate limit,
  shed, fleet queue cap, post-shutdown submit -- resolves the caller's
  future with a job in ``JobState.REJECTED`` carrying the reason;
  backpressure is never an exception.
* **Observability.**  Each accepted job gets an ``enqueue`` span
  (front-end admission -> scheduler queue) and an ``executor_handoff`` span
  (placed on the loop -> body starts on a worker thread) in addition to the
  PR 6 lifecycle spans; refusals land as ``ratelimited`` / ``shed`` marks
  and ``cloud.jobs_ratelimited`` / ``cloud.jobs_shed`` lifetime counters.
* **Drain and shutdown.**  :meth:`drain` awaits quiescence;
  :meth:`shutdown` stops intake, either drains or cancels the queue
  (cancelled futures resolve with ``JobState.CANCELLED`` jobs), waits for
  in-flight work, and evicts every warm Shield so no tenant key material
  stays resident on hardware.

Usage::

    service = ShieldCloudService(num_boards=4)
    async with AsyncShieldFrontend(service, rate_limit=50.0) as frontend:
        session = service.admit_tenant("alice", accelerator)
        job = await frontend.submit(session.session_id, inputs=inputs)
        if job.state is JobState.REJECTED:
            ...  # backpressure: slow down and retry
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.annotations import executor_side
from repro.cloud.scheduler import JobState
from repro.cloud.service import PlacedJob, ShieldCloudService
from repro.errors import CloudError
from repro.serve.ratelimit import TokenBucket


class AsyncShieldFrontend:
    """Serve concurrent tenant request streams over a ShieldCloudService."""

    def __init__(
        self,
        service: ShieldCloudService,
        rate_limit: float | None = None,
        burst: float | None = None,
        max_pending: int | None = None,
        clock=None,
        executor: ThreadPoolExecutor | None = None,
    ):
        """``rate_limit`` is the default per-tenant submission rate in
        jobs/second (``None`` disables rate limiting); ``burst`` the bucket
        capacity (see :class:`TokenBucket`).  ``max_pending`` sheds any
        submission that would push the scheduler's pending queue beyond this
        depth (``None`` leaves shedding to the service's own ``queue_cap``).
        ``clock`` feeds the token buckets (tests pass a fake).  ``executor``
        overrides the default one-thread-per-board pool (the front-end owns
        and shuts down the default; a caller-provided executor is left
        running)."""
        if max_pending is not None and max_pending < 1:
            raise CloudError("max_pending must be positive (or None)")
        self.service = service
        self.rate_limit = rate_limit
        self.burst = burst
        self.max_pending = max_pending
        self._clock = clock
        self._executor = executor or ThreadPoolExecutor(
            max_workers=len(service.slots), thread_name_prefix="shield-board"
        )
        self._own_executor = executor is None
        self._buckets: dict = {}
        #: job id -> the caller-facing future for every accepted live job.
        self._futures: dict = {}
        #: session id -> job future of that session's in-flight job.
        self._inflight: dict = {}
        #: sessions being closed: their queued jobs must not start.
        self._closing: set = set()
        self._closed = False

    # -- context management -------------------------------------------------------

    async def __aenter__(self) -> "AsyncShieldFrontend":
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.shutdown(drain=exc == (None, None, None))
        return False

    # -- rate limiting ------------------------------------------------------------

    def set_rate_limit(self, tenant: str, rate: float, burst: float | None = None):
        """Install a tenant-specific token bucket (overrides the default)."""
        self._buckets[tenant] = TokenBucket(rate, burst, clock=self._clock)
        return self._buckets[tenant]

    def _bucket(self, tenant: str) -> TokenBucket | None:
        bucket = self._buckets.get(tenant)
        if bucket is None and self.rate_limit is not None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.rate_limit, self.burst, clock=self._clock
            )
        return bucket

    # -- submission ---------------------------------------------------------------

    async def submit(self, session_id: str, **kwargs):
        """Submit and await the finished job (see :meth:`submit_nowait`)."""
        return await self.submit_nowait(session_id, **kwargs)

    def submit_nowait(self, session_id: str, **kwargs) -> "asyncio.Future":
        """Admit one job and return a future resolving to its terminal
        :class:`~repro.cloud.scheduler.AcceleratorJob`.

        The future *always* resolves with a job -- REJECTED on backpressure
        (rate limit, load shed, admission control, shutdown), CANCELLED if
        the session closes or the front-end shuts down first, COMPLETED /
        FAILED after execution.  Unknown or closed sessions raise exactly
        like the synchronous ``submit_job`` (caller bugs, not backpressure).

        Must be called on the event loop thread.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        service = self.service
        enqueue_start = service.now()
        session = service.sessions.get(session_id)
        tenant = session.tenant if session is not None else None

        def refuse(reason: str, kind: str) -> "asyncio.Future":
            job = service.reject_job(session_id, reason, kind=kind)
            service.tracer.record_span(
                "enqueue",
                enqueue_start,
                service.now() - enqueue_start,
                tenant=tenant,
                session=session_id,
                job=job.job_id,
                outcome=kind,
            )
            future.set_result(job)
            return future

        if self._closed:
            return refuse("front-end is shut down", kind="shed")
        bucket = self._bucket(tenant) if tenant is not None else None
        if bucket is not None and not bucket.try_take():
            return refuse(
                f"tenant {tenant!r} exceeded its submission rate "
                f"({bucket.rate:g}/s, burst {bucket.burst:g})",
                kind="ratelimited",
            )
        if (
            self.max_pending is not None
            and service.scheduler.pending_jobs >= self.max_pending
        ):
            return refuse(
                f"front-end queue is full ({self.max_pending} job(s) pending)",
                kind="shed",
            )
        job = service.submit_job(session_id, **kwargs)
        service.tracer.record_span(
            "enqueue",
            enqueue_start,
            service.now() - enqueue_start,
            tenant=job.tenant,
            session=session_id,
            job=job.job_id,
            outcome="rejected" if job.state is JobState.REJECTED else "queued",
        )
        if job.state is JobState.REJECTED:
            # The scheduler's admission control (the fleet queue cap): an
            # outcome, never an exception on the await.
            future.set_result(job)
            return future
        self._futures[job.job_id] = future
        self._pump(loop)
        return future

    # -- the service loop ---------------------------------------------------------

    def _eligible(self, job) -> bool:
        return (
            job.session_id not in self._inflight
            and job.session_id not in self._closing
        )

    def _pump(self, loop) -> None:
        """Place every currently runnable job (one per free board)."""
        while True:
            placed = self.service.begin_next_job(eligible=self._eligible)
            if placed is None:
                return
            job_future = self._futures.get(placed.job.job_id)
            if job_future is not None:
                self._inflight[placed.job.session_id] = job_future
            handoff_start = self.service.now()
            worker = loop.run_in_executor(
                self._executor, self._run_body, placed, handoff_start
            )
            worker.add_done_callback(
                lambda done, placed=placed: self._on_done(loop, placed, done)
            )

    @executor_side
    def _run_body(self, placed: PlacedJob, handoff_start: float) -> None:
        """Executor-thread entry: stamp the handoff span, run the job body."""
        service = self.service
        service.tracer.record_span(
            "executor_handoff",
            handoff_start,
            service.now() - handoff_start,
            tenant=placed.job.tenant,
            session=placed.job.session_id,
            job=placed.job.job_id,
            board=placed.slot.name,
        )
        service.execute_placed(placed)

    def _on_done(self, loop, placed: PlacedJob, worker) -> None:
        """Loop-side completion: finalize bookkeeping, resolve, re-pump."""
        error = worker.exception()
        self.service.finish_placed(placed, error)
        self._inflight.pop(placed.job.session_id, None)
        job_future = self._futures.pop(placed.job.job_id, None)
        if job_future is not None and not job_future.done():
            job_future.set_result(placed.job)
        self._pump(loop)

    # -- session and service teardown ---------------------------------------------

    async def close_session(self, session_id: str) -> list:
        """Close a tenant session from the serving path.

        Waits for the session's in-flight job (its board cannot be evicted
        mid-execution), blocks its queued jobs from starting meanwhile, then
        runs the service's teardown -- queued jobs cancel, warm Shields are
        evicted -- and resolves the cancelled jobs' futures.
        """
        self._closing.add(session_id)
        try:
            while session_id in self._inflight:
                await asyncio.shield(self._inflight[session_id])
            cancelled = self.service.close_session(session_id)
            self._resolve_cancelled(cancelled)
            return cancelled
        finally:
            self._closing.discard(session_id)

    def _resolve_cancelled(self, cancelled: list) -> None:
        for job in cancelled:
            job_future = self._futures.pop(job.job_id, None)
            if job_future is not None and not job_future.done():
                job_future.set_result(job)

    async def drain(self) -> None:
        """Wait until no submitted job is queued or in flight."""
        while self._futures:
            await asyncio.wait(list(self._futures.values()))

    async def shutdown(self, drain: bool = True) -> None:
        """Stop intake and wind the fleet down to cold, idle boards.

        ``drain=True`` finishes all accepted work first; ``drain=False``
        cancels everything still queued (their futures resolve with
        ``JobState.CANCELLED`` jobs) and only waits for in-flight jobs.
        Either way every warm Shield is evicted afterwards, so no tenant key
        material stays resident, and subsequent submits resolve REJECTED.
        Idempotent.
        """
        self._closed = True
        if not drain:
            cancelled = self.service.cancel_queued_jobs(
                reason="front-end shut down before the job was scheduled"
            )
            self._resolve_cancelled(cancelled)
        await self.drain()
        self.service.evict_idle_shields()
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # -- introspection ------------------------------------------------------------

    @property
    def inflight_jobs(self) -> int:
        return len(self._inflight)

    @property
    def pending_futures(self) -> int:
        """Accepted jobs not yet resolved (queued + in flight)."""
        return len(self._futures)
