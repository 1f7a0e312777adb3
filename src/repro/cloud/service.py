"""The multi-tenant Shield serving layer.

:class:`ShieldCloudService` plays the CSP: it owns a fleet of FPGA boards and
admits many concurrent tenant sessions, each with its own Data Owner, Load
Key, and Shield configuration.  Jobs are queued through a deterministic
policy-driven scheduler (FIFO / priority / weighted fair-share /
shortest-job-first -- the same :mod:`repro.cloud.policies` core that drives
the timed :class:`~repro.sim.cloud.CloudSimulator`) and executed by
time-multiplexing Shields onto free boards:

1. **admit** -- the tenant picks an accelerator; the service mints a
   session-scoped Shield key pair and the tenant wraps a fresh Data
   Encryption Key against it (the Load Key).
2. **load** -- when a job is placed, the session's Shield is instantiated on
   the assigned board and the untrusted host runtime forwards the Load Key.
3. **run** -- inputs are sealed *by the tenant's Data Owner*, DMA-ed in as
   ciphertext, the accelerator executes behind the Shield, and outputs come
   back sealed; the service then unseals them on the tenant's behalf with the
   tenant's own key ring (never a shared key).
4. **teardown** -- with warm-board affinity (the default) a successful job
   leaves its session's Shield *resident* on the board, so the next job of
   the same session skips the teardown+reload (the paper's ~6.2 s partial
   reconfiguration) entirely -- the datapath is still re-keyed per job.  A
   different session landing on the board, a job failure, a closed session,
   or ``affinity=False`` evicts the Shield first (on-chip allocations freed,
   register port disconnected) so the next tenant gets a clean slate.

Isolation is structural, not policed: every byte that crosses the host is
ciphertext under a per-session key, so even a malicious
:class:`~repro.host.runtime.ShefHostRuntime` or a board-sharing neighbour
observes nothing.  :meth:`ShieldCloudService.plaintext_exposures` lets tests
and demos audit the service-wide host ledger for leaks, and
:meth:`job_result` refuses to hand one tenant another tenant's outputs.

Every job also leaves a full lifecycle trail on the observability stream
(:mod:`repro.obs`): per-stage spans (``queue``/``place``/``shield_load``/
``input_seal``/``execute``/``download``/``output_unseal``), a queue-depth
gauge, and security events (DMA-tap observations, MAC failures, warm-Shield
evictions, attack detections).  All service counters -- ``stats``, the
per-board numbers in :meth:`fleet_summary`, and :class:`BoardSlot`'s
load/hit/eviction counts -- are *views over the metrics registry*, so the
dashboard can never drift from the event stream.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import repro.obs as obs_api
from repro.analysis.annotations import executor_side, loop_owned
from repro.accelerators.base import ShieldMemoryAdapter
from repro.attestation.data_owner import DataOwner
from repro.cloud.scheduler import (
    DEFAULT_HISTORY_LIMIT,
    AcceleratorJob,
    FleetScheduler,
    JobState,
)
from repro.cloud.tenant import SessionState, TenantSession
from repro.core.config import ShieldConfig
from repro.core.shield import Shield
from repro.crypto.rsa import RsaPrivateKey
from repro.errors import (
    AdmissionError,
    CloudError,
    IntegrityError,
    SchedulingError,
    TenantIsolationError,
)
from repro.host.runtime import ShefHostRuntime
from repro.hw.board import BoardModel, FpgaBoard, make_board
from repro.obs.metrics import MetricsRegistry


class BoardSlot:
    """One board of the fleet plus its serving-side bookkeeping.

    The load/hit/eviction counts are read-only views over the service's
    metrics registry (labelled by board), so the per-board numbers shown in
    :meth:`ShieldCloudService.fleet_summary` and the per-event trace stream
    share one source of truth.
    """

    def __init__(self, name: str, board: FpgaBoard, metrics: MetricsRegistry):
        self.name = name
        self.board = board
        self._metrics = metrics
        #: Session currently loaded on the board (None between jobs).
        self.active_session: str | None = None
        #: The warm Shield left resident between jobs (affinity), if any.
        self.shield: Shield | None = None
        #: Session the resident Shield belongs to.
        self.resident_session: str | None = None

    @property
    def shield_loads(self) -> int:
        return int(self._metrics.counter("cloud.shield_loads", board=self.name).value)

    @property
    def affinity_hits(self) -> int:
        return int(self._metrics.counter("cloud.affinity_hits", board=self.name).value)

    @property
    def evictions(self) -> int:
        return int(self._metrics.counter("cloud.evictions", board=self.name).value)


@dataclass
class HostObservation:
    """One entry of the service-wide host ledger: who moved which blob."""

    session_id: str
    board_name: str
    entry: tuple


@dataclass
class PlacedJob:
    """A job acquired from the scheduler and attributed, but not yet executed.

    The handle :meth:`ShieldCloudService.begin_next_job` returns and
    :meth:`ShieldCloudService.execute_placed` / :meth:`finish_placed`
    consume.  The synchronous :meth:`run_next_job` drives all three inline;
    the async front-end (:mod:`repro.serve`) runs ``execute_placed`` on an
    executor thread while ``begin``/``finish`` stay on the event loop, so the
    scheduler and the job maps are only ever mutated from one thread.
    """

    job: AcceleratorJob
    slot: BoardSlot
    warm: bool
    #: Tracer timestamp the job entered the queue (feeds the ``job`` span).
    queue_start: float


class CloudServiceStats:
    """Service-wide counters (the CSP's dashboard).

    A read-only view over the metrics registry: each attribute sums the
    matching counter across every label set, so these totals, the per-board
    numbers, and the Prometheus dump can never disagree.
    """

    _FIELDS = (
        "sessions_admitted",
        "sessions_closed",
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "jobs_cancelled",
        "jobs_rejected",
        "jobs_ratelimited",
        "jobs_shed",
        "jobs_retired",
        "shield_loads",
        "affinity_hits",
        "evictions",
    )

    def __init__(self, metrics: MetricsRegistry):
        self._metrics = metrics

    def __getattr__(self, name: str) -> int:
        if name in CloudServiceStats._FIELDS:
            return int(self._metrics.counter_total(f"cloud.{name}"))
        raise AttributeError(name)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)}" for name in self._FIELDS)
        return f"CloudServiceStats({body})"


class ShieldCloudService:
    """Hosts a board fleet and serves many tenant sessions concurrently."""

    def __init__(
        self,
        num_boards: int = 2,
        board_model: BoardModel | str = BoardModel.AWS_F1,
        fast_crypto: bool = True,
        ledger_limit: int | None = None,
        policy="fifo",
        affinity: bool = True,
        queue_cap: int | None = None,
        history_limit: int | None = None,
        job_retention: int | None = 1024,
        obs=None,
    ):
        """``ledger_limit`` bounds the host-observation ledger (oldest entries
        are evicted first).  The default keeps everything, which is what the
        isolation tests and demos want -- the ledger stores every DMA'd blob
        verbatim, so a long-lived service should set a limit and audit
        incrementally.

        ``policy`` names a :mod:`~repro.cloud.policies` scheduling policy
        (``fifo``/``priority``/``fair``/``sjf``); ``affinity`` keeps a
        session's Shield warm on its board between jobs so repeated-tenant
        traffic skips the teardown+reload; ``queue_cap`` bounds the pending
        queue fleet-wide (a job submitted to a full queue comes back as
        ``JobState.REJECTED``); ``history_limit`` caps each board's
        placement-history ring (None uses the scheduler default).  Boards
        carry the serials ``cloud-fpga-0000``, ``cloud-fpga-0001``, ...

        ``job_retention`` bounds how many *terminal* jobs (COMPLETED /
        FAILED / CANCELLED / REJECTED) stay reachable through
        :meth:`job_result` -- the most recent ones, ring-buffered, so a
        long-lived service never accumulates every job it ever ran.  ``None``
        keeps everything (the replay-harness behaviour).  Exact lifetime
        totals always live in the metrics registry (``stats``), mirroring how
        ``placement_totals`` outlives the placement-history ring.

        ``fast_crypto`` selects nothing: the engines have one datapath.  It
        is accepted only as ``True``, for callers written when it chose
        between two; any other value raises :class:`CloudError`.

        ``obs`` is the :class:`~repro.obs.Observability` handle to record
        into; the default snapshots :func:`repro.obs.current` at construction
        time.  The service always keeps a *real* metrics registry for its own
        counters (``stats`` / ``fleet_summary`` are views over it); a null
        ``obs`` only disables the span/security event stream.
        """
        if num_boards < 1:
            raise CloudError("the fleet needs at least one board")
        if fast_crypto is not True:
            raise CloudError("fast_crypto selects nothing and only accepts True")
        if ledger_limit is not None and ledger_limit < 1:
            raise CloudError("ledger_limit must be positive (or None for unbounded)")
        if job_retention is not None and job_retention < 1:
            raise CloudError("job_retention must be positive (or None for unbounded)")
        self.obs = obs if obs is not None else obs_api.current()
        # stats/fleet_summary derive from the registry, so the service needs a
        # recording one even when observability is off for the process.
        self.metrics = (
            self.obs.metrics if self.obs.metrics.enabled else MetricsRegistry()
        )
        self.tracer = self.obs.tracer
        # Stage metrics need real durations even when tracing is off (the
        # null tracer's clock is frozen at 0.0), so fall back to the wall
        # clock for the service's internal timestamps in that case.
        self._now = self.tracer.now if self.tracer.enabled else time.perf_counter
        self.ledger_limit = ledger_limit
        self.affinity = bool(affinity)
        self.slots: dict[str, BoardSlot] = {}
        for index in range(num_boards):
            name = f"board-{index}"
            board = make_board(board_model, serial=f"cloud-fpga-{index:04d}")
            slot = BoardSlot(name=name, board=board, metrics=self.metrics)
            # The service audits its own boards: every DMA transfer (the only
            # way bulk data crosses the host boundary) is recorded verbatim
            # into the ledger, attributed to whichever session holds the
            # board.  This is what makes :meth:`plaintext_exposures` a real
            # check -- a regression that DMA'd plaintext would land here.
            board.shell.install_dma_tap(self._make_dma_tap(slot))
            self.slots[name] = slot
        self.scheduler = FleetScheduler(
            list(self.slots),
            policy=policy,
            affinity=self.affinity,
            queue_cap=queue_cap,
            history_limit=DEFAULT_HISTORY_LIMIT if history_limit is None else history_limit,
            metrics=self.metrics,
        )
        self.sessions: dict[str, TenantSession] = {}
        #: Live jobs only (QUEUED / RUNNING); terminal jobs move to the
        #: bounded retention ring so this map cannot grow with traffic.
        self.jobs: dict[str, AcceleratorJob] = {}
        self.job_retention = job_retention
        #: Most recent terminal jobs, oldest first (the retention ring).
        self._terminal_jobs: OrderedDict = OrderedDict()
        self.stats = CloudServiceStats(self.metrics)
        self._host_ledger: deque = deque(maxlen=ledger_limit)
        self._session_counter = 0
        self._job_counter = 0
        #: job id -> tracer timestamp at submission (feeds the ``queue`` span).
        self._submit_ts: dict = {}

    def now(self) -> float:
        """The service's stage clock: tracer time, or wall clock when tracing
        is off.  Public so the async front-end stamps its spans (``enqueue``,
        ``executor_handoff``) on the same timeline as the lifecycle spans."""
        return self._now()

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        self.metrics.counter(f"cloud.{name}", **labels).inc(amount)

    def _retire_job(self, job: AcceleratorJob) -> None:
        """Move a terminal job from the live map into the retention ring.

        The ring keeps the ``job_retention`` most recent terminal jobs
        reachable through :meth:`job_result`; older ones are dropped (counted
        by the ``jobs_retired`` lifetime total).  Exact per-state lifetime
        counts are never lost -- they live in the metrics registry.
        """
        self.jobs.pop(job.job_id, None)
        self._terminal_jobs[job.job_id] = job
        self._terminal_jobs.move_to_end(job.job_id)
        if self.job_retention is not None:
            while len(self._terminal_jobs) > self.job_retention:
                self._terminal_jobs.popitem(last=False)
                self._count("jobs_retired")

    @property
    def terminal_jobs(self) -> list:
        """The retained terminal jobs, oldest first (a bounded recent tail)."""
        return list(self._terminal_jobs.values())

    def _observe_stage(self, stage: str, seconds: float) -> None:
        self.metrics.histogram("cloud.stage_seconds", stage=stage).observe(seconds)

    def _make_dma_tap(self, slot: BoardSlot):
        def tap(direction: str, address: int, data: bytes) -> None:
            self._host_ledger.append(
                HostObservation(
                    session_id=slot.active_session or "<idle>",
                    board_name=slot.name,
                    entry=(f"dma-{direction}", address, data),
                )
            )
            if self.tracer.enabled:
                session = self.sessions.get(slot.active_session or "")
                self.tracer.security(
                    "dma_tap",
                    tenant=session.tenant if session is not None else None,
                    session=slot.active_session,
                    board=slot.name,
                    direction=direction,
                    address=address,
                    bytes=len(data),
                )

        return tap

    # -- tenant lifecycle ---------------------------------------------------------

    def admit_tenant(
        self,
        tenant: str,
        accelerator,
        shield_config: ShieldConfig | None = None,
        weight: float = 1.0,
    ) -> TenantSession:
        """Admit a tenant and provision a session-scoped trust domain.

        This compresses the paper's Figure 2 ceremony to its key-material
        essentials: a per-session Shield Encryption Key pair stands in for the
        attested bitstream, and the returned session already holds the wrapped
        Load Key that the host runtime will forward at first load.

        ``weight`` is the tenant's fair-share weight: under the ``fair``
        scheduling policy a weight-2 tenant is served twice the share of a
        weight-1 tenant.
        """
        if weight <= 0:
            raise CloudError("a tenant's fair-share weight must be positive")
        admit_start = self._now()
        self._session_counter += 1
        session_id = f"sess-{self._session_counter:04d}"
        base_config = shield_config or accelerator.build_shield_config()
        config = self._session_config(base_config, session_id)
        config.validate()

        # Session-scoped keys: deterministic per session id so runs replay.
        private_key = RsaPrivateKey.from_seed(
            b"cloud-shield:" + session_id.encode("utf-8"), bits=1024
        )
        data_owner = DataOwner(name=tenant, seed=9000 + self._session_counter)
        data_owner.generate_data_key(config.shield_id)
        load_key = data_owner.wrap_load_key(
            private_key.public_key.encode(), config.shield_id
        )

        session = TenantSession(
            session_id=session_id,
            tenant=tenant,
            accelerator=accelerator,
            shield_config=config,
            data_owner=data_owner,
            shield_private_key=private_key,
            load_key=load_key,
            state=SessionState.ADMITTED,
            weight=weight,
        )
        self.sessions[session_id] = session
        self._count("sessions_admitted")
        # Attestation is compressed to its key-material essentials (the
        # wrapped Load Key above), so admission completes provisioning
        # immediately; a fuller ceremony would hold the session in ADMITTED
        # until the attestation transcript verifies.
        session.state = SessionState.PROVISIONED
        self.tracer.record_span(
            "admit",
            admit_start,
            self._now() - admit_start,
            tenant=tenant,
            session=session_id,
        )
        return session

    def _session_config(self, base: ShieldConfig, session_id: str) -> ShieldConfig:
        """Clone a Shield configuration into a session-unique namespace."""
        config = ShieldConfig.from_dict(base.to_dict())
        config.shield_id = f"{base.shield_id}:{session_id}"
        return config

    @loop_owned
    def close_session(self, session_id: str) -> list:
        """Tear a session down: cancel its queued jobs, free its warm Shields.

        Still-queued jobs move to ``JobState.CANCELLED`` (they never ran, so
        they are not failures), and any board still holding the session's
        warm Shield is evicted so the next tenant gets a clean slate -- and
        the tenant's key material stops being resident on hardware it no
        longer pays for.  Idempotent: closing an already-closed session is a
        no-op.
        """
        session = self._session(session_id)
        if session.is_closed:
            return []
        session.state = SessionState.CLOSED
        self._count("sessions_closed")
        cancelled = self.scheduler.cancel_session_jobs(session_id)
        self._account_cancelled(cancelled)
        self.tracer.mark(
            "session_closed",
            tenant=session.tenant,
            session=session_id,
            cancelled_jobs=len(cancelled),
        )
        for board_name in self.scheduler.boards_resident_for(session_id):
            self._evict(self.slots[board_name])
        return cancelled

    def _account_cancelled(self, cancelled: list) -> None:
        """Finalize jobs the scheduler just cancelled: bill the session, close
        the ``queue`` span with a ``cancelled`` outcome, drop the submit
        timestamp, and retire the job to the retention ring.  (The timestamp
        pop is load-bearing: ``_submit_ts`` used to leak an entry per
        cancelled job, growing without bound under session churn.)"""
        now = self._now()
        for job in cancelled:
            session = self.sessions.get(job.session_id)
            if session is not None:
                session.usage.jobs_cancelled += 1
            self._count("jobs_cancelled")
            queue_start = self._submit_ts.pop(job.job_id, now)
            self.tracer.record_span(
                "queue",
                queue_start,
                now - queue_start,
                tenant=job.tenant,
                session=job.session_id,
                job=job.job_id,
                outcome="cancelled",
            )
            self._retire_job(job)

    @loop_owned
    def cancel_queued_jobs(self, reason: str = "service draining") -> list:
        """Cancel every still-queued job (the shutdown/drain path).

        Jobs move to ``JobState.CANCELLED`` with ``reason`` and are fully
        accounted (session usage, ``queue`` span with a ``cancelled``
        outcome, retention ring) exactly like a session-close cancellation.
        """
        cancelled = self.scheduler.cancel_queued(reason=reason)
        self._account_cancelled(cancelled)
        return cancelled

    def _session(self, session_id: str) -> TenantSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise CloudError(f"no session named {session_id!r}") from None

    # -- job submission and execution ---------------------------------------------

    @loop_owned
    def submit_job(
        self,
        session_id: str,
        inputs: dict | None = None,
        output_regions: dict | None = None,
        priority: int = 0,
        cost_estimate: float = 1.0,
        **params,
    ) -> AcceleratorJob:
        """Queue one accelerator run for a provisioned session.

        ``priority`` and ``cost_estimate`` feed the scheduling policy
        (``priority`` and ``sjf`` respectively); the job's fair-share weight
        comes from the session.  When admission control refuses the job
        (the fleet queue is full), the returned job carries
        ``JobState.REJECTED`` and the reason in ``job.error`` -- backpressure
        is an outcome the caller checks, not an exception it catches.
        """
        session = self._session(session_id)
        if not session.is_provisioned:
            raise SchedulingError(
                f"session {session_id!r} is {session.state.value}; only "
                "provisioned sessions may submit jobs"
            )
        self._job_counter += 1
        job = AcceleratorJob(
            job_id=f"job-{self._job_counter:04d}",
            session_id=session_id,
            tenant=session.tenant,
            inputs=dict(inputs or {}),
            output_regions=dict(output_regions or {}),
            params=dict(params),
            priority=priority,
            weight=session.weight,
            cost_estimate=cost_estimate,
        )
        self.jobs[job.job_id] = job
        self._count("jobs_submitted")
        self._submit_ts[job.job_id] = self._now()
        try:
            self.scheduler.submit(job)
        except AdmissionError:
            self._count("jobs_rejected")
            session.usage.jobs_rejected += 1
            self._submit_ts.pop(job.job_id, None)
            self.tracer.mark(
                "rejected",
                tenant=job.tenant,
                session=session_id,
                job=job.job_id,
                reason=job.error,
            )
            self._retire_job(job)
        return job

    def reject_job(
        self,
        session_id: str,
        reason: str,
        kind: str = "rejected",
        priority: int = 0,
        cost_estimate: float = 1.0,
    ) -> AcceleratorJob:
        """Mint a job that is REJECTED without ever touching the scheduler.

        The async front-end's backpressure (token-bucket rate limits, load
        shedding, post-shutdown submits) resolves callers' futures with a
        real ``JobState.REJECTED`` job -- never an exception -- and that job
        must be accounted like any other rejection.  ``kind`` names the
        tracer event (``ratelimited`` / ``shed`` / ``rejected``) and, when it
        is not plain ``rejected``, an extra lifetime counter
        (``cloud.jobs_<kind>``) so sheds and rate limits are separable from
        admission-control rejections on the dashboard.
        """
        session = self._session(session_id)
        self._job_counter += 1
        job = AcceleratorJob(
            job_id=f"job-{self._job_counter:04d}",
            session_id=session_id,
            tenant=session.tenant,
            priority=priority,
            weight=session.weight,
            cost_estimate=cost_estimate,
            state=JobState.REJECTED,
            error=reason,
        )
        self._count("jobs_submitted")
        self._count("jobs_rejected")
        if kind != "rejected":
            self._count(f"jobs_{kind}")
        session.usage.jobs_rejected += 1
        self.tracer.mark(
            kind,
            tenant=job.tenant,
            session=session_id,
            job=job.job_id,
            reason=reason,
        )
        self._retire_job(job)
        return job

    @loop_owned
    def begin_next_job(self, eligible=None) -> PlacedJob | None:
        """Acquire + attribute the next queued job; ``None`` if none runnable.

        Emits the ``queue`` and ``place`` spans and returns a
        :class:`PlacedJob` for :meth:`execute_placed` /
        :meth:`finish_placed`.  Must be called from the thread that owns the
        scheduler (the event loop, in the async front-end); ``eligible``
        restricts the policy choice (see
        :meth:`~repro.cloud.scheduler.FleetScheduler.acquire`).
        """
        place_start = self._now()
        placement = self.scheduler.acquire(eligible=eligible)
        if placement is None:
            return None
        job, board_name, warm = placement
        slot = self.slots[board_name]
        if not (
            warm and slot.shield is not None and slot.resident_session == job.session_id
        ):
            # Cold placement: whatever Shield is resident belongs to another
            # session (or the warm path is off).  Wipe it here, on the
            # scheduler-owning thread, so the executor phase never touches
            # scheduler residency state.
            self._evict(slot)
        queue_start = self._submit_ts.pop(job.job_id, place_start)
        self.tracer.record_span(
            "queue",
            queue_start,
            place_start - queue_start,
            tenant=job.tenant,
            session=job.session_id,
            job=job.job_id,
            board=board_name,
        )
        place_end = self._now()
        self.tracer.record_span(
            "place",
            place_start,
            place_end - place_start,
            tenant=job.tenant,
            session=job.session_id,
            job=job.job_id,
            board=board_name,
        )
        return PlacedJob(job=job, slot=slot, warm=warm, queue_start=queue_start)

    @executor_side
    def execute_placed(self, placed: PlacedJob) -> None:
        """Run a placed job's body: Shield load, seal, execute, download.

        This is the only phase the async front-end moves onto an executor
        thread -- it touches just the job, its board slot, and its session
        (at most one job of a session is in flight at a time), never the
        scheduler or the live-job maps.  Exceptions propagate; the caller
        must still invoke :meth:`finish_placed` with the error.
        """
        # The session lookup itself can fail (a dangling session id), and
        # that failure must release the board too -- otherwise the job is
        # stuck RUNNING and the slot leaks out of the free pool forever.
        session = self._session(placed.job.session_id)
        self._execute(placed.job, placed.slot, session, placed.warm)

    @loop_owned
    def finish_placed(self, placed: PlacedJob, error: BaseException | None) -> None:
        """Release the board, finalize counters/spans, retire the job.

        ``error`` is whatever :meth:`execute_placed` raised (``None`` on
        success).  A failed job never leaves a warm Shield behind: the board
        is wiped back to the clean slate before anything else lands on it.
        """
        job, slot, warm = placed.job, placed.slot, placed.warm
        if error is not None:
            if isinstance(error, IntegrityError):
                self.tracer.security(
                    "attack_detected",
                    tenant=job.tenant,
                    session=job.session_id,
                    job=job.job_id,
                    board=slot.name,
                    error=str(error),
                )
            self._evict(slot)
            self.scheduler.release(job, completed=False, error=str(error))
            self._count("jobs_failed")
            session = self.sessions.get(job.session_id)
            if session is not None:
                session.usage.jobs_failed += 1
        else:
            if not self.affinity:
                # Affinity off restores the seed behaviour: the Shield is
                # torn off the board after every job.  With affinity on, a
                # successful job leaves its Shield resident (warm).
                self._evict(slot)
            self.scheduler.release(job, completed=True)
            session = self.sessions.get(job.session_id)
            if session is not None:
                session.usage.jobs_completed += 1
            self._count("jobs_completed")
        finish = self._now()
        self.tracer.record_span(
            "job",
            placed.queue_start,
            finish - placed.queue_start,
            tenant=job.tenant,
            session=job.session_id,
            job=job.job_id,
            board=slot.name,
            warm=warm,
            completed=job.result is not None,
        )
        self._retire_job(job)

    def run_next_job(self) -> AcceleratorJob | None:
        """Place and execute the next queued job; ``None`` if nothing runnable."""
        placed = self.begin_next_job()
        if placed is None:
            return None
        try:
            self.execute_placed(placed)
        except Exception as exc:  # noqa: BLE001 - job failures must free the board
            self.finish_placed(placed, exc)
        else:
            self.finish_placed(placed, None)
        return placed.job

    def run_until_idle(self) -> list:
        """Drain the queue; returns the jobs in completion order."""
        finished = []
        while True:
            job = self.run_next_job()
            if job is None:
                break
            finished.append(job)
        return finished

    @executor_side
    def _execute(
        self,
        job: AcceleratorJob,
        slot: BoardSlot,
        session: TenantSession,
        warm: bool = False,
    ) -> None:
        board = slot.board
        config = session.shield_config
        load_start = self._now()
        if warm and slot.shield is not None and slot.resident_session == session.session_id:
            # Warm hit: the session's Shield is still resident from its last
            # job, so the teardown+reload (the paper's ~6.2 s partial
            # reconfiguration) is skipped entirely.  The datapath is still
            # re-keyed below -- a fresh Data Encryption Key per job -- so
            # keystream never repeats across jobs.
            shield = slot.shield
            self._count("affinity_hits", board=slot.name)
        else:
            # Cold load.  The board was wiped loop-side by begin_next_job
            # before this job was handed to the executor, so the new tenant
            # starts from the clean slate here.
            shield = Shield(
                config,
                board.shell,
                board.on_chip_memory,
                session.shield_private_key,
                obs=self.obs,
            )
            slot.shield = shield
            slot.resident_session = session.session_id
            self._count("shield_loads", board=slot.name)
        runtime = ShefHostRuntime(board.shell, config, label=session.session_id)
        slot.active_session = session.session_id
        if slot.name not in session.boards_used:
            session.boards_used.append(slot.name)
        ids = dict(
            tenant=job.tenant, session=session.session_id, job=job.job_id, board=slot.name
        )
        try:
            # Rotate the session's Data Encryption Key for this job: region
            # sub-keys and chunk IVs restart with every Shield load, so a
            # reused key would reuse AES-CTR keystream across jobs (letting
            # the host XOR two observed ciphertexts into plaintext-XOR) and
            # allow cross-job ciphertext replay with valid MACs.
            session.data_owner.generate_data_key(config.shield_id)
            session.load_key = session.data_owner.wrap_load_key(
                session.shield_private_key.public_key.encode(), config.shield_id
            )
            runtime.deliver_load_key(shield, session.load_key)
            load_end = self._now()
            self.tracer.record_span(
                "shield_load", load_start, load_end - load_start, warm=warm, **ids
            )
            self._observe_stage("shield_load", load_end - load_start)

            # Stage sealed inputs through the untrusted host (ciphertext only).
            seal_start = self._now()
            input_bytes = 0
            for region_name, plaintext in job.inputs.items():
                staged = session.data_owner.seal_input(
                    config, region_name, plaintext, shield_id=config.shield_id
                )
                input_bytes += len(plaintext)
                runtime.upload_region(staged)
            seal_end = self._now()
            self.tracer.record_span(
                "input_seal", seal_start, seal_end - seal_start, bytes=input_bytes, **ids
            )
            self._observe_stage("input_seal", seal_end - seal_start)

            execute_start = self._now()
            result = session.accelerator.run(ShieldMemoryAdapter(shield), **job.params)
            shield.flush()
            execute_end = self._now()
            self.tracer.record_span(
                "execute", execute_start, execute_end - execute_start, **ids
            )
            self._observe_stage("execute", execute_end - execute_start)

            # Download requested output regions (still sealed) and unseal them
            # with the tenant's own key ring.  Each spec is either a plaintext
            # length (from chunk 0) or an ``(offset_chunks, length)`` pair for
            # a partial download starting mid-region.  The per-region download
            # and unseal times are aggregated into one span each, so every job
            # emits exactly one ``download`` and one ``output_unseal`` event
            # (zero-duration when no outputs were requested) -- the same shape
            # the simulator emits.
            download_start = self._now()
            download_s = 0.0
            unseal_s = 0.0
            output_bytes = 0
            for region_name, spec in job.output_regions.items():
                if isinstance(spec, (tuple, list)):
                    offset_chunks, length = spec
                else:
                    offset_chunks, length = 0, spec
                plaintext, region_download_s, region_unseal_s = self._download_output(
                    session, shield, runtime, region_name, length, offset_chunks
                )
                job.region_outputs[region_name] = plaintext
                download_s += region_download_s
                unseal_s += region_unseal_s
                output_bytes += len(plaintext)
            self.tracer.record_span(
                "download", download_start, download_s, bytes=output_bytes, **ids
            )
            self.tracer.record_span(
                "output_unseal", download_start + download_s, unseal_s, **ids
            )
            self._observe_stage("download", download_s)
            self._observe_stage("output_unseal", unseal_s)
            # Only a fully successful job (run AND downloads) publishes its
            # result: ``job.result is None`` is the failure signal consumers
            # rely on.
            job.result = result

            stats = shield.stats()
            session.job_stats.append(stats)
            session.usage.absorb_shield_stats(stats)
        finally:
            session.usage.bytes_uploaded += runtime.log.bytes_uploaded
            session.usage.bytes_downloaded += runtime.log.bytes_downloaded
            # The runtime's log label carries the session attribution into the
            # shared audit trail.
            for entry in runtime.log.observed_blobs:
                self._host_ledger.append(
                    HostObservation(
                        session_id=runtime.log.label, board_name=slot.name, entry=entry
                    )
                )
            # Affinity-off teardown (and failure eviction) happens loop-side
            # in finish_placed: eviction updates scheduler residency, which
            # executor threads must not touch.
            slot.active_session = None

    @executor_side
    def _download_output(
        self,
        session: TenantSession,
        shield: Shield,
        runtime: ShefHostRuntime,
        region_name: str,
        length: int | None,
        offset_chunks: int = 0,
    ) -> tuple:
        """Download + unseal one output region; returns (plaintext, download
        seconds, unseal seconds) so the caller can aggregate stage spans."""
        config = session.shield_config
        region = config.region(region_name)
        if not 0 <= offset_chunks < region.num_chunks:
            raise CloudError(
                f"offset {offset_chunks} outside region {region_name!r} "
                f"({region.num_chunks} chunks)"
            )
        if length is None:
            num_chunks = region.num_chunks - offset_chunks
        else:
            num_chunks = -(-length // region.chunk_size)
        if offset_chunks + num_chunks > region.num_chunks:
            raise CloudError(
                f"download of {num_chunks} chunk(s) at offset {offset_chunks} "
                f"runs past region {region_name!r} ({region.num_chunks} chunks)"
            )
        download_start = self._now()
        ciphertext, tags = runtime.download_region(region_name, num_chunks, offset_chunks)
        if len(tags) != num_chunks:
            # The host dropped (or padded) whole chunks; the tags left over
            # would still verify, so count them here.
            raise IntegrityError(
                f"host returned {len(tags)} of {num_chunks} chunk tags "
                f"for region {region_name!r}"
            )
        sealed = DataOwner.sealed_chunks_from_device(
            config, region_name, ciphertext, tags, offset_chunks
        )
        unseal_start = self._now()
        if region.replay_protected:
            counters = shield.pipeline(region_name).counters
            versions = [counters.read(c.chunk_index) for c in sealed]
            plaintext = session.data_owner.unseal_output_with_versions(
                config, region_name, sealed, versions, length, shield_id=config.shield_id
            )
        else:
            plaintext = session.data_owner.unseal_output(
                config, region_name, sealed, length, shield_id=config.shield_id
            )
        unseal_end = self._now()
        return plaintext, unseal_start - download_start, unseal_end - unseal_start

    @loop_owned
    def _evict(self, slot: BoardSlot) -> None:
        """Tear the resident Shield off a board: free on-chip memory, drop the
        register port, and forget the residency.  No-op on an empty board."""
        if slot.shield is not None:
            slot.shield.unload()
            self._count("evictions", board=slot.name)
            owner = self.sessions.get(slot.resident_session or "")
            self.tracer.security(
                "eviction",
                tenant=owner.tenant if owner is not None else None,
                session=slot.resident_session,
                board=slot.name,
            )
        else:
            # Defensive: even without a tracked Shield, leave the user region
            # disconnected (partial reconfiguration of an empty slot).
            slot.board.shell.disconnect_user_logic()
        slot.shield = None
        slot.resident_session = None
        self.scheduler.evict(slot.name)

    @loop_owned
    def evict_idle_shields(self) -> int:
        """Evict every resident warm Shield (the drain/shutdown path).

        Only call with no job in flight -- the front-end does so after its
        executors have drained.  Returns the number of Shields evicted.
        """
        evicted = 0
        for slot in self.slots.values():
            if slot.shield is not None:
                self._evict(slot)
                evicted += 1
        return evicted

    # -- results and auditing -------------------------------------------------------

    def job_result(self, job_id: str, tenant: str) -> AcceleratorJob:
        """Fetch a live or recently retained job, enforcing that the caller
        owns it.  Terminal jobs older than the ``job_retention`` ring are
        gone (their lifetime counts survive in ``stats``)."""
        job = self.jobs.get(job_id) or self._terminal_jobs.get(job_id)
        if job is None:
            raise CloudError(f"no job named {job_id!r}") from None
        session = self._session(job.session_id)
        if session.tenant != tenant:
            raise TenantIsolationError(
                f"tenant {tenant!r} may not read results of {session.tenant!r}"
            )
        return job

    def host_observations(self) -> list:
        """The service-wide host ledger (everything the untrusted host saw)."""
        return list(self._host_ledger)

    def plaintext_exposures(self, plaintext: bytes, window: int = 16) -> list:
        """Audit the host ledger for fragments of a tenant plaintext.

        Probes are ``window``-byte slices of ``plaintext`` taken every
        ``window`` bytes (plus the tail), so any contiguous leak of at least
        ``2 * window - 1`` plaintext bytes is guaranteed to contain a whole
        probe.  The ledger includes the verbatim bytes of every DMA transfer
        on every fleet board, so an empty result really means the host moved
        no recognizable plaintext -- only ciphertext and wrapped keys.

        Every hit is also published as a ``plaintext_exposure`` security
        event, so a leak found by an offline audit still lands on the same
        stream the live security events use.
        """
        if not plaintext:
            probes = set()
        elif len(plaintext) <= window:
            probes = {plaintext}
        else:
            probes = {
                plaintext[offset : offset + window]
                for offset in range(0, len(plaintext) - window + 1, window)
            }
            probes.add(plaintext[-window:])
        exposures = []
        for observation in self._host_ledger:
            for item in observation.entry:
                if isinstance(item, (bytes, bytearray)):
                    blob = bytes(item)
                    if any(probe in blob for probe in probes):
                        exposures.append(observation)
                        owner = self.sessions.get(observation.session_id)
                        self.tracer.security(
                            "plaintext_exposure",
                            tenant=owner.tenant if owner is not None else None,
                            session=observation.session_id,
                            board=observation.board_name,
                            entry_kind=observation.entry[0],
                        )
                        break
        return exposures

    # -- reporting -------------------------------------------------------------------

    def fleet_summary(self) -> dict:
        """Board-by-board load counts plus service totals (for demos/CLI).

        Every number is read from the metrics registry (the same counters the
        event stream increments), so this summary, ``stats``, and an exported
        Prometheus dump always agree.  Placement history per board is the
        ring-buffered recent tail; ``placements_total`` carries the exact
        lifetime count so sustained traffic never inflates memory.
        ``affinity_hit_rate`` is warm placements over all placements, and
        ``tenants`` reports per-tenant fairness: each tenant's completed-job
        share of everything the fleet completed.
        """
        history = self.scheduler.placement_history
        placements = sum(self.scheduler.placement_totals.values())
        tenants: dict = {}
        for session in self.sessions.values():
            usage = session.usage
            entry = tenants.setdefault(
                session.tenant,
                {
                    "jobs_completed": 0,
                    "jobs_failed": 0,
                    "jobs_cancelled": 0,
                    "jobs_rejected": 0,
                    "weight": session.weight,
                },
            )
            entry["jobs_completed"] += usage.jobs_completed
            entry["jobs_failed"] += usage.jobs_failed
            entry["jobs_cancelled"] += usage.jobs_cancelled
            entry["jobs_rejected"] += usage.jobs_rejected
        jobs_completed = self.stats.jobs_completed
        for entry in tenants.values():
            entry["completed_share"] = (
                entry["jobs_completed"] / jobs_completed if jobs_completed else 0.0
            )
        return {
            "policy": self.scheduler.policy.name,
            "affinity": self.affinity,
            "boards": {
                name: {
                    "shield_loads": slot.shield_loads,
                    "affinity_hits": slot.affinity_hits,
                    "evictions": slot.evictions,
                    "resident_session": slot.resident_session,
                    "sessions": history[name],
                    "placements_total": self.scheduler.placement_totals[name],
                }
                for name, slot in self.slots.items()
            },
            "sessions_admitted": self.stats.sessions_admitted,
            "jobs_completed": jobs_completed,
            "jobs_failed": self.stats.jobs_failed,
            "jobs_cancelled": self.stats.jobs_cancelled,
            "jobs_rejected": self.stats.jobs_rejected,
            "jobs_ratelimited": self.stats.jobs_ratelimited,
            "jobs_shed": self.stats.jobs_shed,
            "shield_loads": self.stats.shield_loads,
            "affinity_hits": self.stats.affinity_hits,
            "affinity_hit_rate": (
                self.stats.affinity_hits / placements if placements else 0.0
            ),
            "tenants": tenants,
        }
