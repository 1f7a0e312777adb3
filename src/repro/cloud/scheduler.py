"""Fleet scheduling: a policy-driven work queue over a pool of FPGA boards.

The scheduler is deterministic -- job order comes from a pluggable
:mod:`~repro.cloud.policies` policy (FIFO by default), and placement prefers
a board whose *warm* resident Shield already belongs to the job's session,
falling back to the free board that has been idle longest (round-robin
rotation over the fleet) -- so tests can assert exact placements.  It knows
nothing about tenants' keys: isolation lives in
:class:`~repro.cloud.service.ShieldCloudService`; the scheduler decides
*when* and *where* a job runs and enforces one admission limit, a
fleet-wide queue cap, at submit time.

Boards are released as soon as a job finishes.  With affinity enabled the
session's Shield stays resident on the released board, and a later job of the
same session placed there is a *warm hit* -- the service skips the
teardown+reload and the timed simulator prices the Shield load at zero.  A
different session landing on the board evicts the resident Shield first, so
the clean-slate guarantee between tenants is unchanged.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import repro.obs as obs_api
from repro.analysis.annotations import loop_owned
from repro.cloud.policies import BoardIndex, JobRequest, make_policy
from repro.errors import AdmissionError, SchedulingError

#: Default per-board placement-history ring size.  Under sustained traffic the
#: history used to grow without bound; the ring keeps the recent tail for the
#: Admin story ("which tenants shared this board?") while
#: ``placement_totals`` preserves exact lifetime counts.
DEFAULT_HISTORY_LIMIT = 256


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Refused at submit time by admission control (the fleet queue cap).
    REJECTED = "rejected"
    #: Dropped from the queue before placement (session closed).
    CANCELLED = "cancelled"


@dataclass
class AcceleratorJob:
    """One unit of scheduled work: run a session's accelerator over sealed inputs."""

    job_id: str
    session_id: str
    #: Owning tenant (fair-share accounting key; set by the service).
    tenant: str = ""
    #: Region name -> plaintext bytes the tenant wants staged (sealed client-side).
    inputs: dict = field(default_factory=dict)
    #: Region name -> plaintext length to download and unseal after the run
    #: (None downloads the whole region), or an ``(offset_chunks, length)``
    #: pair for a partial download starting mid-region.
    output_regions: dict = field(default_factory=dict)
    #: Keyword arguments forwarded to ``accelerator.run``.
    params: dict = field(default_factory=dict)
    #: Scheduling metadata consumed by the policy zoo.
    priority: int = 0
    weight: float = 1.0
    cost_estimate: float = 1.0
    #: Submission sequence number (assigned by the scheduler).
    seq: int = -1
    state: JobState = JobState.QUEUED
    board_name: str | None = None
    #: True when the job was placed on a board already holding its session's
    #: Shield (the load was skipped).
    warm_start: bool = False
    #: AcceleratorResult of the shielded run (set on completion).
    result: object | None = None
    #: Region name -> unsealed plaintext downloaded after the run.
    region_outputs: dict = field(default_factory=dict)
    error: str | None = None

    def request_view(self) -> JobRequest:
        """The policy-facing projection of this job."""
        return JobRequest(
            key=self.job_id,
            tenant=self.tenant or self.session_id,
            session_id=self.session_id,
            seq=self.seq,
            priority=self.priority,
            weight=self.weight,
            cost_estimate=self.cost_estimate,
        )


class FleetScheduler:
    """Policy-driven queue + warm-affinity placement over a fixed fleet."""

    def __init__(
        self,
        board_names: list,
        policy="fifo",
        affinity: bool = True,
        queue_cap: int | None = None,
        history_limit: int | None = DEFAULT_HISTORY_LIMIT,
        metrics=None,
    ):
        """``metrics`` is the registry the scheduler publishes its queue-depth
        and busy-board gauges into; the default snapshots the process-wide
        :func:`repro.obs.current` registry at construction time (the service
        passes its own, so the gauges land next to the service counters)."""
        if not board_names:
            raise SchedulingError("a fleet needs at least one board")
        if queue_cap is not None and queue_cap < 1:
            raise SchedulingError("queue_cap must be positive (or None for unbounded)")
        self._board_names = list(board_names)
        #: The policy is the queue: O(log n) push and pop in policy order.
        self.policy = make_policy(policy)
        self.affinity = bool(affinity)
        self.queue_cap = queue_cap
        #: board name -> session the board's resident (warm) Shield belongs to.
        #: Shared with the :class:`BoardIndex`, so ``evict`` is one dict write.
        self.resident_sessions: dict = {name: None for name in board_names}
        #: Incremental free-fleet + warm-affinity index.
        self._boards = BoardIndex(board_names, resident=self.resident_sessions)
        #: board name -> recent session ids placed on it (bounded ring).
        self._history: dict = {
            name: deque(maxlen=history_limit) for name in board_names
        }
        #: board name -> lifetime placement count (survives ring eviction).
        self.placement_totals: dict = {name: 0 for name in board_names}
        self._seq = 0
        self.metrics = metrics if metrics is not None else obs_api.current().metrics
        self._gauge_update()

    def _gauge_update(self) -> None:
        self.metrics.gauge("cloud.queue_depth").set(len(self.policy))
        self.metrics.gauge("cloud.busy_boards").set(self.busy_boards)

    @property
    def placement_history(self) -> dict:
        """board name -> recent session ids, oldest first (ring-buffered)."""
        return {name: list(ring) for name, ring in self._history.items()}

    # -- queueing -----------------------------------------------------------------

    @loop_owned
    def submit(self, job: AcceleratorJob) -> None:
        """Queue a job, enforcing the fleet queue cap.

        Raises :class:`~repro.errors.AdmissionError` (and marks the job
        ``REJECTED``) when the queue is full -- backpressure is a first-class
        outcome, not a crash.
        """
        if job.state is not JobState.QUEUED:
            raise SchedulingError(f"job {job.job_id!r} is not in the QUEUED state")
        if self.queue_cap is not None and len(self.policy) >= self.queue_cap:
            self._reject(job, f"fleet queue is full ({self.queue_cap} job(s) pending)")
        self._seq += 1
        job.seq = self._seq
        self.policy.push(job.request_view(), job)
        self._gauge_update()

    def _reject(self, job: AcceleratorJob, reason: str) -> None:
        job.state = JobState.REJECTED
        job.error = reason
        raise AdmissionError(reason)

    @property
    def pending_jobs(self) -> int:
        return len(self.policy)

    @property
    def free_boards(self) -> int:
        return len(self._boards)

    @property
    def busy_boards(self) -> int:
        return len(self._board_names) - len(self._boards)

    # -- placement ----------------------------------------------------------------

    @loop_owned
    def acquire(self, eligible=None) -> tuple | None:
        """Pick (policy) and place (affinity) the next job.

        Returns ``(job, board_name, warm)`` -- ``warm`` is True when the board
        already holds the job's session's Shield -- or ``None`` if the queue
        is empty, the fleet is saturated, or no queued job passes
        ``eligible``.  ``eligible`` is an optional per-job predicate the
        policy choice is restricted to; the async front-end uses it to keep
        at most one job of a session in flight (two concurrent jobs of one
        session would race on the session's key rotation).  Ineligible jobs
        stay queued in their original order.
        """
        if not self.policy or not self._boards:
            return None
        popped = self.policy.pop(eligible)
        if popped is None:
            return None
        _, job = popped
        board_name = self._boards.place(job.session_id, prefer_affinity=self.affinity)
        warm = self.affinity and self.resident_sessions[board_name] == job.session_id
        job.state = JobState.RUNNING
        job.board_name = board_name
        job.warm_start = warm
        self._history[board_name].append(job.session_id)
        self.placement_totals[board_name] += 1
        self._gauge_update()
        return job, board_name, warm

    @loop_owned
    def release(self, job: AcceleratorJob, completed: bool, error: str | None = None) -> None:
        """Return the job's board to the free pool and finalize its state.

        With affinity enabled, a *successful* job leaves its session's Shield
        resident on the board (the next same-session job is a warm hit); a
        failed job never does -- the service tears the Shield down to restore
        the clean slate, and the residency record must agree.
        """
        if job.state is not JobState.RUNNING or job.board_name is None:
            raise SchedulingError(f"job {job.job_id!r} is not running on any board")
        keep_warm = self.affinity and completed
        self.resident_sessions[job.board_name] = job.session_id if keep_warm else None
        self._boards.release(job.board_name)
        job.state = JobState.COMPLETED if completed else JobState.FAILED
        job.error = error
        self._gauge_update()

    @loop_owned
    def evict(self, board_name: str) -> None:
        """Forget the board's resident Shield (the service tore it down)."""
        self.resident_sessions[board_name] = None

    def boards_resident_for(self, session_id: str) -> list:
        """Boards currently holding this session's warm Shield."""
        return [
            name for name, resident in self.resident_sessions.items()
            if resident == session_id
        ]

    @loop_owned
    def cancel_queued(
        self,
        predicate=None,
        reason: str = "cancelled before the job was scheduled",
    ) -> list:
        """Cancel every queued job matching ``predicate`` (all jobs if None).

        Cancellation is one pass over the queue; survivors keep their
        relative order, so policy tie-breaks are unchanged.
        """
        cancelled = [job for _, job in self.policy.remove(predicate)]
        if not cancelled:
            return []
        for job in cancelled:
            job.state = JobState.CANCELLED
            job.error = reason
        self._gauge_update()
        return cancelled

    @loop_owned
    def cancel_session_jobs(self, session_id: str) -> list:
        """Cancel still-queued jobs of a session (used at session teardown)."""
        return self.cancel_queued(
            lambda job: job.session_id == session_id,
            reason="session closed before the job was scheduled",
        )
