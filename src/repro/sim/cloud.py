"""Multi-tenant workload replay through the analytical timing model.

The functional :class:`~repro.cloud.service.ShieldCloudService` moves real
bytes; this module answers the capacity-planning questions -- how does a
board fleet behave under heavy mixed-tenant traffic?  A trace is a
columnar :class:`Trace` -- one row per job arrival (arrival time, tenant,
session, workload, priority, weight), names and ``(profile, shield_config)``
pairs held once in small tables -- and a hand-written list of
:class:`TraceEvent` objects converts to one (:meth:`Trace.from_events`).  The
:class:`CloudSimulator` replays a trace against an N-board fleet with the **same
scheduling core the functional service uses** -- the policy zoo and
warm-affinity placement rule of :mod:`repro.cloud.policies` -- pricing each
job's service time with :class:`~repro.core.timing.TimingModel` plus a fixed
per-load Shield setup cost (partial reconfiguration + Load-Key delivery).
With affinity enabled, a job placed on a board whose previous job belonged to
the same session is a *warm hit* and the load cost is zero -- so a
repeated-tenant trace pays one reconfiguration instead of N.  The result
reports per-job wait/service/turnaround times, warm hits, board utilization,
per-tenant fairness, and makespan, and renders/exports like every other
experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs_api
from repro.analysis.annotations import hot_path
from repro.obs.tracing import SPAN, ObsEvent
from repro.cloud.policies import BoardIndex, JobRequest, make_policy
from repro.core.config import ShieldConfig
from repro.core.timing import TimingModel, WorkloadProfile
from repro.errors import SimulationError
from repro.obs.stats import percentile
from repro.sim.results import ExperimentResult

#: Default board clock used to convert model cycles to seconds (AWS F1).
DEFAULT_CLOCK_HZ = 250e6

#: Modelled cost of loading a tenant's Shield onto a board between jobs
#: (partial reconfiguration dominates; cf. Section 6.1's 6.2 s on F1).
DEFAULT_SHIELD_LOAD_SECONDS = 6.2


@dataclass(frozen=True)
class TraceEvent:
    """One tenant job arrival in a mixed workload trace."""

    arrival_s: float
    tenant: str
    profile: WorkloadProfile
    shield_config: ShieldConfig
    #: Affinity key: jobs of the same session can share a warm Shield.
    #: Defaults to the tenant (one session per tenant).
    session_id: str | None = None
    #: Scheduling metadata for the priority / fair-share policies.
    priority: int = 0
    weight: float = 1.0

    @property
    def workload(self) -> str:
        return self.profile.name

    @property
    def session(self) -> str:
        return self.session_id or self.tenant


@dataclass(frozen=True, eq=False)
class Trace:
    """A replay trace in columns: one row per job arrival.

    ``arrival`` (float64 seconds), ``tenant``, ``session`` and ``profile``
    (int32 indices into the ``tenants``, ``sessions`` and ``profiles``
    tables), ``priority`` (int32) and ``weight`` (float64) hold one entry per
    job, so a row costs 32 bytes where a :class:`TraceEvent` object costs
    ~170.  ``profiles`` holds ``(profile, shield_config)`` pairs, priced once
    per replay.  ``trace[rows]`` (an index array or a slice) takes a subset
    of rows in the given order, sharing the tables; a single index gives one
    job's column values.
    """

    arrival: np.ndarray
    tenant: np.ndarray
    session: np.ndarray
    profile: np.ndarray
    priority: np.ndarray
    weight: np.ndarray
    tenants: tuple
    sessions: tuple
    profiles: tuple

    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, rows) -> "Trace":
        return Trace(
            self.arrival[rows],
            self.tenant[rows],
            self.session[rows],
            self.profile[rows],
            self.priority[rows],
            self.weight[rows],
            self.tenants,
            self.sessions,
            self.profiles,
        )

    @classmethod
    def from_events(cls, events) -> "Trace":
        """Convert a hand-written :class:`TraceEvent` list, row for row.

        Names are tabled in first-seen order; a job's session is
        ``event.session`` (its tenant when it names none), and
        ``(profile, shield_config)`` pairs are told apart by object identity.
        """
        events = list(events)
        tenants: dict = {}
        sessions: dict = {}
        pairs: dict = {}
        tenant, session, profile = [], [], []
        for event in events:
            tenant.append(tenants.setdefault(event.tenant, len(tenants)))
            session.append(sessions.setdefault(event.session, len(sessions)))
            key = (id(event.profile), id(event.shield_config))
            if key not in pairs:
                pairs[key] = (len(pairs), (event.profile, event.shield_config))
            profile.append(pairs[key][0])
        return cls(
            arrival=np.array([event.arrival_s for event in events], dtype=np.float64),
            tenant=np.array(tenant, dtype=np.int32),
            session=np.array(session, dtype=np.int32),
            profile=np.array(profile, dtype=np.int32),
            priority=np.array([event.priority for event in events], dtype=np.int32),
            weight=np.array([event.weight for event in events], dtype=np.float64),
            tenants=tuple(tenants),
            sessions=tuple(sessions),
            profiles=tuple(pair for _, pair in pairs.values()),
        )


def _as_trace(trace) -> Trace:
    """``trace`` itself, or a :class:`Trace` of a :class:`TraceEvent` list."""
    return trace if isinstance(trace, Trace) else Trace.from_events(trace)


@dataclass(frozen=True)
class CloudJobRecord:
    """Scheduling outcome for one replayed job."""

    tenant: str
    workload: str
    board: int
    arrival_s: float
    start_s: float
    finish_s: float
    #: True when the board already held the session's Shield (load cost 0).
    warm: bool = False
    #: Shield load seconds actually paid by this job.
    load_s: float = 0.0

    @property
    def wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass
class ReplayStats:
    """Aggregates of one replay, cheap enough for million-job traces.

    ``waits`` keeps the raw per-job wait seconds so a multi-shard driver can
    merge shards and compute *global* tail percentiles; everything else is a
    scalar or a small per-board dict.
    """

    jobs: int
    makespan_s: float
    #: Per-job wait seconds, dispatch order.
    waits: list = field(default_factory=list)
    #: board id -> seconds the board spent serving (load + execute).
    board_busy_s: dict = field(default_factory=dict)
    warm_hits: int = 0
    #: Size of the (fixed) fleet the trace replayed on.
    boards: int = 0

    @property
    def shield_loads(self) -> int:
        return self.jobs - self.warm_hits

    @property
    def affinity_hit_rate(self) -> float:
        return self.warm_hits / self.jobs if self.jobs else 0.0

    @property
    def utilization(self) -> float:
        """Busy board-seconds over the fleet's board-seconds up to makespan."""
        capacity = self.boards * self.makespan_s
        return sum(self.board_busy_s.values()) / capacity if capacity else 0.0

    def wait_percentile(self, q: float) -> float | None:
        return percentile(self.waits, q)


class CloudSimulator:
    """Replays a multi-tenant trace over an N-board fleet using the timing model.

    ``policy`` and ``affinity`` mirror
    :class:`~repro.cloud.service.ShieldCloudService` exactly -- both import
    the implementation from :mod:`repro.cloud.policies`, so the simulator's
    capacity plan and the functional service's execution can never diverge on
    scheduling semantics.
    """

    def __init__(
        self,
        num_boards: int = 2,
        model: TimingModel | None = None,
        clock_hz: float = DEFAULT_CLOCK_HZ,
        shield_load_seconds: float = DEFAULT_SHIELD_LOAD_SECONDS,
        policy="fifo",
        affinity: bool = True,
        obs=None,
    ):
        """``obs`` is the observability handle the replay publishes lifecycle
        events into (default: the process-wide :func:`repro.obs.current` at
        construction time).  Events are stamped with *modelled* timestamps but
        use exactly the per-job schema the functional service emits, so the
        two streams are directly diffable via
        :func:`repro.obs.lifecycle_signature`."""
        if num_boards < 1:
            raise SimulationError("the simulated fleet needs at least one board")
        self.num_boards = num_boards
        self.model = model or TimingModel()
        self.clock_hz = clock_hz
        self.shield_load_seconds = shield_load_seconds
        self.policy = policy
        self.affinity = bool(affinity)
        self.obs = obs if obs is not None else obs_api.current()

    # -- pricing ------------------------------------------------------------------

    def execution_seconds(self, event: TraceEvent) -> float:
        """Modelled shielded-execution time of one job (no load cost)."""
        return self._execution_seconds(event.profile, event.shield_config)

    def _execution_seconds(self, profile: WorkloadProfile, config: ShieldConfig) -> float:
        cycles = self.model.shielded(profile, config).total_cycles
        return cycles / self.clock_hz

    def service_seconds(self, event: TraceEvent, warm: bool = False) -> float:
        """Modelled on-board time: Shield load (zero on a warm hit) + execution."""
        load = 0.0 if warm else self.shield_load_seconds
        return load + self.execution_seconds(event)

    # -- replay -------------------------------------------------------------------

    def replay(self, trace) -> list:
        """Replay the trace through the shared policy + affinity placement core.

        ``trace`` is a :class:`Trace` or a :class:`TraceEvent` list.
        Event-driven: arrivals join the policy's queue at their arrival time;
        whenever a board is free and the queue is non-empty, the policy picks
        the next job in O(log n) and the incremental
        :class:`~repro.cloud.policies.BoardIndex` places it -- preferring a
        board whose last job belonged to the same session (warm, load cost
        zero).  Free boards are ranked in release order (seeded by board
        index), the timed analogue of the functional scheduler's longest-idle
        rotation, so placements are deterministic and match the functional
        fleet wherever time permits a comparison.  The fleet keeps its
        ``num_boards`` boards for the whole replay.
        """
        trace = _as_trace(trace)
        rows: list = []
        self._replay(trace, rows)
        arrival = trace.arrival.tolist()
        tenant = trace.tenant.tolist()
        profile = trace.profile.tolist()
        workloads = [pair[0].name for pair in trace.profiles]
        return [
            CloudJobRecord(
                tenant=trace.tenants[tenant[row]],
                workload=workloads[profile[row]],
                board=board,
                arrival_s=arrival[row],
                start_s=start,
                finish_s=finish,
                warm=warm,
                load_s=load,
            )
            for row, board, start, finish, warm, load in rows
        ]

    def replay_stats(self, trace) -> "ReplayStats":
        """Replay without materializing per-job records: aggregates only.

        The shard-scale driver replays 10^5-10^6-job traces where building a
        :class:`CloudJobRecord` per job dominates the runtime; this path
        accumulates waits, per-board busy time and warm hits inline and
        returns one :class:`ReplayStats`.  ``trace`` is a :class:`Trace` or
        a :class:`TraceEvent` list.
        """
        return self._replay(_as_trace(trace), None)

    def _arrival_columns(self, trace: Trace) -> tuple:
        """The trace's columns as Python lists, in arrival order.

        Returns ``(order, arrival, tenant, session, priority, weight,
        cost)``: ``order`` maps each position back to its trace row, names
        replace table indices, and ``cost`` is the modelled execution time of
        the job's profile, priced once per profile-table entry.  Arrival
        order is a stable sort, so ties keep trace order.  Lists, because the
        dispatch loop reads one element at a time, which is slow on numpy
        arrays.  The loop builds each job's :class:`JobRequest` from these
        lists when the job arrives, so only queued jobs hold one; a list of
        every request built up front would raise peak memory with the trace.
        """
        order = np.argsort(trace.arrival, kind="stable")
        prices = np.array(
            [self._execution_seconds(*pair) for pair in trace.profiles], dtype=np.float64
        )
        return (
            order.tolist(),
            trace.arrival[order].tolist(),
            np.array(trace.tenants, dtype=object)[trace.tenant[order]].tolist(),
            np.array(trace.sessions, dtype=object)[trace.session[order]].tolist(),
            trace.priority[order].tolist(),
            trace.weight[order].tolist(),
            prices[trace.profile[order]].tolist(),
        )

    @hot_path
    def _replay(self, trace: Trace, rows) -> "ReplayStats":
        """The dispatch loop shared by :meth:`replay` and :meth:`replay_stats`.

        When ``rows`` is a list, one raw ``(row, board, start, finish, warm,
        load)`` tuple is appended per job, ``row`` being the job's index in
        ``trace``; aggregates are accumulated either way.  The loop reads the
        lists of :meth:`_arrival_columns` and queues each job's row index.
        Tracing costs nothing when the tracer is disabled: the enabled check
        is hoisted out of the loop and the untraced path does no per-job
        observability work at all.  The fleet size is fixed, so two counters
        (queued jobs, free boards) decide when to dispatch.
        """
        policy = make_policy(self.policy)
        push, pop = policy.push, policy.pop
        tracer = self.obs.tracer
        traced = tracer.enabled
        affinity = self.affinity
        load_cost = self.shield_load_seconds
        # seq is the *arrival-order* position: FIFO -- and every policy's
        # tie-break -- is first-come-first-served even when the trace is not
        # sorted by arrival.
        order, arrivals, tenants, sessions, priorities, weights, costs = (
            self._arrival_columns(trace)
        )
        num_events = len(arrivals)
        next_arrival = 0
        resident: dict = {}
        boards = BoardIndex(range(self.num_boards), resident=resident)
        place, release = boards.place, boards.release
        free_boards = self.num_boards
        queued = 0
        busy: list = []  # (finish_s, board) min-heap
        heappush, heappop = heapq.heappush, heapq.heappop
        # Builds a JobRequest without the named tuple's Python-level
        # __new__: the same type and an equal value, in under half the time.
        new_request = tuple.__new__
        admitted: set = set()
        # Aggregates (always accumulated -- they are three ops per job).
        waits: list = []
        add_wait = waits.append
        board_busy: dict = {}
        warm_hits = 0
        now = 0.0
        while True:
            while next_arrival < num_events and arrivals[next_arrival] <= now:
                session = sessions[next_arrival]
                if traced and session not in admitted:
                    # First arrival of a session stands in for tenant
                    # admission (the functional service admits before any job
                    # is submitted, so modelled admission is instantaneous).
                    admitted.add(session)
                    tracer.record_span(
                        "admit", arrivals[next_arrival], 0.0,
                        tenant=tenants[next_arrival], session=session,
                    )
                row = order[next_arrival]
                push(
                    new_request(JobRequest, (
                        f"trace-{row}",
                        tenants[next_arrival],
                        session,
                        next_arrival,
                        priorities[next_arrival],
                        weights[next_arrival],
                        costs[next_arrival],
                    )),
                    row,
                )
                queued += 1
                next_arrival += 1
            while queued and free_boards:
                queued -= 1
                free_boards -= 1
                request, row = pop()
                session = request.session_id
                board = place(session, affinity)
                warm = affinity and resident[board] == session
                load = 0.0 if warm else load_cost
                finish = now + load + request.cost_estimate
                heappush(busy, (finish, board))
                resident[board] = session if affinity else None
                arrival = arrivals[request.seq]
                if traced:
                    self._emit_job_events(
                        tracer, request, arrival, board, now, load, finish, warm
                    )
                if warm:
                    warm_hits += 1
                add_wait(now - arrival)
                board_busy[board] = board_busy.get(board, 0.0) + (finish - now)
                if rows is not None:
                    rows.append((row, board, now, finish, warm, load))
            # Nothing placeable: advance time to the next arrival or finish,
            # releasing boards in deterministic (finish, board-index) order.
            if next_arrival < num_events:
                frontier = arrivals[next_arrival]
                if busy and busy[0][0] < frontier:
                    frontier = busy[0][0]
            elif busy:
                frontier = busy[0][0]
            else:
                break
            now = frontier
            while busy and busy[0][0] <= now:
                release(heappop(busy)[1])
                free_boards += 1
        return ReplayStats(
            jobs=len(waits),
            makespan_s=now,
            waits=waits,
            board_busy_s=board_busy,
            warm_hits=warm_hits,
            boards=self.num_boards,
        )

    def _emit_job_events(
        self, tracer, request, arrival, board, start, load, finish, warm
    ) -> None:
        """Publish one placed job's lifecycle with modelled timestamps.

        The span names, ordering, and attribution mirror what the functional
        service records while actually executing the job; data-movement
        stages the timing model does not price separately (``place``,
        ``input_seal``, ``download``, ``output_unseal``) are emitted with
        zero duration so the stream still covers every lifecycle stage.
        """
        t, s, j = request.tenant, request.session_id, request.key
        b = f"board-{board}"
        loaded = start + load
        execute_s = finish - start - load
        # Events are built positionally in one batched append rather than
        # through tracer.record_span: eight spans per job on the replay hot
        # path is exactly where the <=15% enabled-overhead budget is won or
        # lost.
        tracer.events.extend([
            ObsEvent(arrival, SPAN, "queue", start - arrival, t, s, j, b),
            ObsEvent(start, SPAN, "place", 0.0, t, s, j, b),
            ObsEvent(start, SPAN, "shield_load", load, t, s, j, b, {"warm": warm}),
            ObsEvent(loaded, SPAN, "input_seal", 0.0, t, s, j, b),
            ObsEvent(loaded, SPAN, "execute", execute_s, t, s, j, b),
            ObsEvent(finish, SPAN, "download", 0.0, t, s, j, b),
            ObsEvent(finish, SPAN, "output_unseal", 0.0, t, s, j, b),
            ObsEvent(
                arrival, SPAN, "job", finish - arrival, t, s, j, b,
                {"warm": warm, "completed": True},
            ),
        ])

    def replay_experiment(
        self, trace, experiment_id: str = "cloud-trace"
    ) -> ExperimentResult:
        """Replay and package the outcome as a renderable/exportable experiment.

        ``trace`` is a :class:`Trace` or a :class:`TraceEvent` list.
        """
        trace = _as_trace(trace)
        rows: list = []
        stats = self._replay(trace, rows)
        if not stats.jobs:
            raise SimulationError("cannot replay an empty trace")
        arrival = trace.arrival.tolist()
        tenant = [trace.tenants[index] for index in trace.tenant.tolist()]
        profile = trace.profile.tolist()
        workloads = [pair[0].name for pair in trace.profiles]
        busy = sum(stats.board_busy_s.values())
        tenant_fairness = {}
        for row, _, start, finish, _, _ in rows:
            entry = tenant_fairness.setdefault(tenant[row], {"jobs": 0, "busy_s": 0.0})
            entry["jobs"] += 1
            entry["busy_s"] += finish - start
        for entry in tenant_fairness.values():
            entry["busy_s"] = round(entry["busy_s"], 3)
            entry["service_share"] = round(entry["busy_s"] / busy, 3) if busy else 0.0
        result = ExperimentResult(
            experiment_id=experiment_id,
            description=(
                f"{stats.jobs} jobs from {len(tenant_fairness)} tenants on "
                f"{self.num_boards} boards ({self.policy} policy, "
                f"affinity {'on' if self.affinity else 'off'})"
            ),
            metadata={
                "num_boards": self.num_boards,
                "policy": self.policy,
                "affinity": self.affinity,
                "makespan_s": round(stats.makespan_s, 3),
                "board_utilization": round(stats.utilization, 3),
                "mean_wait_s": round(sum(stats.waits) / stats.jobs, 3),
                "wait_p50_s": round(stats.wait_percentile(50.0), 3),
                "wait_p99_s": round(stats.wait_percentile(99.0), 3),
                "shield_loads": stats.shield_loads,
                "affinity_hits": stats.warm_hits,
                "affinity_hit_rate": round(stats.affinity_hit_rate, 3),
                "tenant_fairness": tenant_fairness,
            },
        )
        for row, board, start, finish, warm, load in rows:
            result.add_row(
                tenant=tenant[row],
                workload=workloads[profile[row]],
                board=board,
                warm=warm,
                arrival_s=round(arrival[row], 3),
                wait_s=round(start - arrival[row], 3),
                load_s=round(load, 3),
                service_s=round(finish - start, 3),
                turnaround_s=round(finish - arrival[row], 3),
            )
        return result


def default_profile_pool() -> list:
    """``(profile, shield_config)`` pairs from the three paper accelerators.

    Imported lazily (accelerators pull in the crypto stack) and built once
    per call.  A generated trace's profile table is the pool itself, so a
    replay prices each pair once.
    """
    from repro.accelerators import (
        AffineTransformAccelerator,
        MatMulAccelerator,
        VectorAddAccelerator,
    )

    pool = []
    for accelerator in (
        VectorAddAccelerator(256 * 1024),
        MatMulAccelerator(128),
        AffineTransformAccelerator(128),
    ):
        pool.append((accelerator.profile(), accelerator.paper_shield_config()))
    return pool


def default_mixed_trace(jobs_per_tenant: int = 3, arrival_gap_s: float = 2.0) -> list:
    """A deterministic mixed-tenant trace over three paper workloads.

    Three tenants (vector add, matmul, affine -- the
    :func:`default_profile_pool`) interleave their arrivals so that the fleet
    sees alternating streaming- and random-access traffic -- the
    NanoZone-style many-tenant pressure the cloud layer exists to absorb.
    """
    tenants = list(zip(("tenant-vadd", "tenant-matmul", "tenant-affine"), default_profile_pool()))
    trace = []
    for round_index in range(jobs_per_tenant):
        for tenant_index, (tenant, (profile, config)) in enumerate(tenants):
            trace.append(
                TraceEvent(
                    arrival_s=(round_index * len(tenants) + tenant_index) * arrival_gap_s,
                    tenant=tenant,
                    profile=profile,
                    shield_config=config,
                )
            )
    return trace


def repeated_tenant_trace(num_jobs: int = 8, arrival_gap_s: float = 1.0) -> list:
    """One tenant submitting ``num_jobs`` back-to-back jobs.

    The warm-affinity showcase: without affinity every job pays the ~6.2 s
    Shield load; with affinity the fleet pays it once per board the session
    touches, so makespan collapses from N reconfigurations to one.
    """
    from repro.accelerators import VectorAddAccelerator

    accelerator = VectorAddAccelerator(256 * 1024)
    profile = accelerator.profile()
    config = accelerator.paper_shield_config()
    return [
        TraceEvent(
            arrival_s=index * arrival_gap_s,
            tenant="tenant-repeat",
            profile=profile,
            shield_config=config,
        )
        for index in range(num_jobs)
    ]


def cloud_trace_experiment(
    num_boards: int = 2, policy="fifo", affinity: bool = True
) -> ExperimentResult:
    """The CLI-facing experiment: replay the default mixed trace on a fleet."""
    simulator = CloudSimulator(num_boards=num_boards, policy=policy, affinity=affinity)
    return simulator.replay_experiment(default_mixed_trace())
