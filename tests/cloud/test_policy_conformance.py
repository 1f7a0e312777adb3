"""Policy conformance: one scheduling core, two consumers, zero divergence.

The same mixed-tenant job set runs under every policy in the zoo, through
both consumers of :mod:`repro.cloud.policies`:

* the functional :class:`~repro.cloud.service.ShieldCloudService` (real
  bytes, real crypto) -- asserting job conservation (no loss, no
  duplication) and the tenant-isolation invariant (``plaintext_exposures``
  stays empty), and
* the timed :class:`~repro.sim.cloud.CloudSimulator` -- asserting that the
  *same trace under the same policy* yields the same job order, the same
  board placements, and the same warm/cold decisions.

The lockstep comparisons run where the two worlds are commensurable: the
functional service executes serially, so the simulator is compared on a
single board (every policy-ordering decision exercised, queue fully loaded)
and on a multi-board fleet with serialized arrivals (every affinity-placement
decision exercised).  Both consumers import the selection and placement code
from the same module, so there is no duplicated scheduling logic left to
drift.
"""

from __future__ import annotations

import heapq

import pytest

from repro.accelerators import (
    AffineTransformAccelerator,
    MatMulAccelerator,
    VectorAddAccelerator,
)
from repro.cloud import JobState, ShieldCloudService
from repro.cloud.policies import POLICY_NAMES, BoardIndex, FifoPolicy
from repro.errors import SchedulingError
from repro.sim.cloud import CloudSimulator, TraceEvent

#: (tenant, input seed, priority) -- a deliberately adversarial interleaving:
#: one tenant floods early, priorities are non-monotonic, costs differ.
JOB_SPECS = [
    ("alice", 0, 0),
    ("alice", 1, 2),
    ("bob", 0, 1),
    ("carol", 0, 3),
    ("bob", 1, 0),
    ("carol", 1, 2),
]


def _accelerators():
    return {
        "alice": VectorAddAccelerator(8 * 1024),
        "bob": MatMulAccelerator(32),
        "carol": AffineTransformAccelerator(64),
    }


def _build_world(num_boards: int, policy: str):
    """A service with one session per tenant, plus per-tenant accelerators."""
    accelerators = _accelerators()
    service = ShieldCloudService(num_boards=num_boards, policy=policy, affinity=True)
    sessions = {
        tenant: service.admit_tenant(tenant, accelerator)
        for tenant, accelerator in accelerators.items()
    }
    return service, sessions, accelerators


def _trace_and_costs(simulator, sessions, accelerators, specs, arrival_gap_s=0.0):
    """Matching TraceEvents (simulator) and cost estimates (service)."""
    events, costs = [], []
    for index, (tenant, _seed, priority) in enumerate(specs):
        accelerator = accelerators[tenant]
        event = TraceEvent(
            arrival_s=index * arrival_gap_s,
            tenant=tenant,
            profile=accelerator.profile(),
            shield_config=accelerator.paper_shield_config(),
            session_id=sessions[tenant].session_id,
            priority=priority,
        )
        events.append(event)
        costs.append(simulator.execution_seconds(event))
    return events, costs


def _submit_all(service, sessions, accelerators, specs, costs):
    jobs = []
    for (tenant, seed, priority), cost in zip(specs, costs):
        accelerator = accelerators[tenant]
        jobs.append(
            service.submit_job(
                sessions[tenant].session_id,
                inputs=accelerator.prepare_inputs(seed=seed),
                priority=priority,
                cost_estimate=cost,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# Functional invariants under every policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_job_conservation_and_isolation_under_every_policy(policy):
    service, sessions, accelerators = _build_world(num_boards=2, policy=policy)
    all_inputs = []
    jobs = []
    for tenant, seed, priority in JOB_SPECS:
        inputs = accelerators[tenant].prepare_inputs(seed=seed)
        all_inputs.append(inputs)
        jobs.append(
            service.submit_job(
                sessions[tenant].session_id, inputs=inputs, priority=priority
            )
        )
    finished = service.run_until_idle()

    # Conservation: every submitted job ran exactly once, none invented.
    assert sorted(job.job_id for job in finished) == sorted(job.job_id for job in jobs)
    assert len({job.job_id for job in finished}) == len(JOB_SPECS)
    assert all(job.state is JobState.COMPLETED for job in jobs), [
        (job.job_id, job.error) for job in jobs if job.state is not JobState.COMPLETED
    ]
    assert service.stats.jobs_submitted == len(JOB_SPECS)
    assert service.stats.jobs_submitted == (
        service.stats.jobs_completed
        + service.stats.jobs_failed
        + service.stats.jobs_cancelled
        + service.stats.jobs_rejected
    )
    # Per-tenant bills add up to the fleet totals (no cross-tenant bleed).
    per_tenant = sum(s.usage.jobs_completed for s in sessions.values())
    assert per_tenant == service.stats.jobs_completed

    # Isolation: the untrusted host never saw a byte of any tenant's inputs,
    # under any scheduling order.
    for inputs in all_inputs:
        for plaintext in inputs.values():
            assert service.plaintext_exposures(plaintext) == []


# ---------------------------------------------------------------------------
# Functional <-> simulator lockstep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_job_order_matches_simulator_on_a_loaded_single_board(policy):
    """All jobs queued up-front on one board: every ordering decision the
    policy makes must be identical in the functional run and the replay."""
    service, sessions, accelerators = _build_world(num_boards=1, policy=policy)
    simulator = CloudSimulator(num_boards=1, policy=policy, affinity=True)
    events, costs = _trace_and_costs(
        simulator, sessions, accelerators, JOB_SPECS, arrival_gap_s=0.0
    )
    jobs = _submit_all(service, sessions, accelerators, JOB_SPECS, costs)
    finished = service.run_until_idle()
    records = simulator.replay(events)

    assert len(finished) == len(records) == len(JOB_SPECS)
    functional = [(job.tenant, job.warm_start) for job in finished]
    simulated = [(record.tenant, record.warm) for record in records]
    assert functional == simulated
    assert all(job.state is JobState.COMPLETED for job in jobs)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_placements_match_simulator_under_serialized_arrivals(policy):
    """Wide fleet, arrivals far apart: every warm-affinity *placement*
    decision must be identical in the functional run and the replay."""
    specs = [
        ("alice", 0, 1),
        ("alice", 1, 0),
        ("bob", 0, 2),
        ("alice", 2, 0),
        ("bob", 1, 1),
        ("alice", 3, 0),
    ]
    service, sessions, accelerators = _build_world(num_boards=3, policy=policy)
    simulator = CloudSimulator(num_boards=3, policy=policy, affinity=True)
    # Gaps far larger than any service time serialize the simulated fleet;
    # submitting and draining one job at a time serializes the functional
    # service the same way, so each placement decision in both worlds sees
    # one job and the same free-board / residency state.
    events, costs = _trace_and_costs(
        simulator, sessions, accelerators, specs, arrival_gap_s=10_000.0
    )
    jobs, finished = [], []
    for (tenant, seed, priority), cost in zip(specs, costs):
        accelerator = accelerators[tenant]
        jobs.append(
            service.submit_job(
                sessions[tenant].session_id,
                inputs=accelerator.prepare_inputs(seed=seed),
                priority=priority,
                cost_estimate=cost,
            )
        )
        finished.extend(service.run_until_idle())
    records = simulator.replay(events)

    functional = [
        (job.tenant, int(job.board_name.split("-")[1]), job.warm_start)
        for job in finished
    ]
    simulated = [(r.tenant, r.board, r.warm) for r in records]
    assert functional == simulated
    # The repeated tenant actually exercised affinity: at least one warm hit.
    assert any(job.warm_start for job in jobs)


# ---------------------------------------------------------------------------
# Indexed queues <-> linear scans
# ---------------------------------------------------------------------------


class _LinearOracle:
    """The reference every policy's queue must match: a plain list scanned
    for the minimum of one rank key per policy on every pick (O(n) per pop,
    so test-sized queues only)."""

    def __init__(self, policy: str):
        self.served: dict = {}
        self.entries: list = []
        self.rank = {
            "fifo": lambda r: r.seq,
            "priority": lambda r: (-r.priority, r.seq),
            "sjf": lambda r: (r.cost_estimate, r.seq),
            "fair": lambda r: (
                self.served.get(r.tenant, 0.0) / max(r.weight, 1e-12), r.seq
            ),
        }[policy]

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, request, payload) -> None:
        self.entries.append((request, payload))

    def pop(self, eligible=None):
        candidates = [e for e in self.entries if eligible is None or eligible(e[1])]
        if not candidates:
            return None
        entry = min(candidates, key=lambda e: self.rank(e[0]))
        self.entries.remove(entry)
        request = entry[0]
        self.served[request.tenant] = (
            self.served.get(request.tenant, 0.0) + request.cost_estimate
        )
        return entry

    def remove(self, predicate) -> list:
        removed = [e for e in self.entries if predicate(e[1])]
        self.entries = [e for e in self.entries if not predicate(e[1])]
        return removed


def _random_request(rng, seq: int):
    """Deliberately collision-heavy metadata: few distinct priorities,
    weights, and costs, so seq tie-breaks decide most picks -- exactly where
    an indexed queue could silently diverge from the linear scan."""
    from repro.cloud.policies import JobRequest

    return JobRequest(
        key=f"job-{seq}",
        tenant=f"tenant-{rng.randrange(4)}",
        session_id=f"session-{rng.randrange(6)}",
        seq=seq,
        priority=rng.randrange(3),
        weight=float(rng.choice((1, 2, 4))),
        cost_estimate=float(rng.choice((1.0, 2.5, 4.0))),
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_indexed_queue_matches_linear_scan_on_randomized_queues(policy):
    """Every built-in policy's indexed queue must be *selection-identical*
    (seq tie-breaks included) to a linear scan with the policy's rank key.

    The policy and the :class:`_LinearOracle` run the same randomized
    operation stream, and every pop, filtered pop, removal, and queue length
    must agree exactly.
    """
    import random

    from repro.cloud.policies import make_policy

    policy_index = list(POLICY_NAMES).index(policy)
    for trial in range(8):
        rng = random.Random(1009 * (policy_index + 1) + trial)
        indexed = make_policy(policy)
        linear = _LinearOracle(policy)
        seq = 0
        for _ in range(300):
            action = rng.random()
            if action < 0.55 or not len(indexed):
                seq += 1
                request = _random_request(rng, seq)
                # Payload mirrors the scheduler: the job object itself (the
                # ``remove`` predicate receives payloads, not requests).
                indexed.push(request, request)
                linear.push(request, request)
            elif action < 0.80:
                picked = indexed.pop()
                reference = linear.pop()
                assert (picked is None) == (reference is None)
                if picked is not None:
                    assert picked[0] == reference[0], (
                        f"{policy}: indexed picked {picked[0].key}, "
                        f"linear picked {reference[0].key}"
                    )
                    assert picked[1] == reference[1]
            elif action < 0.92:
                # The async front-end's in-flight-session filter.
                blocked = f"session-{rng.randrange(6)}"
                eligible = lambda r, b=blocked: r.session_id != b  # noqa: E731
                picked = indexed.pop(eligible)
                reference = linear.pop(eligible)
                assert (picked is None) == (reference is None)
                if picked is not None:
                    assert picked[0] == reference[0]
                    assert picked[0].session_id != blocked
            else:
                # Session-teardown cancellation.
                doomed = f"session-{rng.randrange(6)}"
                predicate = lambda r, d=doomed: r.session_id == d  # noqa: E731
                removed = {r.key for r, _ in indexed.remove(predicate)}
                expected = {r.key for r, _ in linear.remove(predicate)}
                assert removed == expected
            assert len(indexed) == len(linear)
        # Drain to empty: the full remaining order must agree.
        while len(linear):
            picked = indexed.pop()
            reference = linear.pop()
            assert picked is not None and picked[0] == reference[0]
        assert indexed.pop() is None and linear.pop() is None


def test_fifo_unfiltered_pop_matches_an_always_true_filter():
    """``pop()`` takes the deque's left end directly; ``pop(eligible)``
    walks it.  With a filter that admits every job the two must return the
    same stream, out-of-order pushes, cancellations and an empty queue
    included."""
    import random

    rng = random.Random(2029)
    direct, filtered = FifoPolicy(), FifoPolicy()
    seqs = list(range(400))
    rng.shuffle(seqs)
    for seq in seqs:
        if rng.random() < 0.6:
            request = _random_request(rng, seq)
            direct.push(request, seq)
            filtered.push(request, seq)
        elif rng.random() < 0.9:
            assert direct.pop() == filtered.pop(lambda _: True)
        else:
            doomed = seq % 7
            assert direct.remove(lambda row, d=doomed: row % 7 == d) == filtered.remove(
                lambda row, d=doomed: row % 7 == d
            )
        assert len(direct) == len(filtered)
    while len(filtered):
        assert direct.pop() == filtered.pop(lambda _: True)
    assert direct.pop() is None and filtered.pop(lambda _: True) is None
    assert len(direct) == 0


# ---------------------------------------------------------------------------
# Board index on deques <-> min-stamp heaps
# ---------------------------------------------------------------------------


class _HeapBoardIndex:
    """The reference :class:`~repro.cloud.policies.BoardIndex` must match:
    the free fleet and each session's warm candidates in min-stamp heaps,
    trusted lazily (an entry counts only while its board is free under the
    same stamp and, for a warm entry, still resident for that session)."""

    def __init__(self, names, resident):
        self.resident = resident
        self._next_stamp = 0
        self._free: dict = {}
        self._free_heap: list = []
        self._warm: dict = {}
        for name in names:
            self.resident.setdefault(name, None)
            self.release(name)

    def __len__(self) -> int:
        return len(self._free)

    def release(self, name) -> None:
        stamp = self._next_stamp
        self._next_stamp += 1
        self._free[name] = stamp
        heapq.heappush(self._free_heap, (stamp, name))
        session = self.resident.get(name)
        if session is not None:
            heapq.heappush(self._warm.setdefault(session, []), (stamp, name))

    def place(self, session_id, prefer_affinity: bool = True):
        if prefer_affinity:
            heap = self._warm.get(session_id)
            while heap:
                stamp, name = heap[0]
                if self._free.get(name) == stamp and self.resident.get(name) == session_id:
                    heapq.heappop(heap)
                    if not heap:
                        del self._warm[session_id]
                    del self._free[name]
                    return name
                heapq.heappop(heap)
            if heap is not None and not heap:
                self._warm.pop(session_id, None)
        while self._free_heap:
            stamp, name = heapq.heappop(self._free_heap)
            if self._free.get(name) == stamp:
                del self._free[name]
                return name
        raise SchedulingError("place() needs at least one available board")


def _placed(index, session, affinity):
    """``index.place``'s board, or the type of the error it raised."""
    try:
        return index.place(session, affinity)
    except SchedulingError as error:
        return type(error)


def test_board_index_matches_heap_reference_on_randomized_streams():
    """The deque :class:`~repro.cloud.policies.BoardIndex` and the heap
    reference run the same seeded stream and must agree on every pick, every
    error and every free count.  The stream writes residency the way both
    consumers do: the simulator right after ``place``, ``FleetScheduler``
    at ``release`` (kept warm only on success) and in ``evict`` (any board,
    busy or free)."""
    import random

    for trial in range(12):
        rng = random.Random(4099 + trial)
        names = [f"board-{index}" for index in range(rng.randint(1, 6))]
        sessions = [f"session-{index}" for index in range(rng.randint(1, 5))]
        initial = {name: rng.choice([None, *sessions]) for name in names}
        indexes = (BoardIndex(names, resident=dict(initial)), _HeapBoardIndex(names, dict(initial)))
        busy: list = []
        for _ in range(600):
            action = rng.random()
            if action < 0.45 or not busy:
                session = rng.choice(sessions)
                affinity = rng.random() < 0.8
                picks = [_placed(index, session, affinity) for index in indexes]
                assert picks[0] == picks[1], (trial, session, affinity)
                if isinstance(picks[0], str):
                    busy.append((picks[0], session))
                    if rng.random() < 0.5:
                        for index in indexes:
                            index.resident[picks[0]] = session
            elif action < 0.85:
                board, session = busy.pop(rng.randrange(len(busy)))
                kept = session if rng.random() < 0.7 else None
                for index in indexes:
                    index.resident[board] = kept
                    index.release(board)
            else:
                board = rng.choice(names)
                for index in indexes:
                    index.resident[board] = None
            assert len(indexes[0]) == len(indexes[1]) == len(names) - len(busy)
