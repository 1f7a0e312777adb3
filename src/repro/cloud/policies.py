"""The shared scheduling core: one policy implementation, two consumers.

Scheduling logic used to live twice -- functionally in
:class:`~repro.cloud.scheduler.FleetScheduler` (which moves real bytes) and
analytically in :class:`~repro.sim.cloud.CloudSimulator` (which prices time)
-- and the two could silently diverge.  This module is the single source of
truth both import:

* a **policy zoo** deciding *which* queued job runs next -- FIFO, strict
  priority, weighted fair-share per tenant, and shortest-job-first -- over a
  neutral :class:`JobRequest` view that either consumer can build from its
  own job representation, and
* a **placement rule**, :func:`choose_board`, deciding *where* the job runs:
  among the available boards, prefer one whose resident (warm) Shield already
  belongs to the job's session, otherwise the longest-idle board.  Warm
  placement is what turns the paper's ~6.2 s partial-reconfiguration Shield
  load (Section 6.1) from a per-job cost into a per-session one.

Policies are small stateful objects (weighted fair-share accumulates served
cost per tenant), so each scheduler or simulator instantiates its own via
:func:`make_policy` and replays stay deterministic.

Selection used to be a linear ``min()`` scan over a queue snapshot on every
dispatch -- O(n) per pick, O(n^2) per drained queue -- which capped replays at
thousands of jobs.  Each policy now also vends an **indexed queue**
(:meth:`SchedulingPolicy.make_queue`): FIFO rides a deque, priority and SJF
ride lazy-deletion heaps, and weighted fair-share rides a lazily re-keyed
heap, so both consumers pick the next job in O(log n) while staying
*selection-identical* to the linear scans (the conformance suite asserts it,
seq tie-breaks included).  :class:`BoardIndex` does the same for placement:
instead of rebuilding a :class:`BoardView` list per dispatch it keeps the
free fleet and the per-session warm boards in incrementally maintained heaps.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import SchedulingError


@dataclass(frozen=True, slots=True)
class JobRequest:
    """A policy's view of one queued job (no bytes, no Shield, no board)."""

    key: str
    tenant: str
    session_id: str
    #: Monotonic submission sequence number -- the FIFO axis and the
    #: deterministic tie-break for every other policy.
    seq: int
    #: Larger runs earlier under :class:`PriorityPolicy`.
    priority: int = 0
    #: Fair-share weight of the job's tenant (> 0).
    weight: float = 1.0
    #: Estimated service cost: modelled seconds in the simulator, a
    #: caller-supplied estimate (default 1.0 == "count jobs") functionally.
    cost_estimate: float = 1.0


@dataclass(frozen=True)
class BoardView:
    """A policy's view of one *available* board at placement time."""

    name: str
    #: Preference order among the available boards (0 = longest idle /
    #: earliest released).  Ties never occur: ranks are distinct by
    #: construction.
    rank: int
    #: Session whose Shield is still resident (warm) on the board, if any.
    resident_session: Optional[str] = None


class SchedulingPolicy:
    """Base class: pick the next job out of the queue.

    ``select`` returns an *index* into the queue snapshot it is given; the
    caller pops that entry.  ``record_service`` feeds served cost back so
    stateful policies (fair-share) can steer future picks; stateless policies
    ignore it.
    """

    name = "base"

    def select(self, queue: Sequence[JobRequest]) -> int:
        raise NotImplementedError

    def record_service(self, request: JobRequest, cost: Optional[float] = None) -> None:
        """Account ``cost`` (default: the request's estimate) as served."""

    def snapshot(self) -> dict:
        """Policy-internal state for reporting (empty for stateless policies)."""
        return {}

    def make_queue(self) -> "PolicyQueue":
        """An indexed queue bound to this policy instance.

        The base implementation wraps :meth:`select` in a linear-scan queue,
        so third-party policies work unchanged; the built-in policies
        override it with O(log n) structures that are selection-identical to
        their linear scans.
        """
        return LinearPolicyQueue(self)


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order (the seed's only behaviour)."""

    name = "fifo"

    def select(self, queue: Sequence[JobRequest]) -> int:
        return min(range(len(queue)), key=lambda i: queue[i].seq)

    def make_queue(self) -> "PolicyQueue":
        return FifoQueue(self)


class PriorityPolicy(SchedulingPolicy):
    """Highest priority first; FIFO among equals."""

    name = "priority"

    def select(self, queue: Sequence[JobRequest]) -> int:
        return min(range(len(queue)), key=lambda i: (-queue[i].priority, queue[i].seq))

    def make_queue(self) -> "PolicyQueue":
        return HeapPolicyQueue(self, lambda r: (-r.priority, r.seq))


class ShortestJobFirstPolicy(SchedulingPolicy):
    """Smallest estimated cost first; FIFO among equals (minimizes mean wait)."""

    name = "sjf"

    def select(self, queue: Sequence[JobRequest]) -> int:
        return min(range(len(queue)), key=lambda i: (queue[i].cost_estimate, queue[i].seq))

    def make_queue(self) -> "PolicyQueue":
        return HeapPolicyQueue(self, lambda r: (r.cost_estimate, r.seq))


class WeightedFairSharePolicy(SchedulingPolicy):
    """Serve the tenant with the smallest weighted served cost.

    Each tenant accumulates ``served / weight``; the next job comes from the
    queued tenant with the lowest normalized share (FIFO within a tenant, and
    FIFO between tenants at equal share).  With unit costs and unit weights
    this degrades to round-robin over tenants -- the textbook max-min share.
    """

    name = "fair"

    def __init__(self) -> None:
        self._served: dict = {}

    def select(self, queue: Sequence[JobRequest]) -> int:
        def rank(i: int):
            request = queue[i]
            share = self._served.get(request.tenant, 0.0) / max(request.weight, 1e-12)
            return (share, request.seq)

        return min(range(len(queue)), key=rank)

    def record_service(self, request: JobRequest, cost: Optional[float] = None) -> None:
        amount = request.cost_estimate if cost is None else cost
        self._served[request.tenant] = self._served.get(request.tenant, 0.0) + amount

    def snapshot(self) -> dict:
        return {"served": dict(self._served)}

    def make_queue(self) -> "PolicyQueue":
        return FairShareQueue(self)


# ---------------------------------------------------------------------------
# Indexed policy queues: O(log n) selection, selection-identical to select()
# ---------------------------------------------------------------------------


class PolicyQueue:
    """An incrementally indexed job queue bound to one policy instance.

    The linear protocol (snapshot the queue, ``select`` an index, pop it)
    re-ranks every queued job on every dispatch; at 10^5-job replay depths
    that is quadratic.  A ``PolicyQueue`` keeps the ranking structure *live*
    across dispatches: ``push`` indexes one arrival, ``pop`` removes and
    returns the exact job ``select`` would have picked.

    ``payload`` is whatever the consumer wants back alongside the
    :class:`JobRequest` (the functional scheduler stores the
    ``AcceleratorJob``, the simulator its ``TraceEvent``); ``pop``'s optional
    ``eligible`` predicate is called with the payload and skips jobs without
    disturbing their relative order.  ``remove`` supports cancellation by
    predicate; per-tenant pending counts are maintained so admission quotas
    stay O(1).
    """

    def __init__(self, policy: SchedulingPolicy):
        self.policy = policy
        self._len = 0
        self._tenant_pending: dict = {}

    # -- bookkeeping shared by every implementation --------------------------------

    def _count(self, request: JobRequest, delta: int) -> None:
        self._len += delta
        tenant = request.tenant
        pending = self._tenant_pending.get(tenant, 0) + delta
        if pending:
            self._tenant_pending[tenant] = pending
        else:
            self._tenant_pending.pop(tenant, None)

    def __len__(self) -> int:
        return self._len

    def pending_for(self, tenant: str) -> int:
        """Queued jobs of one tenant (kept incrementally -- O(1))."""
        return self._tenant_pending.get(tenant, 0)

    # -- the queue protocol --------------------------------------------------------

    def push(self, request: JobRequest, payload=None) -> None:
        raise NotImplementedError

    def pop(self, eligible=None) -> Optional[tuple]:
        """Remove and return ``(request, payload)`` for the policy's pick.

        Returns ``None`` when the queue is empty or no queued payload passes
        ``eligible``; skipped jobs keep their position.
        """
        raise NotImplementedError

    def remove(self, predicate=None) -> list:
        """Remove every ``(request, payload)`` whose *payload* matches.

        ``None`` removes everything.  Survivors keep their relative order, so
        policy tie-breaks are unchanged -- the contract ``cancel_queued``
        relies on.
        """
        raise NotImplementedError


class LinearPolicyQueue(PolicyQueue):
    """The compatibility queue: a list snapshot driven by ``policy.select``.

    O(n) per pick -- exactly the pre-indexed behaviour -- which makes it both
    the fallback for third-party policies that only implement ``select`` and
    the reference the conformance suite replays against the indexed queues.
    """

    def __init__(self, policy: SchedulingPolicy):
        super().__init__(policy)
        self._entries: list = []

    def push(self, request: JobRequest, payload=None) -> None:
        self._entries.append((request, payload))
        self._count(request, +1)

    def pop(self, eligible=None) -> Optional[tuple]:
        if eligible is None:
            candidates = list(enumerate(self._entries))
        else:
            candidates = [
                (index, entry)
                for index, entry in enumerate(self._entries)
                if eligible(entry[1])
            ]
        if not candidates:
            return None
        picked = self.policy.select([entry[0] for _, entry in candidates])
        index, entry = candidates[picked]
        del self._entries[index]
        self._count(entry[0], -1)
        return entry

    def remove(self, predicate=None) -> list:
        removed, kept = [], []
        for entry in self._entries:
            if predicate is None or predicate(entry[1]):
                removed.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        for request, _ in removed:
            self._count(request, -1)
        return removed


class FifoQueue(PolicyQueue):
    """Arrival order on a deque: O(1) push/pop on the hot path.

    Entries are kept sorted by ``seq``; consumers push in submission order so
    the append is O(1), and an out-of-order push (shuffled test traces)
    degrades gracefully to an ordered insert.  Cancelled entries are marked
    dead in place and skipped at pop time (lazy deletion).
    """

    def __init__(self, policy: SchedulingPolicy):
        super().__init__(policy)
        #: [request, payload, live] cells, ascending seq.
        self._entries: deque = deque()

    def push(self, request: JobRequest, payload=None) -> None:
        cell = [request, payload, True]
        if self._entries and self._entries[-1][0].seq > request.seq:
            tail = []
            while self._entries and self._entries[-1][0].seq > request.seq:
                tail.append(self._entries.pop())
            self._entries.append(cell)
            while tail:
                self._entries.append(tail.pop())
        else:
            self._entries.append(cell)
        self._count(request, +1)

    def pop(self, eligible=None) -> Optional[tuple]:
        skipped = []
        found = None
        while self._entries:
            cell = self._entries.popleft()
            if not cell[2]:
                continue
            if eligible is not None and not eligible(cell[1]):
                skipped.append(cell)
                continue
            found = cell
            break
        while skipped:
            self._entries.appendleft(skipped.pop())
        if found is None:
            return None
        self._count(found[0], -1)
        return found[0], found[1]

    def remove(self, predicate=None) -> list:
        removed = []
        for cell in self._entries:
            if cell[2] and (predicate is None or predicate(cell[1])):
                cell[2] = False
                removed.append((cell[0], cell[1]))
                self._count(cell[0], -1)
        if removed:
            self._entries = deque(cell for cell in self._entries if cell[2])
        return removed


class HeapPolicyQueue(PolicyQueue):
    """A lazy-deletion binary heap ordered by a per-request key.

    ``key_fn`` must end its tuple with ``request.seq`` so keys are unique
    (the heap never falls through to comparing payloads) and tie-breaks match
    the linear scans exactly.  Cancellation marks the cell dead; dead cells
    are discarded when they surface at the top.
    """

    def __init__(self, policy: SchedulingPolicy, key_fn):
        super().__init__(policy)
        self._key = key_fn
        self._heap: list = []

    def push(self, request: JobRequest, payload=None) -> None:
        heapq.heappush(self._heap, (self._key(request), [request, payload, True]))
        self._count(request, +1)

    def pop(self, eligible=None) -> Optional[tuple]:
        skipped = []
        found = None
        while self._heap:
            key, cell = heapq.heappop(self._heap)
            if not cell[2]:
                continue
            if eligible is not None and not eligible(cell[1]):
                skipped.append((key, cell))
                continue
            found = cell
            break
        for item in skipped:
            heapq.heappush(self._heap, item)
        if found is None:
            return None
        self._count(found[0], -1)
        return found[0], found[1]

    def remove(self, predicate=None) -> list:
        removed = []
        for _, cell in self._heap:
            if cell[2] and (predicate is None or predicate(cell[1])):
                cell[2] = False
                removed.append((cell[0], cell[1]))
                self._count(cell[0], -1)
        if removed and self._len * 2 < len(self._heap):
            # Mostly dead: compact so lazy deletion cannot leak unbounded.
            self._heap = [item for item in self._heap if item[1][2]]
            heapq.heapify(self._heap)
        return removed


class _TenantSubqueue:
    """One tenant's queued cells, indexed for both fair-share regimes.

    The fair rank of a queued job is ``(served[tenant] / weight, seq)``.
    Within one tenant ``served`` is common to every cell, so the tenant's
    best cell is order-invariant under service: while ``served == 0`` every
    share ties at zero and the minimum is the lowest ``seq``; once
    ``served > 0`` the minimum share belongs to the largest ``weight``
    (lowest ``seq`` among equals) *regardless of the value of served*.  Two
    heaps over the same cells -- one by ``seq``, one by ``(-weight, seq)`` --
    therefore stay valid forever; dead cells are skimmed lazily.
    """

    __slots__ = ("by_seq", "by_weight")

    def __init__(self):
        self.by_seq: list = []
        self.by_weight: list = []

    def push(self, cell) -> None:
        request = cell[0]
        heapq.heappush(self.by_seq, (request.seq, cell))
        heapq.heappush(self.by_weight, ((-request.weight, request.seq), cell))

    def best(self, served: float):
        """``(rank, cell, heap)`` of the tenant's live minimum, or ``None``."""
        heap = self.by_seq if served == 0.0 else self.by_weight
        while heap:
            _, cell = heap[0]
            if cell[2]:
                request = cell[0]
                share = served / max(request.weight, 1e-12)
                return (share, request.seq), cell, heap
            heapq.heappop(heap)
        return None


class FairShareQueue(PolicyQueue):
    """Weighted fair-share: per-tenant subqueues under a lazy tenant heap.

    A flat heap over all cells melts down at depth: every ``record_service``
    re-ranks the whole backlog of one tenant, and in round-robin steady state
    that backlog sits exactly at the heap top.  Instead each tenant keeps a
    :class:`_TenantSubqueue` whose internal order never changes, and a small
    cross-tenant heap ranks the per-tenant minima.  Cross-heap keys are
    *lower bounds* -- service only ever grows a tenant's share -- so a
    surfaced entry that still matches its tenant's current best is provably
    the global minimum; stale entries are re-pushed under their corrected
    (strictly larger) rank, which bounds the churn at one correction per
    service per tenant.
    """

    def __init__(self, policy: "WeightedFairSharePolicy"):
        super().__init__(policy)
        self._tenants: dict = {}
        #: Lazy heap of ``((share, seq), tenant)`` per-tenant best candidates.
        self._cross: list = []

    def _push_best(self, tenant: str) -> None:
        sub = self._tenants.get(tenant)
        best = sub.best(self.policy._served.get(tenant, 0.0)) if sub else None
        if best is not None:
            heapq.heappush(self._cross, (best[0], tenant))

    def push(self, request: JobRequest, payload=None) -> None:
        sub = self._tenants.get(request.tenant)
        if sub is None:
            sub = self._tenants[request.tenant] = _TenantSubqueue()
        served = self.policy._served.get(request.tenant, 0.0)
        prev = sub.best(served)
        sub.push([request, payload, True])
        self._count(request, +1)
        # Only a cell that *improves* the tenant's best gets a cross entry --
        # pushing the unchanged best again would pile same-rank duplicates
        # under the heap top (one per queued job) and melt the pop loop down
        # to a linear correction sweep per dispatch.
        rank = (served / max(request.weight, 1e-12), request.seq)
        if prev is None or rank < prev[0]:
            heapq.heappush(self._cross, (rank, request.tenant))

    def pop(self, eligible=None) -> Optional[tuple]:
        if eligible is not None:
            return self._pop_filtered(eligible)
        served = self.policy._served
        while self._cross:
            rank, tenant = self._cross[0]
            sub = self._tenants.get(tenant)
            best = sub.best(served.get(tenant, 0.0)) if sub else None
            if best is None:
                # No live cells left: drop the tenant (both heaps may still
                # hold dead cells -- clear them so payloads are released).
                heapq.heappop(self._cross)
                if sub is not None:
                    sub.by_seq.clear()
                    sub.by_weight.clear()
                    del self._tenants[tenant]
                continue
            if best[0] != rank:
                # Stale lower bound (the tenant was serviced, popped, or
                # pushed since): correct it and retry.
                heapq.heappop(self._cross)
                heapq.heappush(self._cross, (best[0], tenant))
                continue
            _, cell, heap = best
            heapq.heappop(heap)
            cell[2] = False  # the twin heap skims this cell lazily
            heapq.heappop(self._cross)
            self._push_best(tenant)
            self._count(cell[0], -1)
            return cell[0], cell[1]
        return None

    def _pop_filtered(self, eligible) -> Optional[tuple]:
        """Eligibility-restricted pick: exact linear scan over live cells.

        Only the async front-end's in-flight session gate uses predicates,
        on human-scale queues -- exactness over asymptotics here.
        """
        served = self.policy._served
        winner = None
        for tenant, sub in self._tenants.items():
            share_base = served.get(tenant, 0.0)
            for _, cell in sub.by_seq:
                if not cell[2] or not eligible(cell[1]):
                    continue
                request = cell[0]
                rank = (share_base / max(request.weight, 1e-12), request.seq)
                if winner is None or rank < winner[0]:
                    winner = (rank, cell)
        if winner is None:
            return None
        cell = winner[1]
        cell[2] = False
        self._count(cell[0], -1)
        return cell[0], cell[1]

    def remove(self, predicate=None) -> list:
        removed = []
        for sub in self._tenants.values():
            for _, cell in sub.by_seq:
                if cell[2] and (predicate is None or predicate(cell[1])):
                    cell[2] = False
                    removed.append((cell[0], cell[1]))
                    self._count(cell[0], -1)
        return removed


#: Registry of the policy zoo, keyed by CLI-facing name.
POLICIES = {
    policy.name: policy
    for policy in (FifoPolicy, PriorityPolicy, WeightedFairSharePolicy, ShortestJobFirstPolicy)
}

POLICY_NAMES = tuple(sorted(POLICIES))


def make_policy(policy) -> SchedulingPolicy:
    """Resolve a policy name / class / instance into a fresh-enough instance.

    Names and classes construct a new instance (so two schedulers never share
    fair-share state); an instance is passed through as-is for callers that
    want to pre-seed or share state deliberately.
    """
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, type) and issubclass(policy, SchedulingPolicy):
        return policy()
    try:
        return POLICIES[policy]()
    except (KeyError, TypeError):
        raise SchedulingError(
            f"unknown scheduling policy {policy!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None


def choose_board(
    request: JobRequest,
    boards: Sequence[BoardView],
    prefer_affinity: bool = True,
) -> BoardView:
    """Pick the board for a selected job: warm affinity first, then rank.

    With ``prefer_affinity``, a board whose resident Shield belongs to the
    job's session wins (skipping the partial-reconfiguration load); otherwise
    -- and among several warm candidates -- the lowest rank (longest idle)
    wins, which rotates load across the fleet exactly like the seed's
    round-robin.
    """
    if not boards:
        raise SchedulingError("choose_board needs at least one available board")
    if prefer_affinity:
        warm = [b for b in boards if b.resident_session == request.session_id]
        if warm:
            return min(warm, key=lambda b: b.rank)
    return min(boards, key=lambda b: b.rank)


class BoardIndex:
    """Incrementally maintained free fleet + warm-affinity lookup.

    Both consumers used to rebuild a :class:`BoardView` list on every
    dispatch and hand it to :func:`choose_board` -- O(boards) per job even
    when nothing changed.  ``BoardIndex`` keeps the same semantics live:
    every board that becomes free gets a monotonically increasing *stamp*
    (its release order -- the old deque position / ``rank``), the free fleet
    is a min-stamp heap (longest idle first), and each session with warm
    residencies has its own min-stamp heap of candidate boards.

    Heaps are lazy: an entry is trusted only if the board is still free under
    the same stamp (and, for warm entries, still resident for that session),
    so ``evict`` and cross-session placement never have to search a heap.
    ``place`` is selection-identical to ``choose_board`` over the equivalent
    view list: warm minimum first when affinity is preferred, else the global
    minimum stamp.
    """

    def __init__(self, names: Sequence, resident: Optional[dict] = None):
        #: board name -> resident (warm) session; shared with the caller when
        #: one is passed, so ``evict``-style writes need no mirroring.
        self.resident = resident if resident is not None else {}
        self._next_stamp = 0
        self._free: dict = {}
        self._free_heap: list = []
        self._warm: dict = {}
        for name in names:
            self.resident.setdefault(name, None)
            self.release(name)

    def __len__(self) -> int:
        return len(self._free)

    @property
    def free_names(self) -> list:
        """Free boards in rank (release) order -- the old deque view."""
        return sorted(self._free, key=self._free.__getitem__)

    def add_board(self, name, resident=None) -> None:
        """Register a new (autoscaled-in) board and free it, coldest rank."""
        self.resident[name] = resident
        self.release(name)

    def release(self, name) -> None:
        """Return a board to the free pool at the back of the rotation."""
        stamp = self._next_stamp
        self._next_stamp += 1
        self._free[name] = stamp
        heapq.heappush(self._free_heap, (stamp, name))
        session = self.resident.get(name)
        if session is not None:
            heapq.heappush(self._warm.setdefault(session, []), (stamp, name))

    def discard(self, name) -> None:
        """Drop a free (autoscaled-out) board from the pool entirely."""
        if self._free.pop(name, None) is None:
            raise SchedulingError(f"board {name!r} is not free, cannot discard")
        self.resident.pop(name, None)

    def place(self, session_id, prefer_affinity: bool = True):
        """Claim and return the board :func:`choose_board` would pick."""
        if prefer_affinity:
            heap = self._warm.get(session_id)
            while heap:
                stamp, name = heap[0]
                if (
                    self._free.get(name) == stamp
                    and self.resident.get(name) == session_id
                ):
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
