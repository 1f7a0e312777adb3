"""The shared scheduling core: one policy implementation, two consumers.

:class:`~repro.cloud.scheduler.FleetScheduler` (which moves real bytes) and
:class:`~repro.sim.cloud.CloudSimulator` (which prices time) both import
their scheduling decisions from this module, so the two cannot diverge:

* a **policy zoo** deciding *which* queued job runs next -- FIFO, strict
  priority, weighted fair-share per tenant, and shortest-job-first.  Each
  policy *is* an indexed queue over a neutral :class:`JobRequest` view that
  either consumer can build from its own job representation: FIFO rides a
  deque, priority and SJF ride lazy-deletion heaps, and weighted fair-share
  rides per-tenant heaps under a lazily re-keyed tenant heap, so every pick
  is O(log n).
* :class:`BoardIndex`, deciding *where* the job runs: among the free boards,
  prefer one whose resident (warm) Shield already belongs to the job's
  session, otherwise the longest-idle board.  Warm placement is what turns
  the paper's ~6.2 s partial-reconfiguration Shield load (Section 6.1) from
  a per-job cost into a per-session one.

Policies are stateful (the queue itself, and the served cost per tenant that
fair-share accumulates), so each scheduler or simulator builds its own via
:func:`make_policy` and replays stay deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple, Optional, Sequence

from repro.errors import SchedulingError


class JobRequest(NamedTuple):
    """A policy's view of one queued job (no bytes, no Shield, no board).

    A named tuple: immutable, and cheap enough to build once per replayed
    job.  The simulator's dispatch loop builds it as
    ``tuple.__new__(JobRequest, (...))``, skipping the named tuple's
    Python-level ``__new__``: the result is the same type and compares equal.
    Queues never compare two requests as tuples -- every heap key ends in the
    unique ``seq``.
    """

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


class SchedulingPolicy:
    """Base class: a job queue that pops jobs in its policy's order.

    ``push`` indexes one arrival and ``pop`` removes and returns the policy's
    pick.  ``payload`` is whatever the consumer wants back alongside the
    :class:`JobRequest` (the functional scheduler stores the
    ``AcceleratorJob``, the simulator the job's trace row); ``pop``'s optional
    ``eligible`` predicate is called with the payload and skips jobs without
    disturbing their relative order.  ``remove`` supports cancellation by
    predicate.  Each policy keeps ``_len``, the number of queued jobs.
    """

    name = "base"

    def __init__(self) -> None:
        self._len = 0

    def __len__(self) -> int:
        return self._len

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


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order on a deque: O(1) push/pop on the hot path.

    Entries are kept sorted by ``seq``; consumers push in submission order so
    the append is O(1), and an out-of-order push (shuffled test traces)
    degrades gracefully to an ordered insert.
    """

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        #: (request, payload) entries, ascending seq.
        self._entries: deque = deque()

    def push(self, request: JobRequest, payload=None) -> None:
        entry = (request, payload)
        if self._entries and self._entries[-1][0].seq > request.seq:
            tail = []
            while self._entries and self._entries[-1][0].seq > request.seq:
                tail.append(self._entries.pop())
            self._entries.append(entry)
            while tail:
                self._entries.append(tail.pop())
        else:
            self._entries.append(entry)
        self._len += 1

    def pop(self, eligible=None) -> Optional[tuple]:
        if eligible is None:
            if not self._entries:
                return None
            self._len -= 1
            return self._entries.popleft()
        skipped = []
        found = None
        while self._entries:
            entry = self._entries.popleft()
            if not eligible(entry[1]):
                skipped.append(entry)
                continue
            found = entry
            break
        while skipped:
            self._entries.appendleft(skipped.pop())
        if found is not None:
            self._len -= 1
        return found

    def remove(self, predicate=None) -> list:
        removed, kept = [], deque()
        for entry in self._entries:
            if predicate is None or predicate(entry[1]):
                removed.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        self._len = len(kept)
        return removed


class _HeapPolicy(SchedulingPolicy):
    """A lazy-deletion binary heap ordered by :meth:`key`.

    ``key`` must end its tuple with ``request.seq`` so keys are unique (the
    heap never falls through to comparing payloads) and ties go to the
    earlier submission.  Cancellation marks the cell dead; dead cells are
    discarded when they surface at the top, and the heap is compacted once
    most of it is dead.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: list = []

    @staticmethod
    def key(request: JobRequest) -> tuple:
        raise NotImplementedError

    def push(self, request: JobRequest, payload=None) -> None:
        heapq.heappush(self._heap, (self.key(request), [request, payload, True]))
        self._len += 1

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
        self._len -= 1
        return found[0], found[1]

    def remove(self, predicate=None) -> list:
        removed = []
        for _, cell in self._heap:
            if cell[2] and (predicate is None or predicate(cell[1])):
                removed.append((cell[0], cell[1]))
                cell[1], cell[2] = None, False
        self._len -= len(removed)
        if removed and self._len * 2 < len(self._heap):
            self._heap = [item for item in self._heap if item[1][2]]
            heapq.heapify(self._heap)
        return removed


class PriorityPolicy(_HeapPolicy):
    """Highest priority first; FIFO among equals."""

    name = "priority"

    @staticmethod
    def key(request: JobRequest) -> tuple:
        return (-request.priority, request.seq)


class ShortestJobFirstPolicy(_HeapPolicy):
    """Smallest estimated cost first; FIFO among equals (minimizes mean wait)."""

    name = "sjf"

    @staticmethod
    def key(request: JobRequest) -> tuple:
        return (request.cost_estimate, request.seq)


class _TenantSubqueue:
    """One tenant's queued cells, indexed for both fair-share regimes.

    The fair rank of a queued job is ``(served[tenant] / weight, seq)``.
    Within one tenant ``served`` is common to every cell, so the tenant's
    best cell is order-invariant under service: while ``served == 0`` every
    share ties at zero and the minimum is the lowest ``seq``; once
    ``served > 0`` the minimum share belongs to the largest ``weight``
    (lowest ``seq`` among equals) *regardless of the value of served*.  Two
    heaps over the same cells -- one by ``seq``, one by ``(-weight, seq)`` --
    therefore stay valid forever; dead cells are skimmed lazily and purged
    once they outnumber the live ones.
    """

    __slots__ = ("by_seq", "by_weight", "live")

    def __init__(self):
        self.by_seq: list = []
        self.by_weight: list = []
        self.live = 0

    def push(self, cell) -> None:
        request = cell[0]
        heapq.heappush(self.by_seq, (request.seq, cell))
        heapq.heappush(self.by_weight, ((-request.weight, request.seq), cell))
        self.live += 1

    def best(self, served: float):
        """``(rank, cell)`` of the tenant's live minimum, or ``None``."""
        heap = self.by_seq if served == 0.0 else self.by_weight
        while heap:
            _, cell = heap[0]
            if cell[2]:
                request = cell[0]
                return (served / max(request.weight, 1e-12), request.seq), cell
            heapq.heappop(heap)
        return None

    def compact(self) -> None:
        self.by_seq = [item for item in self.by_seq if item[1][2]]
        self.by_weight = [item for item in self.by_weight if item[1][2]]
        heapq.heapify(self.by_seq)
        heapq.heapify(self.by_weight)


class WeightedFairSharePolicy(SchedulingPolicy):
    """Serve the tenant with the smallest weighted served cost.

    Each tenant accumulates ``served / weight``; the next job comes from the
    queued tenant with the lowest normalized share (FIFO within a tenant, and
    FIFO between tenants at equal share).  With unit costs and unit weights
    this degrades to round-robin over tenants -- the textbook max-min share.
    ``pop`` itself accounts the popped job's ``cost_estimate`` as served.

    A flat heap over all cells would melt down at depth: every service
    re-ranks the whole backlog of one tenant, and in round-robin steady state
    that backlog sits exactly at the heap top.  Instead each tenant keeps a
    :class:`_TenantSubqueue` whose internal order never changes, and a small
    cross-tenant heap ranks the per-tenant minima.  Cross-heap keys are
    *lower bounds* -- service only ever grows a tenant's share -- so a
    surfaced entry that still matches its tenant's current best is provably
    the global minimum; stale entries are re-pushed under their corrected
    (strictly larger) rank, which bounds the churn at one correction per
    service per tenant.  A popped or removed cell drops its payload at once,
    and a tenant with no live cell left is dropped entirely, so finished
    jobs are never kept alive by the queue.
    """

    name = "fair"

    def __init__(self) -> None:
        super().__init__()
        self._served: dict = {}
        self._tenants: dict = {}
        #: Lazy heap of ``((share, seq), tenant)`` per-tenant best candidates.
        self._cross: list = []

    def push(self, request: JobRequest, payload=None) -> None:
        sub = self._tenants.get(request.tenant)
        if sub is None:
            sub = self._tenants[request.tenant] = _TenantSubqueue()
        served = self._served.get(request.tenant, 0.0)
        prev = sub.best(served)
        sub.push([request, payload, True])
        self._len += 1
        # Only a cell that *improves* the tenant's best gets a cross entry --
        # pushing the unchanged best again would pile same-rank duplicates
        # under the heap top (one per queued job) and melt the pop loop down
        # to a linear correction sweep per dispatch.
        rank = (served / max(request.weight, 1e-12), request.seq)
        if prev is None or rank < prev[0]:
            heapq.heappush(self._cross, (rank, request.tenant))
            if len(self._cross) > 4 * len(self._tenants):
                # Filtered pops and removals never consume cross entries:
                # re-rank every tenant once so the heap stays O(tenants).
                self._cross = [
                    (cells.best(self._served.get(tenant, 0.0))[0], tenant)
                    for tenant, cells in self._tenants.items()
                ]
                heapq.heapify(self._cross)

    def pop(self, eligible=None) -> Optional[tuple]:
        cell = self._pick() if eligible is None else self._pick_filtered(eligible)
        if cell is None:
            return None
        request, payload = cell[0], cell[1]
        tenant = request.tenant
        served = self._served[tenant] = self._served.get(tenant, 0.0) + request.cost_estimate
        self._retire(cell)
        if eligible is None and tenant in self._tenants:
            # _pick consumed the tenant's cross entry: rank its next cell.
            heapq.heappush(self._cross, (self._tenants[tenant].best(served)[0], tenant))
        return request, payload

    def _pick(self):
        """The global minimum, found through the cross-tenant heap."""
        while self._cross:
            rank, tenant = self._cross[0]
            sub = self._tenants.get(tenant)
            if sub is None:
                heapq.heappop(self._cross)
                continue
            best = sub.best(self._served.get(tenant, 0.0))
            if best[0] != rank:
                # Stale lower bound (the tenant was serviced, popped, or
                # pushed since): correct it and retry.
                heapq.heapreplace(self._cross, (best[0], tenant))
                continue
            heapq.heappop(self._cross)
            return best[1]
        return None

    def _pick_filtered(self, eligible):
        """Eligibility-restricted pick: exact linear scan over live cells.

        Only the async front-end's in-flight session gate uses predicates,
        on human-scale queues -- exactness over asymptotics here.
        """
        winner = None
        for tenant, sub in self._tenants.items():
            served = self._served.get(tenant, 0.0)
            for _, cell in sub.by_seq:
                if not cell[2] or not eligible(cell[1]):
                    continue
                request = cell[0]
                rank = (served / max(request.weight, 1e-12), request.seq)
                if winner is None or rank < winner[0]:
                    winner = (rank, cell)
        return None if winner is None else winner[1]

    def _retire(self, cell) -> None:
        """Kill a popped or removed cell and release its payload."""
        cell[1], cell[2] = None, False
        self._len -= 1
        tenant = cell[0].tenant
        sub = self._tenants[tenant]
        sub.live -= 1
        if not sub.live:
            del self._tenants[tenant]
        elif 4 * sub.live < len(sub.by_seq) + len(sub.by_weight):
            sub.compact()

    def remove(self, predicate=None) -> list:
        removed = []
        for sub in list(self._tenants.values()):
            for _, cell in sub.by_seq:
                if cell[2] and (predicate is None or predicate(cell[1])):
                    removed.append((cell[0], cell[1]))
                    self._retire(cell)
        return removed


#: Registry of the policy zoo, keyed by CLI-facing name.
POLICIES = {
    policy.name: policy
    for policy in (FifoPolicy, PriorityPolicy, WeightedFairSharePolicy, ShortestJobFirstPolicy)
}

POLICY_NAMES = tuple(sorted(POLICIES))


def make_policy(name: str) -> SchedulingPolicy:
    """A fresh policy, with its own empty queue and state, for ``name``.

    A fresh instance per call means two schedulers never share fair-share
    state.
    """
    try:
        return POLICIES[name]()
    except (KeyError, TypeError):
        raise SchedulingError(
            f"unknown scheduling policy {name!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None


class BoardIndex:
    """Incrementally maintained free fleet + warm-affinity lookup.

    Every board that becomes free gets a monotonically increasing *stamp*
    (its release order).  The free fleet is a deque in stamp order (longest
    idle first), and each session with warm residencies has its own list of
    candidate boards, consumed from the front.  Stamps are issued in
    increasing order, so appending keeps every queue sorted and its front is
    what a min-stamp heap would pop.  A session's list holds a few entries;
    it stays a list because a one-entry deque costs ~5x the memory, and
    sessions that never come back keep theirs.  ``place`` takes the
    session's longest-idle warm board when affinity is preferred, else the
    longest-idle free board -- which rotates load across the fleet like
    round-robin.

    Queues are lazy: an entry is trusted only if the board is still free
    under the same stamp (and, for warm entries, still resident for that
    session), so ``evict`` and cross-session placement never have to search
    a queue.
    """

    def __init__(self, names: Sequence, resident: Optional[dict] = None):
        #: board name -> resident (warm) session; shared with the caller when
        #: one is passed, so ``evict``-style writes need no mirroring.
        self.resident = resident if resident is not None else {}
        self._next_stamp = 0
        self._free: dict = {}
        self._free_order: deque = deque()
        self._warm: dict = {}
        for name in names:
            self.resident.setdefault(name, None)
            self.release(name)

    def __len__(self) -> int:
        return len(self._free)

    def release(self, name) -> None:
        """Return a board to the free pool at the back of the rotation."""
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        self._free[name] = stamp
        self._free_order.append((stamp, name))
        session = self.resident.get(name)
        if session is not None:
            self._warm.setdefault(session, []).append((stamp, name))

    def place(self, session_id, prefer_affinity: bool = True):
        """Claim and return the board for a job of ``session_id``."""
        free = self._free
        if prefer_affinity:
            warm = self._warm.get(session_id)
            if warm is not None:
                resident = self.resident
                while warm:
                    stamp, name = warm.pop(0)
                    if free.get(name) == stamp and resident.get(name) == session_id:
                        if not warm:
                            del self._warm[session_id]
                        del free[name]
                        return name
                del self._warm[session_id]
        order = self._free_order
        while order:
            stamp, name = order.popleft()
            if free.get(name) == stamp:
                del free[name]
                return name
        raise SchedulingError("place() needs at least one available board")
