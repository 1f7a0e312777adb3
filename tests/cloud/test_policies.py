"""Unit behaviour of the shared scheduling core (repro.cloud.policies).

These tests pin the policy zoo's pick order and the warm-affinity placement
rule of :class:`BoardIndex` in isolation -- the conformance suite then checks
that the functional scheduler and the timed simulator consume them
identically.
"""

from __future__ import annotations

import pytest

from repro.cloud.policies import (
    POLICY_NAMES,
    BoardIndex,
    FifoPolicy,
    JobRequest,
    SchedulingPolicy,
    make_policy,
)
from repro.errors import SchedulingError


def _request(seq, tenant="t", session=None, priority=0, weight=1.0, cost=1.0):
    return JobRequest(
        key=f"j{seq}",
        tenant=tenant,
        session_id=session or f"sess-{tenant}",
        seq=seq,
        priority=priority,
        weight=weight,
        cost_estimate=cost,
    )


def _drain(policy: SchedulingPolicy, requests: list) -> list:
    """Push every request, then pop until empty; returns the pick order."""
    for request in requests:
        policy.push(request, request)
    order = []
    while (popped := policy.pop()) is not None:
        order.append(popped[0].key)
    assert len(policy) == 0
    return order


def test_registry_covers_the_four_policies():
    assert set(POLICY_NAMES) == {"fifo", "priority", "fair", "sjf"}
    for name in POLICY_NAMES:
        instance = make_policy(name)
        assert isinstance(instance, SchedulingPolicy)
        assert instance.name == name


def test_make_policy_takes_only_names():
    # Fresh instances per call: fair-share state is never accidentally shared.
    assert make_policy("fair") is not make_policy("fair")
    for garbage in ("lifo", 42, FifoPolicy, FifoPolicy(), ["fifo"]):
        with pytest.raises(SchedulingError):
            make_policy(garbage)


def test_fifo_is_submission_order_regardless_of_metadata():
    queue = [
        _request(3, priority=9, cost=0.1),
        _request(1, priority=0, cost=5.0),
        _request(2, priority=5, cost=1.0),
    ]
    assert _drain(make_policy("fifo"), queue) == ["j1", "j2", "j3"]


def test_priority_orders_by_priority_then_fifo():
    queue = [
        _request(1, priority=0),
        _request(2, priority=7),
        _request(3, priority=7),
        _request(4, priority=3),
    ]
    assert _drain(make_policy("priority"), queue) == ["j2", "j3", "j4", "j1"]


def test_sjf_orders_by_cost_then_fifo():
    queue = [
        _request(1, cost=4.0),
        _request(2, cost=0.5),
        _request(3, cost=0.5),
        _request(4, cost=2.0),
    ]
    assert _drain(make_policy("sjf"), queue) == ["j2", "j3", "j4", "j1"]


def test_fair_share_round_robins_equal_weight_tenants():
    # Tenant a floods the queue first; fair-share still alternates.
    queue = [
        _request(1, tenant="a"),
        _request(2, tenant="a"),
        _request(3, tenant="a"),
        _request(4, tenant="b"),
        _request(5, tenant="b"),
    ]
    assert _drain(make_policy("fair"), queue) == ["j1", "j4", "j2", "j5", "j3"]


def test_fair_share_respects_weights():
    # Weight 2 tenant gets two slots for every one of the weight 1 tenant.
    queue = [_request(i, tenant="heavy", weight=2.0) for i in range(1, 5)]
    queue += [_request(i, tenant="light", weight=1.0) for i in range(5, 7)]
    order = _drain(make_policy("fair"), queue)
    # First pick ties at share 0 -> FIFO gives heavy; then heavy accumulates
    # 1/2 while light sits at 0, and so on: heavy, light, heavy, heavy, light, heavy.
    assert order == ["j1", "j5", "j2", "j3", "j6", "j4"]


def test_fair_share_pop_accounts_the_cost_estimate():
    # Tenant a's first job costs 3: b's three unit jobs all run before a's
    # second (unit-cost accounting would alternate a and b instead).
    queue = [
        _request(1, tenant="a", cost=3.0),
        _request(2, tenant="b"),
        _request(3, tenant="b"),
        _request(4, tenant="a"),
        _request(5, tenant="b"),
    ]
    assert _drain(make_policy("fair"), queue) == ["j1", "j2", "j3", "j5", "j4"]


def test_policies_keep_independent_state():
    served, fresh = make_policy("fair"), make_policy("fair")
    served.push(_request(1, tenant="a"))
    assert len(fresh) == 0 and fresh.pop() is None
    assert served.pop()[0].key == "j1"
    # Only ``served`` has billed tenant a, so only there does b jump ahead.
    later = [_request(2, tenant="a"), _request(3, tenant="b")]
    assert _drain(served, later) == ["j3", "j2"]
    assert _drain(fresh, later) == ["j2", "j3"]


def test_fair_share_state_stays_bounded_under_filtered_pops():
    """Filtered pops (the async front-end filters every pop) never consume
    cross-tenant heap entries; that heap and the per-tenant heaps must still
    stay proportional to the live queue, and drained tenants must leave no
    state behind."""
    policy = make_policy("fair")
    for seq in range(1, 1201):
        policy.push(_request(seq, tenant="abc"[seq % 3]), seq)
        # A standing backlog of six first, then drained dry after every push.
        while len(policy) > (6 if seq <= 600 else 0):
            policy.pop(lambda payload: True)
        cells = sum(len(sub.by_seq) + len(sub.by_weight) for sub in policy._tenants.values())
        assert cells <= 4 * len(policy)
    assert len(policy._cross) <= 4 * 3
    assert policy._tenants == {}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_eligible_pop_and_remove_match_payloads(policy):
    queue = make_policy(policy)
    for seq in range(1, 7):
        queue.push(_request(seq, tenant=f"t{seq % 2}"), f"p{seq}")
    assert len(queue) == 6
    assert queue.pop(lambda payload: False) is None
    assert queue.pop(lambda payload: payload == "p4")[1] == "p4"
    removed = queue.remove(lambda payload: payload in ("p2", "p3"))
    assert sorted(payload for _, payload in removed) == ["p2", "p3"]
    assert len(queue) == 3
    assert sorted(payload for _, payload in queue.remove()) == ["p1", "p5", "p6"]
    assert len(queue) == 0


# ---------------------------------------------------------------------------
# BoardIndex placement
# ---------------------------------------------------------------------------


def test_place_prefers_a_warm_board():
    # A cold fleet hands out the longest-idle board.
    assert BoardIndex(["b0", "b1"]).place("sess-a") == "b0"
    boards = BoardIndex(["b0", "b1"], resident={"b0": "sess-z", "b1": "sess-a"})
    assert boards.place("sess-a") == "b1"


def test_place_takes_the_longest_idle_warm_board():
    resident = {"b0": None, "b1": "sess-a", "b2": "sess-a"}
    boards = BoardIndex(["b0", "b1", "b2"], resident=resident)
    assert boards.place("sess-a") == "b1"
    assert boards.place("sess-a") == "b2"
    # A released board rejoins at the back of the rotation: it is still the
    # session's warm pick, but the cold rotation reaches it only after b0.
    boards.release("b1")
    assert len(boards) == 2
    assert boards.place("sess-a") == "b1"
    boards.release("b1")
    assert boards.place("sess-z", prefer_affinity=False) == "b0"
    assert boards.place("sess-z", prefer_affinity=False) == "b1"
    assert len(boards) == 0


def test_place_without_affinity_takes_the_longest_idle_board():
    boards = BoardIndex(["b0", "b1"], resident={"b0": "sess-z", "b1": "sess-a"})
    assert boards.place("sess-a", prefer_affinity=False) == "b0"


def test_place_on_an_empty_fleet_raises():
    with pytest.raises(SchedulingError):
        BoardIndex([]).place("sess-a")
    boards = BoardIndex(["b0"])
    assert boards.place("sess-a") == "b0"
    assert len(boards) == 0
    with pytest.raises(SchedulingError):
        boards.place("sess-a")
