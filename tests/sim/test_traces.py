"""The synthetic trace generator: determinism, arrival statistics, structure,
the columnar layout's memory, and hand-written traces in the same form."""

from __future__ import annotations

import bisect
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from repro.cloud.shard import ShardRouter, partition_trace
from repro.errors import SimulationError
from repro.sim.cloud import CloudSimulator, Trace, TraceEvent
from repro.sim.traces import (
    ARRIVAL_PROCESSES,
    DIURNAL_PERIOD_S,
    PARETO_ALPHA,
    default_profile_pool,
    generate_trace,
)
from tests.trace_rows import job_rows, rows_digest

JOBS = 5000


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_same_seed_same_trace(arrival):
    pool = default_profile_pool()
    first = generate_trace(200, seed=5, arrival=arrival, profile_pool=pool)
    second = generate_trace(200, seed=5, arrival=arrival, profile_pool=pool)
    assert job_rows(first, pool) == job_rows(second, pool)


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_arrivals_are_monotone_and_match_mean_rate(arrival):
    trace = generate_trace(JOBS, seed=1, arrival=arrival, rate_jobs_per_s=50.0)
    times = trace.arrival.tolist()
    assert times == sorted(times)
    assert times[0] > 0.0
    # Every process is normalized to the same mean rate; the heavy tail has
    # infinite variance, so its tolerance is the loosest.
    mean_rate = JOBS / times[-1]
    tolerance = 0.5 if arrival == "heavy_tailed" else 0.15
    assert abs(mean_rate - 50.0) <= 50.0 * tolerance, (
        f"{arrival}: mean rate {mean_rate:.1f} jobs/s, expected ~50"
    )


def test_heavy_tail_is_burstier_than_poisson():
    """The Pareto process must show a heavier inter-arrival tail than the
    exponential at the same mean rate (that is its entire purpose)."""
    def max_gap(arrival):
        trace = generate_trace(JOBS, seed=2, arrival=arrival,
                               rate_jobs_per_s=50.0)
        times = trace.arrival.tolist()
        return max(b - a for a, b in zip(times, times[1:]))

    assert max_gap("heavy_tailed") > 3.0 * max_gap("poisson")


def test_zipf_tenant_popularity_is_skewed():
    trace = generate_trace(JOBS, seed=4, num_tenants=50, zipf_s=1.1)
    counts = Counter(trace.tenant.tolist())
    ranked = sorted(counts.values(), reverse=True)
    # Head tenant far above uniform share; a long tail exists.
    assert ranked[0] > 3 * (JOBS / 50)
    assert len(counts) > 25


def test_sessions_repeat_within_tenants_and_metadata_varies():
    trace = generate_trace(2000, seed=6, num_tenants=20, sessions_per_tenant=3)
    rows = job_rows(trace, trace.profiles)
    sessions = {session for _, _, session, _, _, _ in rows}
    assert len(sessions) <= 20 * 3
    # Sessions recur (warm affinity has something to hit) ...
    assert len(sessions) < 2000
    # ... sessions belong to their tenant ...
    assert all(session.startswith(tenant) for _, tenant, session, _, _, _ in rows)
    # ... and the scheduling metadata actually differentiates policies.
    assert len({row[3] for row in rows}) > 1
    assert len({row[4] for row in rows}) > 1
    assert len({row[5] for row in rows}) > 1


def test_generator_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        generate_trace(0)
    with pytest.raises(SimulationError):
        generate_trace(10, arrival="lunar")
    with pytest.raises(SimulationError):
        generate_trace(10, rate_jobs_per_s=0.0)
    with pytest.raises(SimulationError):
        generate_trace(10, arrival="diurnal", diurnal_amplitude=1.0)
    # Empty draw ranges: randrange(0) raised ValueError and an empty Zipf
    # table IndexError from inside the loop; a getrandbits(0) draw would
    # never leave its rejection loop.
    for shape in (
        {"num_tenants": 0},
        {"sessions_per_tenant": 0},
        {"sessions_per_tenant": -2},
        {"priority_levels": 0},
        {"profile_pool": []},
    ):
        with pytest.raises(SimulationError):
            generate_trace(10, **shape)


# ---------------------------------------------------------------------------
# The columnar layout
# ---------------------------------------------------------------------------

#: Digest of every job's ``(arrival_s, tenant, session, priority, weight,
#: profile-pool index)`` for ``generate_trace(3000, seed=17, ...)``, recorded
#: when the generator still built one ``TraceEvent`` per job.  The columns
#: must come from the same random draws, in the same order.
GOLDEN_STREAMS = {
    "poisson": "fb3ea4c454096c539839361bee938813",
    "diurnal": "462b20c70b82fd9c8a5720a4c4a31ab4",
    "heavy_tailed": "05a4aab7bced435e7e230088495e28be",
}


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_generated_jobs_match_golden_stream(arrival):
    pool = default_profile_pool()
    trace = generate_trace(3000, seed=17, arrival=arrival, profile_pool=pool)
    assert rows_digest(job_rows(trace, pool)) == GOLDEN_STREAMS[arrival]


def test_session_rows_follow_tenants_under_custom_shapes():
    pool = default_profile_pool()
    trace = generate_trace(
        3000, seed=17, num_tenants=37, sessions_per_tenant=3, priority_levels=5,
        profile_pool=pool,
    )
    assert len(trace.sessions) == 37 * 3
    assert rows_digest(job_rows(trace, pool)) == "ed81963fd9b770a7b1a192885735845b"


#: ``generate_trace`` keywords at the edges of the restated ``randrange``
#: draws: a 1-wide range still draws one bit and rejects half the words, a
#: power-of-two range never rejects, and a 1-entry pool draws for nothing.
#: ``pool_size`` takes the first entries of two default pools (distinct
#: objects), so the digest tells every pool index apart.
EDGE_SHAPES = {
    "one-priority": {"priority_levels": 1},
    "one-session": {"sessions_per_tenant": 1},
    "powers-of-two": {"priority_levels": 8, "sessions_per_tenant": 2},
    "one-profile": {"pool_size": 1},
    "five-profiles": {"pool_size": 5},
    "one-tenant": {"num_tenants": 1},
}

#: Digests of ``generate_trace(2000, seed=23, ...)`` at each edge shape,
#: recorded when the generator called ``expovariate``, ``paretovariate`` and
#: ``randrange`` itself.  They also catch a change in CPython's ``random``.
GOLDEN_EDGE_STREAMS = {
    "one-priority": {
        "poisson": "c27aaf62a85aafd876cddaa6a035518c",
        "diurnal": "02ac19a143278c01d29e01278f55869b",
        "heavy_tailed": "d42f964d22ba317ea5d6b840199a60a7",
    },
    "one-session": {
        "poisson": "4560e195bf7e78a440d4006abbb45c59",
        "diurnal": "473692a091c748f7e9bf68e6fa139fe9",
        "heavy_tailed": "2e20510d26854b60e53a68866a726d66",
    },
    "powers-of-two": {
        "poisson": "7e18c94b24382102b9deeb1b71150c88",
        "diurnal": "cffce4ec4dc6c05e6e77e654808b2ff7",
        "heavy_tailed": "f8015724bd3cc64afbfd253d79d7d2ce",
    },
    "one-profile": {
        "poisson": "ddb691d3abff64061c78b0f377888fe9",
        "diurnal": "1f83d9fbcb84d7c1b593d0d046ffd5e4",
        "heavy_tailed": "2c6e81cd6034051f15ad791ccffcf1e7",
    },
    "five-profiles": {
        "poisson": "03d58ecc04b881896bc2413d9b5cc680",
        "diurnal": "aa01beb7d4f81259e966e62b0d8020b3",
        "heavy_tailed": "07e349a6f2460534a2371d4b7dacdac4",
    },
    "one-tenant": {
        "poisson": "d54a20cd45b5fce6ee08664c6248b3dc",
        "diurnal": "aa3ff484744b08b039eaf1a05db7e7ea",
        "heavy_tailed": "4410c26c1afa2739d099c621233d57b9",
    },
}


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_edge_shapes_match_golden_streams(shape, arrival):
    keywords = dict(EDGE_SHAPES[shape])
    pool = (default_profile_pool() + default_profile_pool())[: keywords.pop("pool_size", 3)]
    trace = generate_trace(2000, seed=23, arrival=arrival, profile_pool=pool, **keywords)
    assert rows_digest(job_rows(trace, pool)) == GOLDEN_EDGE_STREAMS[shape][arrival]


def _reference_draws(num_jobs, seed, arrival, rate, num_tenants, sessions, priorities, pool_size):
    """``(arrival_s, tenant, profile, session, priority)`` per job, drawn
    through ``random``'s own ``expovariate``, ``paretovariate`` and
    ``randrange``: the generator before it restated them."""
    rng = random.Random(seed)
    zipf = list(itertools.accumulate(1.0 / rank**1.1 for rank in range(1, num_tenants + 1)))
    pareto_scale = (PARETO_ALPHA - 1.0) / (PARETO_ALPHA * rate)
    two_pi_over_period = 2.0 * math.pi / DIURNAL_PERIOD_S
    now, rows = 0.0, []
    for _ in range(num_jobs):
        if arrival == "poisson":
            now += rng.expovariate(rate)
        elif arrival == "diurnal":
            now += rng.expovariate(rate * (1.0 + 0.8 * math.sin(two_pi_over_period * now)))
        else:
            now += pareto_scale * rng.paretovariate(PARETO_ALPHA)
        tenant = bisect.bisect_left(zipf, rng.random() * zipf[-1])
        profile = rng.randrange(pool_size)
        session = tenant * sessions + rng.randrange(sessions)
        rows.append((now, tenant, profile, session, rng.randrange(priorities)))
    return rows


def test_direct_draws_match_the_random_module_on_random_shapes():
    """Beyond the goldens' fixed shapes: any sizes give the jobs that
    ``random``'s distribution calls give, on the running Python."""
    pool = default_profile_pool() * 3
    shapes = random.Random(31)
    for trial in range(24):
        arrival = ARRIVAL_PROCESSES[trial % 3]
        num_tenants, sessions = shapes.randint(1, 40), shapes.randint(1, 9)
        priorities, pool_size = shapes.randint(1, 17), shapes.randint(1, len(pool))
        rate = shapes.uniform(0.5, 200.0)
        trace = generate_trace(
            500, seed=trial, arrival=arrival, rate_jobs_per_s=rate,
            num_tenants=num_tenants, sessions_per_tenant=sessions,
            priority_levels=priorities, profile_pool=pool[:pool_size],
        )
        columns = (trace.arrival, trace.tenant, trace.profile, trace.session, trace.priority)
        assert list(zip(*(column.tolist() for column in columns))) == _reference_draws(
            500, trial, arrival, rate, num_tenants, sessions, priorities, pool_size
        ), (trial, arrival, num_tenants, sessions, priorities, pool_size)


def test_generated_trace_retains_at_most_40_bytes_per_job():
    """tracemalloc counts allocations (numpy's included), not time, so the
    bound is deterministic; a per-job event object alone costs ~170 B."""
    pool = default_profile_pool()
    generate_trace(10, profile_pool=pool)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_trace(100_000, seed=1, profile_pool=pool)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 100_000
    assert retained / len(trace) <= 40, f"{retained / len(trace):.1f} B/job"


def _hand_written_events():
    """Unsorted arrivals with ties, sessions that default to the tenant, and
    two equal profile pairs that are distinct objects."""
    pool = default_profile_pool()
    twin = (default_profile_pool()[0][0], pool[0][1])
    specs = [
        (4.0, "alice", pool[0], "alice-a", 3, 1.0),
        (0.0, "bob", pool[1], None, 0, 2.0),
        (0.0, "carol", pool[2], "carol-x", 7, 4.0),
        (1.5, "alice", twin, "alice-b", 1, 1.0),
        (1.5, "bob", pool[1], None, 9, 2.0),
        (9.0, "alice", pool[0], "alice-a", 0, 1.0),
        (2.0, "dave", pool[2], None, 2, 0.5),
        (0.5, "carol", pool[0], "carol-x", 5, 4.0),
    ]
    events = [
        TraceEvent(
            arrival_s=arrival, tenant=tenant, profile=pair[0], shield_config=pair[1],
            session_id=session, priority=priority, weight=weight,
        )
        for arrival, tenant, pair, session, priority, weight in specs
    ]
    return events, [*pool, twin]


def test_from_events_keeps_every_row_and_tells_profiles_apart_by_identity():
    events, pool = _hand_written_events()
    trace = Trace.from_events(events)
    assert len(trace) == len(events)
    assert job_rows(trace, pool) == job_rows(events, pool)
    assert trace.tenants == ("alice", "bob", "carol", "dave")
    assert trace.sessions == ("alice-a", "bob", "carol-x", "alice-b", "dave")
    assert len(trace.profiles) == 4


def _events_of(trace):
    """The hand-written form of a columnar trace: one event per row."""
    return [
        TraceEvent(
            arrival_s=arrival, tenant=trace.tenants[tenant],
            profile=trace.profiles[profile][0], shield_config=trace.profiles[profile][1],
            session_id=trace.sessions[session], priority=priority, weight=weight,
        )
        for arrival, tenant, session, profile, priority, weight in zip(
            trace.arrival.tolist(), trace.tenant.tolist(), trace.session.tolist(),
            trace.profile.tolist(), trace.priority.tolist(), trace.weight.tolist(),
        )
    ]


@pytest.mark.parametrize("policy", ["fifo", "priority", "fair", "sjf"])
@pytest.mark.parametrize("affinity", [True, False])
def test_event_list_and_generated_trace_replay_alike(policy, affinity):
    """A generated trace tables every session and the whole pool; its event
    list converts to first-seen tables.  The layout must not matter."""
    trace = generate_trace(400, seed=8, num_tenants=12, rate_jobs_per_s=2.0)
    events = _events_of(trace)
    simulator = CloudSimulator(num_boards=3, policy=policy, affinity=affinity)
    assert simulator.replay(events) == simulator.replay(trace)
    assert simulator.replay_experiment(events) == simulator.replay_experiment(trace)
    router = ShardRouter(range(4))
    by_trace = partition_trace(trace, router)
    by_events = partition_trace(Trace.from_events(events), router)
    assert list(by_trace) == list(by_events)
    for shard in by_trace:
        assert job_rows(by_trace[shard], trace.profiles) == job_rows(
            by_events[shard], trace.profiles
        )


def test_partition_routes_each_row_by_its_event_session():
    events, pool = _hand_written_events()
    router = ShardRouter(range(3))
    shards = partition_trace(Trace.from_events(events), router)
    assert list(shards) == [0, 1, 2]
    for shard, shard_trace in shards.items():
        expected = [event for event in events if router.route(event.session) == shard]
        assert job_rows(shard_trace, pool) == job_rows(expected, pool)


@pytest.mark.parametrize("policy", ["fifo", "priority", "fair", "sjf"])
def test_unsorted_events_replay_in_stable_arrival_order(policy):
    """Arrival order is a stable sort of the rows: ties keep trace order."""
    events, _ = _hand_written_events()
    in_order = sorted(events, key=lambda event: event.arrival_s)
    simulator = CloudSimulator(num_boards=1, policy=policy)
    assert simulator.replay(events) == simulator.replay(in_order)
