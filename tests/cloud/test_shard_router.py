"""Shard layer: consistent-hash ring properties, autoscaler, replay driver.

The ring is pinned by a seeded balance test (virtual nodes give every shard
within tolerance of 1/N of the sessions), a determinism test, and golden
placements of fixed session ids.  The queue-depth autoscaler's
grow/drain/cooldown rules, the multi-shard replay's merge, determinism and
trace stream, and the ``shard-replay`` CLI are covered as well.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest

import repro.obs as obs_api
from repro.cli import main
from repro.cloud.shard import (
    QueueDepthAutoscaler,
    ShardRouter,
    partition_trace,
    replay_sharded,
)
from repro.errors import ShardingError
from repro.obs import JOB_STAGES
from repro.sim.traces import generate_trace

NUM_SESSIONS = 8000


def _sessions():
    return [f"session-{index}" for index in range(NUM_SESSIONS)]


# ---------------------------------------------------------------------------
# Ring properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", [4, 8, 16])
def test_ring_balances_sessions_within_tolerance(num_shards):
    """Virtual nodes keep every shard within +-40% of the ideal 1/N share."""
    router = ShardRouter(range(num_shards))
    counts = {shard: 0 for shard in range(num_shards)}
    for session in _sessions():
        counts[router.route(session)] += 1
    ideal = NUM_SESSIONS / num_shards
    assert sum(counts.values()) == NUM_SESSIONS
    for shard, count in counts.items():
        assert 0.6 * ideal <= count <= 1.4 * ideal, (
            f"shard {shard} owns {count} sessions (ideal {ideal:.0f}); "
            f"the vnode count no longer balances the ring"
        )


def test_route_is_deterministic_across_instances():
    """Ring placement must not depend on instance or process state (the hash
    is keyless blake2b, not the salted builtin ``hash``)."""
    first = ShardRouter(range(8))
    second = ShardRouter(range(8))
    for session in _sessions()[:500]:
        assert first.route(session) == second.route(session)


#: Shards of fixed session ids on an 8-shard ring.  Any change to the ring
#: (hash, vnode tokens or count, walk direction) moves placements, which
#: changes every sharded replay's modelled numbers.
GOLDEN_ROUTES = {
    "tenant-0000-s0": 2, "tenant-0000-s1": 3, "tenant-0000-s3": 3,
    "tenant-0001-s0": 2, "tenant-0001-s1": 7, "tenant-0001-s3": 2,
    "tenant-0002-s0": 0, "tenant-0002-s1": 1, "tenant-0002-s3": 7,
    "tenant-0003-s0": 5, "tenant-0003-s1": 3, "tenant-0003-s3": 0,
    "tenant-0007-s0": 4, "tenant-0007-s1": 5, "tenant-0007-s3": 5,
    "tenant-0042-s0": 6, "tenant-0042-s1": 6, "tenant-0042-s3": 6,
    "alice": 5, "bob": 2, "carol": 7, "session-7999": 6,
}


def test_route_matches_golden_placements():
    router = ShardRouter(range(8))
    assert router.shards == list(range(8))
    assert {session: router.route(session) for session in GOLDEN_ROUTES} == GOLDEN_ROUTES
    # Memoised routes agree with the first walk.
    assert {session: router.route(session) for session in GOLDEN_ROUTES} == GOLDEN_ROUTES


def test_empty_router_raises():
    with pytest.raises(ShardingError):
        ShardRouter([])


# ---------------------------------------------------------------------------
# Queue-depth autoscaler
# ---------------------------------------------------------------------------


def test_autoscaler_grows_proportionally_and_respects_cooldown():
    scaler = QueueDepthAutoscaler(
        min_boards=2, max_boards=32, high_watermark=4.0,
        low_watermark=0.5, cooldown_s=30.0,
    )
    # Backlog of 100 over 4 boards: grow to ceil(100/4) = 25 boards.
    assert scaler.target_boards(0.0, 100, 4) == 25
    # Inside the cooldown window nothing changes, however deep the queue.
    assert scaler.target_boards(10.0, 500, 25) == 25
    # After the cooldown the backlog is gone: drain one board per window.
    assert scaler.target_boards(40.0, 0, 25) == 24
    assert scaler.target_boards(50.0, 0, 24) == 24  # cooldown again
    assert scaler.target_boards(80.0, 0, 24) == 23


def test_autoscaler_clamps_to_min_and_max():
    scaler = QueueDepthAutoscaler(
        min_boards=2, max_boards=8, high_watermark=2.0,
        low_watermark=0.5, cooldown_s=0.0,
    )
    assert scaler.target_boards(0.0, 10_000, 4) == 8
    assert scaler.target_boards(1.0, 0, 2) == 2
    with pytest.raises(ShardingError):
        QueueDepthAutoscaler(min_boards=0)
    with pytest.raises(ShardingError):
        QueueDepthAutoscaler(min_boards=4, max_boards=2)
    with pytest.raises(ShardingError):
        QueueDepthAutoscaler(high_watermark=1.0, low_watermark=2.0)


def test_autoscaled_replay_grows_fleet_and_never_revokes_busy_boards():
    trace = generate_trace(4000, seed=3, arrival="heavy_tailed",
                           rate_jobs_per_s=100.0)
    report = replay_sharded(
        trace, num_shards=4, boards_per_shard=2,
        autoscaler_factory=lambda shard: QueueDepthAutoscaler(
            min_boards=2, max_boards=16, high_watermark=4.0,
            low_watermark=0.5, cooldown_s=60.0,
        ),
    )
    assert report.jobs == 4000
    for stats in report.shard_stats.values():
        assert stats.scale_events, "overload must trigger scaling"
        # Drain-only shrink: the modelled board count never dips below min.
        assert stats.final_boards >= 2
        # Capacity integral reflects the resized fleet, so utilization is a
        # real fraction even mid-scaling.
        assert 0.0 < stats.utilization <= 1.0


# ---------------------------------------------------------------------------
# Multi-shard replay driver
# ---------------------------------------------------------------------------


def test_partition_preserves_jobs_and_session_locality():
    trace = generate_trace(5000, seed=9)
    router = ShardRouter(range(8))
    shard_traces = partition_trace(trace, router)
    assert sum(len(events) for events in shard_traces.values()) == len(trace)
    # Session locality: every event of a session lands on one shard.
    seen: dict = {}
    for shard, events in shard_traces.items():
        for event in events:
            assert seen.setdefault(event.session, shard) == shard


def test_replay_sharded_merges_shard_stats():
    trace = generate_trace(6000, seed=21, rate_jobs_per_s=100.0)
    report = replay_sharded(trace, num_shards=8, boards_per_shard=4)
    assert report.jobs == len(trace)
    assert len(report.shard_stats) == 8
    assert report.warm_hits == sum(
        stats.warm_hits for stats in report.shard_stats.values()
    )
    assert report.makespan_s == max(
        stats.makespan_s for stats in report.shard_stats.values()
    )
    # Global percentiles are monotone and bracket the per-shard extremes.
    p50, p99, p999 = (report.wait_percentile(q) for q in (50.0, 99.0, 99.9))
    assert 0.0 <= p50 <= p99 <= p999
    assert report.jobs_per_sec > 0
    experiment = report.to_experiment()
    assert experiment.metadata["jobs"] == len(trace)
    assert len(experiment.rows) == 8


def test_replay_sharded_is_deterministic():
    """Two replays of one trace give bit-identical modelled results."""
    trace = generate_trace(3000, seed=33, rate_jobs_per_s=100.0)
    first = replay_sharded(trace, num_shards=4, boards_per_shard=4)
    second = replay_sharded(trace, num_shards=4, boards_per_shard=4)
    assert first.shard_stats.keys() == second.shard_stats.keys()
    for shard in first.shard_stats:
        a, b = first.shard_stats[shard], second.shard_stats[shard]
        assert a.jobs == b.jobs
        assert a.makespan_s == b.makespan_s
        assert a.warm_hits == b.warm_hits
        assert a.waits == b.waits


def test_traced_replay_emits_every_job_lifecycle_span_once():
    """Every shard's simulator publishes into the scoped tracer: each per-job
    lifecycle span and the ``job`` envelope appear once per trace event."""
    trace = generate_trace(2000, seed=5, rate_jobs_per_s=50.0)
    with obs_api.scoped() as handle:
        replay_sharded(trace, num_shards=4, boards_per_shard=2)
    spans = Counter(
        event.name for event in handle.tracer.events if event.kind == "span"
    )
    for stage in (*JOB_STAGES, "job"):
        assert spans[stage] == len(trace), stage


def test_shard_replay_cli_replays_and_rejects_workers():
    out = io.StringIO()
    args = ["shard-replay", "--shards", "3", "--boards-per-shard", "2",
            "--jobs", "600", "--rate", "20"]
    assert main(args, out=out) == 0
    assert "replayed          : 600 jobs / 3 shards" in out.getvalue()
    with pytest.raises(SystemExit):
        main([*args, "--workers", "thread"], out=io.StringIO())
