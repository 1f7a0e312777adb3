"""Shard layer: consistent-hash ring properties and the replay driver.

The ring is pinned by a seeded balance test (virtual nodes give every shard
within tolerance of 1/N of the sessions), a determinism test, and golden
placements of fixed session ids.  The multi-shard replay's merge, golden
modelled results, determinism and trace stream, and the ``shard-replay``
CLI are covered as well.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest

import repro.obs as obs_api
from repro.cli import main
from repro.cloud.shard import (
    ShardReplayReport,
    ShardRouter,
    partition_trace,
    replay_sharded,
)
from repro.errors import ShardingError
from repro.obs import JOB_STAGES
from repro.obs.stats import percentile
from repro.sim.cloud import ReplayStats
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


def test_shards_are_listed_in_natural_order():
    assert ShardRouter(range(12)).shards == list(range(12))
    names = [f"shard-{index}" for index in (10, 2, 0, 11, 1)]
    assert ShardRouter(names).shards == [
        "shard-0", "shard-1", "shard-2", "shard-10", "shard-11",
    ]


def test_empty_router_raises():
    with pytest.raises(ShardingError):
        ShardRouter([])


# ---------------------------------------------------------------------------
# Multi-shard replay driver
# ---------------------------------------------------------------------------


def test_partition_preserves_jobs_and_session_locality():
    trace = generate_trace(5000, seed=9)
    router = ShardRouter(range(8))
    shard_traces = partition_trace(trace, router)
    assert sum(len(rows) for rows in shard_traces.values()) == len(trace)
    # Session locality: every job of a session lands on one shard.
    seen: dict = {}
    for shard, rows in shard_traces.items():
        for session in rows.session.tolist():
            assert seen.setdefault(trace.sessions[session], shard) == shard


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
    experiment = report.to_experiment()
    assert experiment.metadata["jobs"] == len(trace)
    assert len(experiment.rows) == 8


class _CountingWaits(list):
    """A shard's wait list that counts how often it is read."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_report_merges_and_sorts_the_waits_once():
    trace = generate_trace(3000, seed=33, rate_jobs_per_s=100.0)
    report = replay_sharded(trace, num_shards=4, boards_per_shard=4)
    waits: list = []
    for stats in report.shard_stats.values():
        waits.extend(stats.waits)
        stats.waits = _CountingWaits(stats.waits)
    for q in (0.0, 50.0, 99.0, 99.9, 100.0):
        assert report.wait_percentile(q) == percentile(waits, q)
    report.wait_percentile(50.0)
    # Six percentiles (as many as ``shard-replay`` asks for), one merge.
    assert [stats.waits.reads for stats in report.shard_stats.values()] == [1, 1, 1, 1]


def test_report_without_jobs_has_no_wait_percentile():
    idle = {shard: ReplayStats(jobs=0, makespan_s=0.0, boards=2) for shard in range(2)}
    report = ShardReplayReport(
        shard_stats=idle, shard_jobs=dict.fromkeys(idle, 0), boards_per_shard=2, policy="fifo"
    )
    assert report.wait_percentile(99.0) is None
    assert report.to_experiment().metadata["wait_p99_s"] == ""


#: ``(policy, affinity)`` -> per-shard ``(jobs, warm_hits, makespan_s,
#: utilization)`` on shards 0..3, and the global p50/p99/p99.9 waits, for
#: ``generate_trace(3000, seed=33, rate_jobs_per_s=100.0)`` on 4 shards x 4
#: boards.  Exact float reprs: any change to routing, policies, placement or
#: pricing moves them.
GOLDEN_REPLAYS = {
    ('fair', True): (
        (
            (509, 43, 725.8501330081732, 0.9952024847563327),
            (756, 75, 1060.365497641277, 0.9955572997574127),
            (717, 168, 855.7325496384927, 0.9945359739391146),
            (1018, 201, 1271.151642306836, 0.996333111919969),
        ),
        (542.8187510994686, 1199.9326279912818, 1229.2447545122313),
    ),
    ('fair', False): (
        (
            (509, 0, 793.8255655730164, 0.9939436195417857),
            (756, 0, 1172.036291607691, 0.999887648513141),
            (717, 0, 1116.1579424817887, 0.9957881070261319),
            (1018, 0, 1581.1693399443868, 0.9980211680282493),
        ),
        (564.1763497961499, 1497.285888183916, 1539.21078808774),
    ),
    ('fifo', True): (
        (
            (509, 23, 756.8395805827614, 0.9954128658947257),
            (756, 38, 1116.160155324818, 0.997172857567),
            (717, 64, 1016.9526299087996, 0.9953824543203164),
            (1018, 94, 1432.4583310199052, 0.9999177222013359),
        ),
        (520.5781055671407, 1359.916203793094, 1396.1380849262912),
    ),
    ('fifo', False): (
        (
            (509, 0, 793.8279542600752, 0.993940628691881),
            (756, 0, 1172.0277716035494, 0.9998949171522578),
            (717, 0, 1116.1455379814597, 0.9957991739107639),
            (1018, 0, 1581.1875920294683, 0.998009647594264),
        ),
        (561.2395112106376, 1496.5496437856377, 1538.9652176705204),
    ),
    ('priority', True): (
        (
            (509, 17, 763.1460549801906, 0.9993733846272005),
            (756, 31, 1128.5548081508311, 0.995835207533379),
            (717, 46, 1041.8320839528524, 0.9983919872573184),
            (1018, 89, 1444.7425047810027, 0.996780026015808),
        ),
        (525.2699537405499, 1375.0725272770642, 1403.9037972027465),
    ),
    ('priority', False): (
        (
            (509, 0, 793.8258847718866, 0.9939432198752005),
            (756, 0, 1172.039963304632, 0.9998845161247113),
            (717, 0, 1116.1553055289419, 0.9957904596075966),
            (1018, 0, 1581.171799564528, 0.9980196155385281),
        ),
        (565.69513624089, 1506.0607719931293, 1540.632339083448),
    ),
    ('sjf', True): (
        (
            (509, 17, 763.1545395177895, 0.9993622738748964),
            (756, 32, 1122.4403566373353, 0.9998790625721371),
            (717, 58, 1023.2352881832509, 0.9983596309504623),
            (1018, 98, 1426.2509981177766, 0.999922505494352),
        ),
        (531.1500664161703, 1356.3942083548106, 1389.9970260232392),
    ),
    ('sjf', False): (
        (
            (509, 0, 793.82570743918, 0.9939434419121524),
            (756, 0, 1172.0388221609123, 0.9998854896521342),
            (717, 0, 1116.1467855247993, 0.9957980608827598),
            (1018, 0, 1581.1741882515835, 0.9980181078257423),
        ),
        (568.7600004292376, 1499.2042140282176, 1539.5213051743006),
    ),
}


@pytest.mark.parametrize("policy, affinity", sorted(GOLDEN_REPLAYS))
def test_replay_sharded_matches_golden_results(policy, affinity):
    trace = generate_trace(3000, seed=33, rate_jobs_per_s=100.0)
    report = replay_sharded(
        trace, num_shards=4, boards_per_shard=4, policy=policy, affinity=affinity
    )
    shards = tuple(
        (stats.jobs, stats.warm_hits, stats.makespan_s, stats.utilization)
        for _, stats in sorted(report.shard_stats.items())
    )
    waits = tuple(report.wait_percentile(q) for q in (50.0, 99.0, 99.9))
    assert (shards, waits) == GOLDEN_REPLAYS[policy, affinity]


def test_replay_sharded_is_deterministic():
    """Two replays of one trace give equal reports: every field is modelled."""
    trace = generate_trace(3000, seed=33, rate_jobs_per_s=100.0)
    first = replay_sharded(trace, num_shards=4, boards_per_shard=4)
    second = replay_sharded(trace, num_shards=4, boards_per_shard=4)
    assert first.to_experiment() == second.to_experiment()


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
    for removed in (["--workers", "thread"], ["--autoscale-max", "16"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*args, *removed], out=io.StringIO())
        assert exit_info.value.code == 2


def test_shard_replay_cli_renders_shards_that_received_no_job():
    """Three jobs cannot reach eight shards: the empty shards still get a
    row (with a blank p99 wait) and the command succeeds."""
    out = io.StringIO()
    assert main(["shard-replay", "--jobs", "3", "--shards", "8"], out=out) == 0
    table = out.getvalue().split("\n\n")[0].splitlines()[3:]
    assert [row.split()[0] for row in table] == [str(shard) for shard in range(8)]
    empty = [row.split() for row in table if row.split()[1] == "0"]
    assert empty and all(len(cells) == 6 for cells in empty)
    assert "replayed          : 3 jobs / 8 shards" in out.getvalue()


def test_shard_replay_cli_lists_shards_in_numeric_order():
    """Past ten shards the rows still run 0, 1, 2, ... (not 0, 1, 10, 11, 2)."""
    out = io.StringIO()
    args = ["shard-replay", "--shards", "12", "--boards-per-shard", "1",
            "--jobs", "600", "--rate", "20"]
    assert main(args, out=out) == 0
    table = out.getvalue().split("\n\n")[0].splitlines()[3:]
    assert [row.split()[0] for row in table] == [str(shard) for shard in range(12)]
