"""Shard-scale replay: the 10^5-job / 8-shard end-to-end throughput gate.

The seed simulator replayed ~12 jobs in ~1.4 ms (``BENCH_sched.json``'s
``replay_seconds``) -- about 117 us per job, with per-dispatch linear scans
that go quadratic on deep queues.  The indexed policy queues, incremental
board index, columnar trace and zero-overhead untraced path exist so replay
stays *linear* at six-figure job counts; this benchmark proves it end to
end: generate a 10^5-job Poisson trace, route it across 8 shard fleets with
the consistent-hash :class:`~repro.cloud.shard.ShardRouter`, replay every
shard on its own simulator, and merge the global wait percentiles.  The gate
times that whole span (the same one ``shard-replay`` reports as its wall
time) and demands a per-job rate >= 10x the seed anchor.  The full report
(per-phase us/job, p50/p99/p999 wait, per-shard utilization, affinity
hit-rate, throughput) lands in ``BENCH_shard.json``.

``SHARD_BENCH_JOBS`` / ``SHARD_BENCH_SHARDS`` shrink the trace for CI's
quick-bench smoke.

The gate's trace offers ~20x what the fleet clears, so its waits measure
the backlog.  :func:`test_shard_qos_at_stated_offered_loads` records, with
no gate, the modelled QoS of a 20k-job trace at stated offered loads
instead.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import record_bench
from repro.cloud import shard
from repro.sim.cloud import DEFAULT_SHIELD_LOAD_SECONDS, CloudSimulator
from repro.sim.traces import generate_trace

NUM_JOBS = int(os.environ.get("SHARD_BENCH_JOBS", "100000"))
NUM_SHARDS = int(os.environ.get("SHARD_BENCH_SHARDS", "8"))
BOARDS_PER_SHARD = 8
#: Seed anchor: BENCH_sched.json's replay_seconds was ~1.4 ms for a 12-job
#: trace on the pre-indexed simulator (~117 us/job).
SEED_REPLAY_SECONDS = 0.0014
SEED_REPLAY_JOBS = 12
MIN_SPEEDUP_VS_SEED = 10.0


def _timed(phases: dict, phase: str, call):
    """``call``, adding its wall time to ``phases[phase]``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            phases[phase] += time.perf_counter() - start

    return wrapper


def test_shard_scale_replay_rate_gate(monkeypatch):
    # Route and replay are timed inside replay_sharded; whatever else it
    # does (building the ring and the report) stays in "other".
    phases: dict = {}
    monkeypatch.setattr(shard, "partition_trace", _timed(phases, "route", shard.partition_trace))
    monkeypatch.setattr(
        CloudSimulator, "replay_stats", _timed(phases, "replay", CloudSimulator.replay_stats)
    )
    # Two timed runs, best-of: the first pays one-time costs (imports,
    # allocator warm-up) that are noise against a >=10^5-job trace but
    # dominate a reduced CI smoke run.
    wall = report = split = None
    for _ in range(2):
        phases.update(route=0.0, replay=0.0)
        start = time.perf_counter()
        trace = generate_trace(
            NUM_JOBS, seed=42, arrival="poisson", rate_jobs_per_s=200.0
        )
        generated = time.perf_counter()
        candidate = shard.replay_sharded(
            trace,
            num_shards=NUM_SHARDS,
            boards_per_shard=BOARDS_PER_SHARD,
        )
        replayed = time.perf_counter()
        waits = [candidate.wait_percentile(q) for q in (50.0, 99.0, 99.9)]
        end = time.perf_counter()
        if wall is None or end - start < wall:
            wall, report = end - start, candidate
            split = {
                "generate": generated - start,
                "route": phases["route"],
                "replay": phases["replay"],
                "other": replayed - generated - phases["route"] - phases["replay"],
                "merge": end - replayed,
            }

    per_job_us = wall / report.jobs * 1e6
    phase_us = {name: round(seconds / report.jobs * 1e6, 3) for name, seconds in split.items()}
    seed_per_job_us = SEED_REPLAY_SECONDS / SEED_REPLAY_JOBS * 1e6
    speedup = seed_per_job_us / per_job_us
    utilization = {
        str(shard_id): round(value, 4)
        for shard_id, value in sorted(report.utilization_by_shard.items())
    }
    p50, p99, p999 = waits
    print(
        f"\nshard-scale replay: {report.jobs} jobs / {len(report.shard_stats)} "
        f"shards x {BOARDS_PER_SHARD} boards in {wall:.2f}s end to end "
        f"({report.jobs / wall:.0f} jobs/s, {per_job_us:.2f} us/job; "
        f"seed anchor {seed_per_job_us:.0f} us/job -> {speedup:.1f}x)"
    )
    print(f"us/job by phase: {phase_us}")
    print(
        f"wait p50={p50:.1f}s p99={p99:.1f}s p999={p999:.1f}s, "
        f"affinity hit rate {report.affinity_hit_rate:.1%}, "
        f"utilization {utilization}"
    )
    record_bench(
        "shard",
        "shard_scale_replay",
        jobs=report.jobs,
        shards=len(report.shard_stats),
        boards_per_shard=BOARDS_PER_SHARD,
        wall_s=round(wall, 4),
        jobs_per_sec=round(report.jobs / wall, 1),
        per_job_us=round(per_job_us, 2),
        phase_us_per_job=phase_us,
        seed_per_job_us=round(seed_per_job_us, 1),
        speedup_vs_seed=round(speedup, 1),
        modelled_makespan_s=round(report.makespan_s, 1),
        wait_p50_s=round(p50, 3),
        wait_p99_s=round(p99, 3),
        wait_p999_s=round(p999, 3),
        affinity_hit_rate=round(report.affinity_hit_rate, 4),
        utilization_by_shard=utilization,
    )
    assert report.jobs == NUM_JOBS, "the router must not drop or duplicate jobs"
    assert len(report.shard_stats) == NUM_SHARDS
    assert all(jobs > 0 for jobs in report.shard_jobs.values()), (
        "every shard should receive traffic under a balanced ring"
    )
    assert speedup >= MIN_SPEEDUP_VS_SEED, (
        f"sharded replay ran at {per_job_us:.2f} us/job end to end, only "
        f"{speedup:.1f}x the seed rate (need >= {MIN_SPEEDUP_VS_SEED}x of "
        f"{seed_per_job_us:.0f} us/job)"
    )


#: Offered loads, as a share of the fleet's cold-load capacity: every pooled
#: profile models under 1 ms of execution, so a board clears about one cold
#: job per DEFAULT_SHIELD_LOAD_SECONDS.
QOS_OFFERED_LOADS = (0.5, 0.8, 0.95)
QOS_JOBS = 20_000
QOS_SHARDS = 8


def test_shard_qos_at_stated_offered_loads():
    """Modelled wait percentiles and hit-rate of a Poisson trace at each
    offered load rho (rate = rho * boards / DEFAULT_SHIELD_LOAD_SECONDS), on
    8 shards x 8 boards.  Recorded, not gated: these are modelled seconds,
    and they move only when routing, policies or pricing change."""
    boards = QOS_SHARDS * BOARDS_PER_SHARD
    loads = {}
    for rho in QOS_OFFERED_LOADS:
        rate = rho * boards / DEFAULT_SHIELD_LOAD_SECONDS
        trace = generate_trace(QOS_JOBS, seed=42, arrival="poisson", rate_jobs_per_s=rate)
        report = shard.replay_sharded(
            trace, num_shards=QOS_SHARDS, boards_per_shard=BOARDS_PER_SHARD
        )
        assert report.jobs == QOS_JOBS
        p50, p99, p999 = (report.wait_percentile(q) for q in (50.0, 99.0, 99.9))
        loads[str(rho)] = {
            "rate_jobs_per_s": round(rate, 4),
            "wait_p50_s": round(p50, 3),
            "wait_p99_s": round(p99, 3),
            "wait_p999_s": round(p999, 3),
            "affinity_hit_rate": round(report.affinity_hit_rate, 4),
        }
        print(
            f"\nrho={rho}: {rate:.2f} jobs/s, wait p50={p50:.2f}s p99={p99:.2f}s "
            f"p999={p999:.2f}s, hit rate {report.affinity_hit_rate:.1%}"
        )
    record_bench(
        "shard",
        "qos_at_offered_load",
        jobs=QOS_JOBS,
        shards=QOS_SHARDS,
        boards_per_shard=BOARDS_PER_SHARD,
        arrival="poisson",
        seed=42,
        by_rho=loads,
    )
