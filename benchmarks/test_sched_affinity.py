"""Warm-board affinity on a repeated-tenant trace: the makespan ratio gate.

The paper's Section 6.1 prices a Shield load (partial reconfiguration +
Load-Key delivery) at ~6.2 s on AWS F1 -- for short jobs that is the whole
bill.  This benchmark replays a repeated-tenant trace through the timed
:class:`~repro.sim.cloud.CloudSimulator` with affinity on and off: warm
placement must collapse the N-per-trace reconfigurations to one per board
and cut makespan accordingly.  The measured ratio (plus the functional
serving layer's wall-clock on the same shape of workload) lands in
``BENCH_sched.json`` for the CI artifact, next to ``BENCH_fastpath.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import record_bench, stage_percentiles
from repro.sim.cloud import CloudSimulator, repeated_tenant_trace

NUM_JOBS = 12
NUM_BOARDS = 2
#: Reconfiguration dominates short jobs: with one tenant on two boards the
#: cold run pays NUM_JOBS loads, the warm run pays NUM_BOARDS.  Demand most
#: of that theoretical win (exec time and queueing keep it below the ideal).
MIN_MAKESPAN_RATIO = 2.0


def test_affinity_makespan_ratio_on_repeated_tenant_trace():
    trace = repeated_tenant_trace(num_jobs=NUM_JOBS)
    warm_sim = CloudSimulator(num_boards=NUM_BOARDS, affinity=True)
    cold_sim = CloudSimulator(num_boards=NUM_BOARDS, affinity=False)

    start = time.perf_counter()
    warm = warm_sim.replay_experiment(trace, experiment_id="sched-warm")
    cold = cold_sim.replay_experiment(trace, experiment_id="sched-cold")
    replay_seconds = time.perf_counter() - start

    warm_makespan = warm.metadata["makespan_s"]
    cold_makespan = cold.metadata["makespan_s"]
    ratio = cold_makespan / warm_makespan
    print(
        f"\nrepeated-tenant trace ({NUM_JOBS} jobs, {NUM_BOARDS} boards): "
        f"cold {cold_makespan:.1f}s, warm {warm_makespan:.1f}s, "
        f"makespan ratio {ratio:.1f}x "
        f"(hit rate {warm.metadata['affinity_hit_rate']:.0%})"
    )
    record_bench(
        "sched",
        "repeated_tenant_makespan_ratio",
        ratio=round(ratio, 2),
        makespan_cold_s=cold_makespan,
        makespan_warm_s=warm_makespan,
        jobs=NUM_JOBS,
        boards=NUM_BOARDS,
        shield_loads_warm=warm.metadata["shield_loads"],
        shield_loads_cold=cold.metadata["shield_loads"],
        affinity_hit_rate=warm.metadata["affinity_hit_rate"],
        replay_seconds=round(replay_seconds, 4),
    )
    assert warm.metadata["shield_loads"] <= NUM_BOARDS
    assert cold.metadata["shield_loads"] == NUM_JOBS
    assert ratio >= MIN_MAKESPAN_RATIO, (
        f"warm affinity only cut makespan {ratio:.2f}x "
        f"(need >= {MIN_MAKESPAN_RATIO}x)"
    )


def test_policy_zoo_mean_waits_recorded():
    """Not a gate -- a tracked series: mean wait of each policy on a mixed
    trace, so policy regressions show up in the artifact.

    The trace assigns *distinct* per-job priorities and fair-share weights on
    top of the three distinct workload costs: on the seed's uniform trace
    (every job priority 0, weight 1) the priority policy degenerated to FIFO
    and ``BENCH_sched.json`` reported identical mean waits for both, so the
    series could never catch a priority-policy regression."""
    from dataclasses import replace

    from repro.cloud.policies import POLICY_NAMES
    from repro.sim.cloud import default_mixed_trace

    trace = [
        replace(event, priority=index % 5, weight=float(1 + index % 3))
        for index, event in enumerate(
            default_mixed_trace(jobs_per_tenant=4, arrival_gap_s=0.0)
        )
    ]
    waits = {}
    for policy in POLICY_NAMES:
        result = CloudSimulator(num_boards=2, policy=policy).replay_experiment(trace)
        waits[policy] = result.metadata["mean_wait_s"]
    print(f"\nmean wait by policy (s): {waits}")
    record_bench("sched", "policy_mean_wait_s", **waits)
    assert all(wait >= 0 for wait in waits.values())
    assert waits["fifo"] != waits["priority"], (
        "the comparison trace must differentiate the priority policy from FIFO"
    )


def test_functional_stage_timings_recorded():
    """Not a gate -- a tracked series: per-stage wall-clock percentiles of a
    functional serving-layer run (from the service's own ``cloud.stage_seconds``
    histograms), stamped into ``BENCH_sched.json`` next to the makespan ratio."""
    from repro.accelerators import VectorAddAccelerator
    from repro.cloud import ShieldCloudService

    service = ShieldCloudService(num_boards=2)
    accelerator = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("bench", accelerator)
    inputs = accelerator.prepare_inputs(seed=3)
    for _ in range(4):
        service.submit_job(
            session.session_id, inputs=inputs, output_regions={"c0": None}
        )
    service.run_until_idle()

    stages = stage_percentiles(
        service.metrics,
        stages=("shield_load", "input_seal", "execute", "download", "output_unseal"),
    )
    print(f"\nfunctional per-stage timings: {stages}")
    record_bench("sched", "functional_stage_seconds", **stages)
    assert service.stats.jobs_completed == 4
    assert {"shield_load", "input_seal", "execute"} <= set(stages)
