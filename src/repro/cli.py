"""Command-line interface for the ShEF reproduction.

Three subcommands cover the common workflows without writing any Python:

* ``experiments`` -- run one (or all) of the paper's experiments and print the
  same rows the paper reports, optionally exporting CSV/JSON;
* ``deploy-demo`` -- run the end-to-end Figure 2 workflow on a chosen
  accelerator and report boot/attestation/Shield status;
* ``cloud-demo`` -- serve several concurrent tenants from a shared board
  fleet through :class:`~repro.cloud.service.ShieldCloudService`, check every
  tenant's outputs against its single-tenant baseline, and audit the host
  ledger for plaintext leaks;
* ``serve-demo`` -- the same tenants through the asyncio request path
  (:class:`~repro.serve.AsyncShieldFrontend`): concurrent submission streams,
  per-tenant token-bucket rate limits, queue-depth load shedding, and a
  graceful drain, with the backpressure outcomes in the summary;
* ``cloud-trace`` -- replay a multi-tenant trace through the timed
  :class:`~repro.sim.cloud.CloudSimulator` under a chosen scheduling policy,
  with or without warm-board Shield affinity;
* ``shard-replay`` -- generate a large synthetic trace (Poisson, diurnal, or
  heavy-tailed arrivals; Zipf tenant popularity) and replay it across N shard
  fleets behind the consistent-hash :class:`~repro.cloud.shard.ShardRouter`,
  one fixed-size simulated fleet per shard;
* ``trace-report`` -- render per-stage latency percentiles and per-tenant
  breakdowns from a JSONL trace written by ``--trace``;
* ``list`` -- enumerate the available accelerators, experiments, and board
  profiles.

``cloud-demo`` and ``cloud-trace`` share the observability flags: ``--trace``
writes the lifecycle event stream as JSONL, ``--chrome-trace`` writes a
``chrome://tracing``-loadable timeline, and ``--metrics`` dumps the metrics
registry in Prometheus text format (``-`` for stdout).

Usage::

    python -m repro.cli experiments table-2
    python -m repro.cli experiments all --export-dir results/
    python -m repro.cli deploy-demo dnnweaver --board aws-f1
    python -m repro.cli cloud-demo --boards 2 --policy fair
    python -m repro.cli cloud-demo --trace run.jsonl --metrics -
    python -m repro.cli serve-demo --boards 2 --rate-limit 4
    python -m repro.cli cloud-trace --policy sjf --repeated-tenant
    python -m repro.cli shard-replay --shards 8 --jobs 100000 --arrival diurnal
    python -m repro.cli trace-report run.jsonl
    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import repro.obs as obs_api

from repro.accelerators import ALL_ACCELERATORS
from repro.cloud.policies import POLICY_NAMES
from repro.hw.board import BoardModel
from repro.sim import experiments as experiments_module
from repro.sim.cloud import cloud_trace_experiment
from repro.sim.export import write_experiment
from repro.sim.reporting import render_experiment

EXPERIMENTS = {
    "cloud-trace": cloud_trace_experiment,
    "section-6.1": experiments_module.boot_latency_experiment,
    "table-1": experiments_module.table1_experiment,
    "figure-5": experiments_module.figure5_experiment,
    "section-6.2.2-matmul": experiments_module.matmul_companion_experiment,
    "table-2": experiments_module.table2_experiment,
    "figure-6": experiments_module.figure6_experiment,
    "table-3": experiments_module.table3_experiment,
    "ablation-replay": experiments_module.ablation_replay_protection,
    "ablation-chunk-size": experiments_module.ablation_chunk_size,
    "ablation-buffer": experiments_module.ablation_buffer_size,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ShEF (ASPLOS 2022) reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "experiments", help="run one of the paper's experiments (or 'all')"
    )
    run_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"], help="experiment identifier"
    )
    run_parser.add_argument(
        "--export-dir", default=None, help="write each result as CSV into this directory"
    )
    run_parser.add_argument(
        "--json", action="store_true", help="export JSON instead of CSV"
    )

    demo_parser = subparsers.add_parser(
        "deploy-demo", help="run the end-to-end deployment workflow for an accelerator"
    )
    demo_parser.add_argument("accelerator", choices=sorted(ALL_ACCELERATORS))
    demo_parser.add_argument(
        "--board", choices=[model.value for model in BoardModel], default="aws-f1"
    )

    cloud_parser = subparsers.add_parser(
        "cloud-demo", help="serve concurrent tenants from a shared board fleet"
    )
    cloud_parser.add_argument(
        "--boards", type=int, default=2, help="number of boards in the fleet"
    )
    cloud_parser.add_argument(
        "--jobs-per-tenant", type=int, default=1, help="jobs each tenant submits"
    )
    _add_scheduling_flags(cloud_parser)
    _add_obs_flags(cloud_parser)
    cloud_parser.add_argument(
        "--queue-cap",
        type=int,
        default=None,
        help="fleet-wide pending-queue cap (jobs beyond it are REJECTED)",
    )

    serve_parser = subparsers.add_parser(
        "serve-demo",
        help="serve concurrent tenant streams through the asyncio front-end",
    )
    serve_parser.add_argument(
        "--boards", type=int, default=2, help="number of boards in the fleet"
    )
    serve_parser.add_argument(
        "--jobs-per-tenant", type=int, default=2, help="jobs each tenant submits"
    )
    _add_scheduling_flags(serve_parser)
    _add_obs_flags(serve_parser)
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="JOBS_PER_S",
        help="per-tenant token-bucket rate (submissions/s); omit to disable",
    )
    serve_parser.add_argument(
        "--burst",
        type=float,
        default=None,
        help="token-bucket burst capacity (defaults to max(rate, 1))",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="shed submissions once N jobs are already queued",
    )
    serve_parser.add_argument(
        "--job-retention",
        type=int,
        default=1024,
        metavar="N",
        help="terminal jobs kept reachable via job_result() (must be >= 1)",
    )

    trace_parser = subparsers.add_parser(
        "cloud-trace",
        help="replay a multi-tenant trace through the timed fleet simulator",
    )
    trace_parser.add_argument(
        "--boards", type=int, default=2, help="number of boards in the fleet"
    )
    _add_scheduling_flags(trace_parser)
    trace_parser.add_argument(
        "--repeated-tenant",
        action="store_true",
        help="replay the single-tenant repeated-job trace (the affinity showcase) "
        "instead of the default mixed-tenant trace",
    )
    trace_parser.add_argument(
        "--jobs", type=int, default=8, help="jobs in the repeated-tenant trace"
    )
    _add_obs_flags(trace_parser)

    shard_parser = subparsers.add_parser(
        "shard-replay",
        help="replay a generated large-scale trace across N shard fleets "
        "(consistent-hash session routing, one simulator per shard)",
    )
    shard_parser.add_argument(
        "--shards", type=int, default=8, help="number of shard fleets"
    )
    shard_parser.add_argument(
        "--boards-per-shard", type=int, default=4,
        help="board count of each (fixed) shard fleet",
    )
    shard_parser.add_argument(
        "--jobs", type=int, default=100_000, help="jobs in the generated trace"
    )
    shard_parser.add_argument(
        "--seed", type=int, default=42, help="trace generator seed"
    )
    shard_parser.add_argument(
        "--arrival",
        choices=["poisson", "diurnal", "heavy_tailed"],
        default="poisson",
        help="arrival process of the generated trace",
    )
    shard_parser.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate of the generated trace (jobs/s)",
    )
    _add_scheduling_flags(shard_parser)

    report_parser = subparsers.add_parser(
        "trace-report",
        help="render per-stage percentiles and per-tenant totals from a JSONL trace",
    )
    report_parser.add_argument("trace_file", help="JSONL trace written by --trace")

    subparsers.add_parser("list", help="list accelerators, experiments, and boards")
    return parser


def _add_scheduling_flags(parser: argparse.ArgumentParser) -> None:
    """The shared scheduling knobs: one policy zoo for service and simulator."""
    parser.add_argument(
        "--policy",
        choices=list(POLICY_NAMES),
        default="fifo",
        help="scheduling policy (shared by the functional service and the simulator)",
    )
    parser.add_argument(
        "--no-affinity",
        action="store_true",
        help="disable warm-board Shield affinity (tear down + reload on every job)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability exports for cloud-demo and cloud-trace."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the lifecycle/security event stream as JSONL to PATH",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="write a chrome://tracing-loadable timeline JSON to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="dump the metrics registry as Prometheus text to PATH ('-' for stdout)",
    )


def _flags_at_least_one(args, out, *names) -> bool:
    """Print an error for the first ``--name`` flag below 1; False if any is."""
    for name in names:
        if getattr(args, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be at least 1", file=out)
            return False
    return True


def _demo_tenants() -> dict:
    """The three tenants of the demos, one accelerator each."""
    from repro.accelerators import (
        AffineTransformAccelerator,
        MatMulAccelerator,
        VectorAddAccelerator,
    )

    return {
        "alice": VectorAddAccelerator(8 * 1024),
        "bob": MatMulAccelerator(32),
        "carol": AffineTransformAccelerator(64),
    }


def _obs_scope(args):
    """A scoped live observability handle when any export flag asks for one.

    Without flags the process-wide handle (normally the null backend) is used
    unchanged, so the demos stay on the no-op hot path.
    """
    if args.trace or args.chrome_trace or args.metrics:
        return obs_api.scoped()
    return contextlib.nullcontext(obs_api.current())


def _export_obs(args, handle, out) -> None:
    """Write whichever of --trace/--chrome-trace/--metrics were requested."""
    from repro.obs.exporters import prometheus_text, write_chrome_trace, write_jsonl

    if args.trace:
        write_jsonl(handle.tracer.events, args.trace)
        print(f"wrote {len(handle.tracer.events)} event(s) to {args.trace}", file=out)
    if args.chrome_trace:
        write_chrome_trace(handle.tracer.events, args.chrome_trace)
        print(f"wrote chrome trace to {args.chrome_trace}", file=out)
    if args.metrics:
        text = prometheus_text(handle.metrics)
        if args.metrics == "-":
            out.write(text)
        else:
            with open(args.metrics, "w", encoding="utf-8") as metrics_file:
                metrics_file.write(text)
            print(f"wrote metrics to {args.metrics}", file=out)


def run_experiments(args: argparse.Namespace, out=sys.stdout) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = EXPERIMENTS[name]()
        print(render_experiment(result), file=out)
        print(file=out)
        if args.export_dir:
            os.makedirs(args.export_dir, exist_ok=True)
            extension = "json" if args.json else "csv"
            path = os.path.join(args.export_dir, f"{name}.{extension}")
            write_experiment(result, path)
            print(f"wrote {path}", file=out)
    return 0


def run_deploy_demo(args: argparse.Namespace, out=sys.stdout) -> int:
    from repro.workflow import deploy_accelerator

    accelerator = ALL_ACCELERATORS[args.accelerator]()
    config = accelerator.build_shield_config()
    deployment = deploy_accelerator(args.accelerator, config, board_model=args.board)
    print(f"accelerator        : {args.accelerator}", file=out)
    print(f"board              : {args.board}", file=out)
    print(f"secure boot        : {deployment.boot_result.total_seconds:.1f} s (modelled)", file=out)
    print(f"attestation        : {deployment.attestation.transcript_length} messages", file=out)
    print(f"shield operational : {deployment.shield.operational}", file=out)
    print(f"engine sets        : {len(config.engine_sets)}", file=out)
    print(f"protected regions  : {len(config.regions)}", file=out)
    return 0


def run_cloud_demo(args: argparse.Namespace, out=sys.stdout) -> int:
    """Three tenants, three accelerators, one shared fleet -- with receipts."""
    from repro.cloud import JobState, ShieldCloudService
    from repro.sim.simulator import outputs_equal, run_unshielded_baseline

    if not _flags_at_least_one(args, out, "boards", "jobs_per_tenant"):
        return 2
    tenants = _demo_tenants()
    with _obs_scope(args) as obs_handle:
        service = ShieldCloudService(
            num_boards=args.boards,
            policy=args.policy,
            affinity=not args.no_affinity,
            queue_cap=args.queue_cap,
        )
        sessions = {
            tenant: service.admit_tenant(tenant, accelerator)
            for tenant, accelerator in tenants.items()
        }
        jobs: dict = {tenant: [] for tenant in tenants}
        all_inputs: dict = {}
        for round_index in range(args.jobs_per_tenant):
            for tenant, accelerator in tenants.items():
                inputs = accelerator.prepare_inputs(seed=round_index)
                all_inputs[(tenant, round_index)] = inputs
                jobs[tenant].append(
                    service.submit_job(sessions[tenant].session_id, inputs=inputs)
                )
        service.run_until_idle()

        summary = service.fleet_summary()
        print(f"fleet               : {args.boards} board(s), "
              f"{len(tenants)} concurrent tenants", file=out)
        print(f"policy              : {summary['policy']} "
              f"(affinity {'on' if summary['affinity'] else 'off'})", file=out)
        mismatches = 0
        failures = 0
        for round_index in range(args.jobs_per_tenant):
            for tenant, accelerator in tenants.items():
                job = jobs[tenant][round_index]
                if job.state is JobState.REJECTED:
                    # Backpressure under --queue-cap is an expected outcome, not a
                    # failure; the count is already in the summary line below.
                    print(f"job {job.job_id} ({tenant}) rejected: {job.error}", file=out)
                    continue
                if job.result is None:
                    failures += 1
                    print(f"job {job.job_id} ({tenant}) failed: {job.error}", file=out)
                    continue
                baseline = run_unshielded_baseline(
                    accelerator,
                    accelerator.build_shield_config(),
                    all_inputs[(tenant, round_index)],
                )
                if not outputs_equal(baseline.outputs, job.result.outputs):
                    mismatches += 1
        leaks = sum(
            len(service.plaintext_exposures(plaintext))
            for inputs in all_inputs.values()
            for plaintext in inputs.values()
        )
        for tenant, session in sessions.items():
            usage = session.usage
            print(
                f"tenant {tenant:<12} : {usage.jobs_completed} job(s) on "
                f"board(s) {sorted(set(session.boards_used))}, "
                f"{usage.dram_bytes_read + usage.dram_bytes_written} DRAM bytes moved",
                file=out,
            )
        print(f"failed jobs         : {failures}", file=out)
        print(f"rejected jobs       : {summary['jobs_rejected']}", file=out)
        print(f"shield loads        : {summary['shield_loads']} "
              f"(affinity hits {summary['affinity_hits']}, "
              f"hit rate {summary['affinity_hit_rate']:.0%})", file=out)
        print(f"baseline mismatches : {mismatches}", file=out)
        print(f"plaintext leaks     : {leaks}", file=out)
        _export_obs(args, obs_handle, out)
    return 0 if mismatches == 0 and leaks == 0 and failures == 0 else 1


def run_serve_demo(args: argparse.Namespace, out=sys.stdout) -> int:
    """Three tenants racing through the asyncio request path."""
    import asyncio

    from repro.cloud import JobState, ShieldCloudService
    from repro.serve import AsyncShieldFrontend

    if not _flags_at_least_one(args, out, "boards", "jobs_per_tenant", "job_retention"):
        return 2
    tenants = _demo_tenants()

    async def serve(service) -> list:
        sessions = {
            tenant: service.admit_tenant(tenant, accelerator)
            for tenant, accelerator in tenants.items()
        }
        async with AsyncShieldFrontend(
            service,
            rate_limit=args.rate_limit,
            burst=args.burst,
            max_pending=args.max_pending,
        ) as frontend:
            futures = []
            # Interleave the tenants round-robin so the streams genuinely
            # race for boards instead of arriving one tenant at a time.
            for round_index in range(args.jobs_per_tenant):
                for tenant, accelerator in tenants.items():
                    futures.append(
                        frontend.submit_nowait(
                            sessions[tenant].session_id,
                            inputs=accelerator.prepare_inputs(seed=round_index),
                        )
                    )
            return await asyncio.gather(*futures)

    with _obs_scope(args) as obs_handle:
        service = ShieldCloudService(
            num_boards=args.boards,
            policy=args.policy,
            affinity=not args.no_affinity,
            job_retention=args.job_retention,
        )
        jobs = asyncio.run(serve(service))
        summary = service.fleet_summary()
        completed = sum(1 for job in jobs if job.state is JobState.COMPLETED)
        print(f"fleet               : {args.boards} board(s), "
              f"{len(tenants)} concurrent tenant streams", file=out)
        print(f"policy              : {summary['policy']} "
              f"(affinity {'on' if summary['affinity'] else 'off'})", file=out)
        if args.rate_limit is not None:
            print(f"rate limit          : {args.rate_limit:g} job(s)/s per tenant",
                  file=out)
        if args.max_pending is not None:
            print(f"load shed           : queue depth > {args.max_pending}", file=out)
        for job in jobs:
            if job.state is JobState.REJECTED:
                print(f"job {job.job_id} ({job.tenant}) rejected: {job.error}",
                      file=out)
            elif job.state is not JobState.COMPLETED:
                print(f"job {job.job_id} ({job.tenant}) {job.state.value}: "
                      f"{job.error}", file=out)
        print(f"completed jobs      : {completed}/{len(jobs)}", file=out)
        print(f"rejected jobs       : {summary['jobs_rejected']} "
              f"(rate-limited {summary['jobs_ratelimited']}, "
              f"shed {summary['jobs_shed']})", file=out)
        print(f"shield loads        : {summary['shield_loads']} "
              f"(affinity hits {summary['affinity_hits']}, "
              f"hit rate {summary['affinity_hit_rate']:.0%})", file=out)
        print(f"retained jobs       : {len(service.terminal_jobs)} "
              f"(retention {args.job_retention})", file=out)
        failures = sum(1 for job in jobs if job.state is JobState.FAILED)
        print(f"failed jobs         : {failures}", file=out)
        _export_obs(args, obs_handle, out)
    return 0 if failures == 0 else 1


def run_cloud_trace(args: argparse.Namespace, out=sys.stdout) -> int:
    """Timed fleet replay: policy + affinity knobs over the CloudSimulator."""
    from repro.sim.cloud import CloudSimulator, default_mixed_trace, repeated_tenant_trace

    if not _flags_at_least_one(args, out, "boards", "jobs"):
        return 2
    trace = (
        repeated_tenant_trace(num_jobs=args.jobs)
        if args.repeated_tenant
        else default_mixed_trace()
    )
    with _obs_scope(args) as obs_handle:
        simulator = CloudSimulator(
            num_boards=args.boards, policy=args.policy, affinity=not args.no_affinity
        )
        result = simulator.replay_experiment(trace)
        print(render_experiment(result), file=out)
        meta = result.metadata
        print(file=out)
        print(f"policy            : {meta['policy']} "
              f"(affinity {'on' if meta['affinity'] else 'off'})", file=out)
        print(f"makespan          : {meta['makespan_s']} s", file=out)
        print(f"board utilization : {meta['board_utilization']:.0%}", file=out)
        print(f"shield loads      : {meta['shield_loads']} "
              f"(warm hits {meta['affinity_hits']}, "
              f"hit rate {meta['affinity_hit_rate']:.0%})", file=out)
        print(f"wait p50 / p99    : {meta['wait_p50_s']} s / {meta['wait_p99_s']} s",
              file=out)
        _export_obs(args, obs_handle, out)
    return 0


def run_shard_replay(args: argparse.Namespace, out=sys.stdout) -> int:
    """Shard-scale replay: generate a trace, route it, replay per shard."""
    import time

    from repro.cloud.shard import replay_sharded
    from repro.sim.traces import generate_trace

    if not _flags_at_least_one(args, out, "shards", "boards_per_shard", "jobs"):
        return 2
    # The wall time spans generate + route + replay + merge, the same span
    # benchmarks/test_shard_scale.py gates.
    started = time.perf_counter()
    trace = generate_trace(
        args.jobs, seed=args.seed, arrival=args.arrival,
        rate_jobs_per_s=args.rate,
    )
    report = replay_sharded(
        trace,
        num_shards=args.shards,
        boards_per_shard=args.boards_per_shard,
        policy=args.policy,
        affinity=not args.no_affinity,
    )
    p50, p99, p999 = (report.wait_percentile(q) for q in (50.0, 99.0, 99.9))
    wall = time.perf_counter() - started
    print(render_experiment(report.to_experiment()), file=out)
    print(file=out)
    print(f"replayed          : {report.jobs} jobs / {len(report.shard_stats)} shards",
          file=out)
    print(f"wall time         : {wall:.2f} s generate to merge "
          f"({report.jobs / wall:.0f} jobs/s, "
          f"{wall / report.jobs * 1e6:.1f} us/job)", file=out)
    print(f"modelled makespan : {report.makespan_s:.1f} s", file=out)
    print(f"wait p50/p99/p999 : {p50:.1f} s / {p99:.1f} s / {p999:.1f} s", file=out)
    print(f"affinity hit rate : {report.affinity_hit_rate:.1%}", file=out)
    return 0


def run_trace_report(args: argparse.Namespace, out=sys.stdout) -> int:
    """Render the per-stage/per-tenant report from a JSONL trace file."""
    from repro.obs.exporters import read_jsonl
    from repro.obs.report import render_trace_report

    try:
        events = read_jsonl(args.trace_file)
    except FileNotFoundError:
        print(f"error: no trace file at {args.trace_file!r}", file=out)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(render_trace_report(events), file=out)
    return 0


def run_list(out=sys.stdout) -> int:
    print("accelerators:", file=out)
    for name in sorted(ALL_ACCELERATORS):
        print(f"  {name}", file=out)
    print("experiments:", file=out)
    for name in sorted(EXPERIMENTS):
        print(f"  {name}", file=out)
    print("boards:", file=out)
    for model in BoardModel:
        print(f"  {model.value}", file=out)
    return 0


def main(argv=None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "experiments":
        return run_experiments(args, out=out)
    if args.command == "deploy-demo":
        return run_deploy_demo(args, out=out)
    if args.command == "cloud-demo":
        return run_cloud_demo(args, out=out)
    if args.command == "serve-demo":
        return run_serve_demo(args, out=out)
    if args.command == "cloud-trace":
        return run_cloud_trace(args, out=out)
    if args.command == "shard-replay":
        return run_shard_replay(args, out=out)
    if args.command == "trace-report":
        return run_trace_report(args, out=out)
    return run_list(out=out)


if __name__ == "__main__":
    sys.exit(main())
