"""One benchmark run: set up, warm up, measure, check, and compute metrics.

An untraced run (``trace=False``) times set-up ``setup_reps`` times and
reports the median, then measures for ``seconds`` and yields the end-to-end
metrics.  A traced run measures ``seconds / 2`` untraced and ``seconds / 2``
with :class:`~perfbench.layers.SpanRecorder` installed, on the same set-up;
the first half is the baseline for the tracing overhead and the second half
gives the per-layer table.  End-to-end numbers never come from traced jobs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from perfbench.layers import PER_LAYER, LayerFold, SpanRecorder, layer_metrics
from perfbench.workloads import FULL, WORKLOADS, Sizes

#: (name, unit, better) of every end-to-end metric.  The bounds live in
#: BENCHMARK.json.
END_TO_END = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10


def tail(latencies: list) -> tuple:
    """``(value, percentile, samples beyond)``: the highest nearest-rank
    percentile with at least :data:`TAIL_SAMPLES` latencies above it, and
    never below the median (a short run reports its median)."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(count - TAIL_SAMPLES, count // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def busy_seconds(records: list) -> float:
    """Host seconds during which at least one measured job was in flight."""
    total, end = 0.0, float("-inf")
    for start, stop in sorted((r.start, r.end) for r in records):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int
    failures: list
    #: name -> (value, unit): the end-to-end metrics, or the per-layer ones
    #: of a traced run.
    metrics: dict
    #: Every other number of the run, for the printed report and the file.
    report: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures


def _failures(records: list) -> list:
    return [record.error for record in records if record.error is not None]


def _latency_report(measured: list, simulated_jobs: int | None) -> dict:
    ok = [record for record in measured if record.error is None]
    latencies = [record.latency_s for record in ok]
    busy = busy_seconds(measured)
    report = {"jobs": len(ok), "busy_s": busy, "jobs_per_s": len(ok) / busy if busy else 0.0}
    if latencies:
        value, quantile, beyond = tail(latencies)
        report.update(
            job_p50_s=statistics.median(latencies),
            job_tail_s=value,
            job_tail_percentile=quantile,
            job_tail_samples_beyond=beyond,
            job_mean_s=statistics.fmean(latencies),
        )
        if simulated_jobs is not None:
            report["replay_us_per_job"] = busy * 1e6 / (len(ok) * simulated_jobs)
    return report


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    sizes: Sizes = FULL,
    corrupt: bool = False,
) -> Result:
    """Run one workload; ``corrupt`` flips one expected output (self-test)."""
    workload = WORKLOADS[name]
    simulated = sizes.replay_jobs if name == "fleet-replay" else None
    if trace:
        return _run_traced(workload, seed, seconds, sizes, corrupt, simulated)
    reps = sizes.replay_setup_reps if simulated else sizes.setup_reps
    setup_times = []
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(sizes)
        setup_times.append(time.perf_counter() - start)
    warm = workload.warm_up(state, seed)
    measurement = workload.measure(state, seed, seconds, corrupt=corrupt)
    workload.finish(state, measurement)
    records = warm + measurement.records
    measured = [record for record in measurement.records if record.timed]
    report = _latency_report(measured, simulated)
    report.update(setup_s=statistics.median(setup_times), setup_reps=reps, peak_rss_mib=peak_rss_mib())
    report.update(measurement.extras)
    report["failed_frac"] = len(_failures(records)) / len(records)
    metrics = {metric: (report.get(metric, 0.0), unit) for metric, unit, _ in END_TO_END}
    return Result(name, seed, seconds, False, len(records), _failures(records), metrics, report)


def _run_traced(workload, seed: int, seconds: float, sizes: Sizes, corrupt: bool, simulated) -> Result:
    recorder = SpanRecorder()
    with recorder.installed():
        state = workload.setup(sizes)
    rsa_setup_s = sum(span.duration for span in recorder.spans if span.layer == "crypto.rsa.keygen")
    recorder.spans.clear()
    warm = workload.warm_up(state, seed)
    baseline = workload.measure(state, seed, seconds / 2)
    with recorder.installed():
        traced = workload.measure(state, seed, seconds / 2, recorder, corrupt)
    workload.finish(state, traced)
    recorder.resolve_jobs()
    records = warm + baseline.records + traced.records
    windows = {r.job_id: (r.start, r.end) for r in traced.records if r.timed and r.error is None}
    fold = LayerFold(recorder.spans, windows)
    values = layer_metrics(fold, traced.extras, simulated)
    values["crypto.rsa.setup_s"] = rsa_setup_s
    base = _latency_report([r for r in baseline.records if r.timed], simulated)
    under_trace = _latency_report([r for r in traced.records if r.timed], simulated)
    if base.get("job_mean_s") and under_trace.get("job_mean_s"):
        values["trace.overhead_pct"] = 100.0 * (under_trace["job_mean_s"] / base["job_mean_s"] - 1.0)
    units = {metric: unit for metric, unit, _ in PER_LAYER}
    metrics = {metric: (value, units[metric]) for metric, value in values.items()}
    report = {
        "traced_jobs": fold.jobs,
        "traced_wall_s": fold.wall_s,
        "layer_self_s": dict(sorted(fold.self_s.items())),
        "layer_s": fold.layer_s,
        "wait_s": fold.wait_s,
        "other_s": fold.other_s,
        "spans": len(recorder.spans),
        "spans_outside_their_job": fold.misattributed,
        "untraced_calls": recorder.missing,
        "untraced_baseline": base,
        "traced": under_trace,
    }
    return Result(workload.name, seed, seconds, True, len(records), _failures(records), metrics, report)
