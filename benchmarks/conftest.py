"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: the timed body is
the experiment itself (so ``pytest-benchmark`` reports how long the model
takes), and the resulting rows are printed so the run log contains the same
series the paper reports.  EXPERIMENTS.md records paper-vs-measured values.

The gates additionally record their measurements through one writer,
:func:`record_bench`, which merges named entries into ``BENCH_<stem>.json`` at
the repo root: ``fastpath`` (crypto datapath speedups), ``sched``
(warm-affinity makespan ratios, policy waits), ``obs`` (observability
overhead), ``serve`` (async serving throughput and latency) and ``shard``
(shard-scale replay throughput, tail waits, utilization).  Every entry
carries its provenance -- commit, Python and numpy versions, CPU model,
``nproc`` and a UTC timestamp -- so a number can be traced to the code and
the host that produced it.  The files are git-ignored run outputs; CI
uploads them as workflow artifacts so the perf trajectory is tracked across
PRs.

``record_stage_percentiles`` stamps per-stage latency percentiles (from a
live metrics registry's ``cloud.stage_seconds`` histograms) into any of the
bench JSONs, so entries can carry stage timings alongside their headline
ratios.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from perfbench.run import provenance
from repro.sim.reporting import render_experiment


def random_bytes(seed: int, length: int) -> bytes:
    """Deterministic pseudo-random payload for the crypto benchmarks."""
    return np.random.default_rng(seed).integers(0, 256, length, dtype=np.uint8).tobytes()

_REPO_ROOT = Path(__file__).resolve().parent.parent


def record_bench(stem: str, name: str, **fields) -> None:
    """Merge one named measurement, with its provenance, into
    ``BENCH_<stem>.json`` at the repo root.

    The provenance fields are perfbench's, less its input seed.
    """
    path = _REPO_ROOT / f"BENCH_{stem}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    info = provenance(seed=None)
    del info["seed"]
    data[name] = {**fields, "provenance": info}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def stage_percentiles(metrics, stages=("shield_load", "input_seal", "execute")) -> dict:
    """Per-stage p50/p95/p99 (seconds) from ``cloud.stage_seconds`` histograms.

    Reads the labelled histograms a :class:`~repro.cloud.service
    .ShieldCloudService` run populates; stages with no samples are skipped so
    a partial run still produces a well-formed entry.
    """
    out = {}
    for stage in stages:
        summary = metrics.histogram("cloud.stage_seconds", stage=stage).summary()
        if summary["count"]:
            out[stage] = {
                "p50_s": summary["p50"],
                "p95_s": summary["p95"],
                "p99_s": summary["p99"],
            }
    return out


def record_stage_percentiles(stem: str, name: str, metrics, **extra) -> None:
    """Stamp per-stage timing percentiles into ``BENCH_<stem>.json``."""
    stages = stage_percentiles(metrics)
    if stages:
        record_bench(stem, name, stages=stages, **extra)


def crypto_percentiles(metrics) -> dict:
    """Seal/unseal duration percentiles from a live registry.

    Reads the ``crypto.{seal,unseal}_seconds`` histograms a
    :class:`~repro.core.sealing.RegionSealer` populates; empty series are
    skipped.
    """
    out = {}
    for op in ("seal", "unseal"):
        summary = metrics.histogram(f"crypto.{op}_seconds").summary()
        if summary["count"]:
            out[op] = {
                "count": summary["count"],
                "p50_s": summary["p50"],
                "p99_s": summary["p99"],
            }
    return out


def run_and_report(benchmark, experiment_fn, *args, **kwargs):
    """Benchmark an experiment function and print its rendered table."""
    result = benchmark(experiment_fn, *args, **kwargs)
    print()
    print(render_experiment(result))
    return result
