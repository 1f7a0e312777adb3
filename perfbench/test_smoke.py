"""Self-test of the benchmark harness in smoke mode (tiny sizes, seconds)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.harness import END_TO_END, run_workload
from perfbench.layers import PER_LAYER
from perfbench.workloads import SMOKE, WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SECONDS = 0.5


def _catalogue(section: str) -> list:
    return [(metric["name"], metric["unit"], metric["better"]) for metric in BENCHMARK[section]]


def test_benchmark_json_matches_the_harness():
    assert _catalogue("end_to_end") == list(END_TO_END)
    assert _catalogue("per_layer") == list(PER_LAYER)
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_metric_and_counts_a_corrupted_output(workload):
    result = run_workload(workload, seed=3, seconds=2 * SECONDS, sizes=SMOKE, corrupt=True)
    assert {name: unit for name, (_, unit) in result.metrics.items()} == {
        name: unit for name, unit, _ in END_TO_END
    }
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.failed == 1 and not result.correct
    assert result.report["failed_frac"] == pytest.approx(1 / result.attempted)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_adds_up(workload):
    result = run_workload(workload, seed=3, seconds=2 * SECONDS, trace=True, sizes=SMOKE)
    assert result.correct, result.failures
    assert {name: unit for name, (_, unit) in result.metrics.items()} == {
        name: unit for name, unit, _ in PER_LAYER
    }
    report = result.report
    assert report["traced_jobs"] > 0
    assert report["spans_outside_their_job"] == 0
    assert report["layer_s"] + report["other_s"] + report["wait_s"] == pytest.approx(report["traced_wall_s"])
    assert result.metrics["core.merkle.calls_per_job"][0] == 0


def test_modelled_metrics_repeat_exactly_for_a_seed():
    first, second = (run_workload("fleet-replay", seed=5, seconds=0.1, sizes=SMOKE) for _ in range(2))
    assert first.correct and second.correct
    for name in ("modelled_wait_p99_s", "modelled_wait_p999_s", "modelled_hit_rate"):
        assert first.report[name] == second.report[name]
