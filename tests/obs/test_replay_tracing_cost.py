"""The replay's observability cost, pinned by counting events, not by the clock.

``benchmarks/test_obs_overhead.py`` times what tracing costs a replay.  The
property behind that budget is exact and is pinned here: an untraced replay
makes no tracer call at all, and a traced one records exactly eight lifecycle
spans per job plus one ``admit`` span per session.
"""

from __future__ import annotations

import pytest

import repro.obs as obs_api
from repro.cloud.shard import replay_sharded
from repro.obs import JOB_STAGES
from repro.sim.cloud import CloudSimulator
from repro.sim.traces import generate_trace

NUM_JOBS = 1500


class TripwireTracer:
    """A disabled tracer whose every recording method raises."""

    enabled = False

    def _trip(self, *args, **kwargs):
        raise AssertionError("an untraced replay called the tracer")

    now = span = record_span = mark = security = _trip

    @property
    def events(self):
        raise AssertionError("an untraced replay touched tracer.events")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(NUM_JOBS, seed=5)


def _sessions(trace) -> int:
    return len({event.session for event in trace})


def test_untraced_replays_never_call_the_tracer(trace, monkeypatch):
    tripwire = obs_api.Observability(tracer=TripwireTracer())
    stats = CloudSimulator(num_boards=4, obs=tripwire).replay_stats(trace)
    assert stats.jobs == NUM_JOBS
    # replay_sharded builds its simulators on the process-wide handle.
    monkeypatch.setattr(obs_api, "_current", tripwire)
    assert replay_sharded(trace, num_shards=4, boards_per_shard=2).jobs == NUM_JOBS


def test_traced_replay_records_eight_events_per_job_and_one_per_session(trace):
    # Per job: one span per JOB_STAGES stage plus the "job" envelope; per
    # session: one admit span.
    assert len(JOB_STAGES) == 7
    expected = 8 * NUM_JOBS + _sessions(trace)

    live = obs_api.Observability(tracer=obs_api.Tracer())
    CloudSimulator(num_boards=4, obs=live).replay_stats(trace)
    assert len(live.tracer.events) == expected

    with obs_api.scoped(metrics=False) as handle:
        replay_sharded(trace, num_shards=4, boards_per_shard=2)
    assert len(handle.tracer.events) == expected
