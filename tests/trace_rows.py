"""Per-job rows of a replay trace, for tests that compare or pin traces.

A generated trace is columnar (:class:`repro.sim.cloud.Trace`) and a
hand-written one is a :class:`repro.sim.cloud.TraceEvent` list; both reduce
to the same rows, so a test can compare the two forms or pin a digest of the
rows that any trace producing the same jobs reproduces.
"""

from __future__ import annotations

import hashlib


def _pool_index(pool, profile, config) -> int:
    """Position of the ``(profile, config)`` pair in ``pool``, by identity."""
    return next(
        index
        for index, (candidate, candidate_config) in enumerate(pool)
        if candidate is profile and candidate_config is config
    )


def job_rows(trace, pool) -> list:
    """``(arrival_s, tenant, session, priority, weight, pool index)`` per job.

    Rows come in trace order.  ``pool`` is the ``(profile, shield_config)``
    list the trace drew its workloads from.
    """
    if isinstance(trace, list):
        return [
            (
                event.arrival_s,
                event.tenant,
                event.session,
                event.priority,
                event.weight,
                _pool_index(pool, event.profile, event.shield_config),
            )
            for event in trace
        ]
    pool_indices = [_pool_index(pool, *pair) for pair in trace.profiles]
    return list(
        zip(
            trace.arrival.tolist(),
            [trace.tenants[index] for index in trace.tenant.tolist()],
            [trace.sessions[index] for index in trace.session.tolist()],
            trace.priority.tolist(),
            trace.weight.tolist(),
            [pool_indices[index] for index in trace.profile.tolist()],
        )
    )


def rows_digest(rows) -> str:
    """A short SHA-256 digest of exact row reprs (floats keep every bit)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:32]
