"""Shard-scale serving: consistent-hash session routing over N board fleets.

One :class:`~repro.cloud.service.ShieldCloudService` (and its timed twin,
:class:`~repro.sim.cloud.CloudSimulator`) models one fixed fleet of boards.
This module splits a trace across several such fleets:

* :class:`ShardRouter` -- a consistent-hash ring with virtual nodes that maps
  every session id to one shard, so warm-Shield affinity remains a
  shard-local property (a session's warm boards are always inside the shard
  that serves it).  Virtual nodes keep the key space balanced (the property
  tests pin the balance down).
* :func:`partition_trace` -- route each session of a columnar
  :class:`~repro.sim.cloud.Trace`'s table once, then split the rows by
  index into one ``Trace`` per shard (rows keep their relative order).
* :func:`replay_sharded` -- the multi-fleet replay driver: partition a trace
  by routed session, replay every shard in turn on its own fixed-size
  :class:`~repro.sim.cloud.CloudSimulator`, and merge the per-shard
  :class:`~repro.sim.cloud.ReplayStats` into a single
  :class:`ShardReplayReport` with *global* tail percentiles.  The report
  holds modelled numbers only, so replaying one trace twice gives equal
  reports; callers that want the host cost time the call themselves.

Shards are listed in natural order (``2`` before ``10``), by
:class:`ShardRouter` and by the report alike.

The driver is how the scheduling core gets validated at 10^5-10^6-job scale
where the functional byte-moving service is too expensive to run; see
``docs/sharding.md`` and ``benchmarks/test_shard_scale.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.analysis.annotations import loop_owned
from repro.errors import ShardingError
from repro.obs.stats import sorted_percentile
from repro.sim.results import ExperimentResult

__all__ = [
    "DEFAULT_VNODES",
    "ShardReplayReport",
    "ShardRouter",
    "partition_trace",
    "replay_sharded",
]

#: Default virtual nodes per shard.  128 points per shard keeps the expected
#: per-shard key share within a few percent of 1/N (see the balance property
#: test) while the ring stays small enough that building it is trivial.
DEFAULT_VNODES = 128


def _ring_hash(token: str) -> int:
    """Position of ``token`` on the ring: a 64-bit blake2b digest.

    blake2b is stdlib, keyless here (placement is not a security boundary --
    tenant isolation lives in the crypto layer), stable across processes and
    Python versions (unlike ``hash()``, which is salted per process), and
    uniform enough that virtual nodes balance the key space.
    """
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _natural_order(shard_id) -> tuple:
    """Sort key listing shard ids naturally: ``2`` before ``10``, for ints and
    for names with numbers in them alike (``shard-2`` before ``shard-10``).
    The plain string breaks ties such as ``01`` and ``1``."""
    text = str(shard_id)
    parts = re.split(r"(\d+)", text)
    return [int(part) if index % 2 else part for index, part in enumerate(parts)], text


@lru_cache(maxsize=16)
def _vnode_ring(tokens: tuple) -> tuple:
    """The ring of the shards named ``tokens`` (``str`` of each id, in the
    router's order): sorted vnode positions and, in a parallel tuple, the
    index in ``tokens`` of the shard owning each.

    Memoised per shard set, so a fresh router per replay reuses the ring
    instead of hashing ``DEFAULT_VNODES`` points per shard again.  Tuples,
    because every router of the set shares them.
    """
    ring = sorted(
        (_ring_hash(f"{token}#{i}"), index)
        for index, token in enumerate(tokens)
        for i in range(DEFAULT_VNODES)
    )
    return tuple(position for position, _ in ring), tuple(index for _, index in ring)


class ShardRouter:
    """Consistent-hash ring with virtual nodes over a fixed set of shards.

    Every shard contributes :data:`DEFAULT_VNODES` points, and a session
    belongs to the first point clockwise from its own hash, so all of a
    session's jobs land on one shard and warm-Shield affinity stays a
    shard-local property.  The ring is built once per shard set and shared
    by every router over that set.  ``route(session)`` is the serving-path
    entry point; each router memoises each session's shard, so repeated
    lookups of a hot session skip the hash and the binary search.
    """

    def __init__(self, shard_ids):
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise ShardingError("a shard router needs at least one shard")
        self._shards = sorted(set(shard_ids), key=_natural_order)
        #: Sorted vnode positions and the index of the shard owning each.
        self._ring_keys, self._ring_owners = _vnode_ring(
            tuple(str(shard_id) for shard_id in self._shards)
        )
        #: session id -> shard, filled in as sessions are first routed.
        self._assignments: dict = {}

    @loop_owned
    def route(self, session_id: str):
        """The shard owning ``session_id`` (memoised ring walk)."""
        shard = self._assignments.get(session_id)
        if shard is None:
            index = bisect.bisect_right(self._ring_keys, _ring_hash(session_id))
            shard = self._shards[self._ring_owners[index % len(self._ring_keys)]]
            self._assignments[session_id] = shard
        return shard

    @property
    def shards(self) -> list:
        """Every shard on the ring, in natural order."""
        return list(self._shards)


# -- multi-shard replay driver --------------------------------------------------


def partition_trace(trace, router: ShardRouter) -> dict:
    """Split a :class:`~repro.sim.cloud.Trace` into one ``Trace`` per shard.

    Each session of the trace's session table is routed once, not once per
    job, and each shard takes its rows by index, so rows keep their relative
    order inside a shard (arrival order is re-derived by the simulator
    anyway) and every job of a session lands on the same shard.
    """
    shards = router.shards
    position = {shard: index for index, shard in enumerate(shards)}
    route = router.route
    session_shard = np.array(
        [position[route(session)] for session in trace.sessions], dtype=np.intp
    )
    job_shard = session_shard[trace.session]
    return {
        shard: trace[np.flatnonzero(job_shard == index)]
        for index, shard in enumerate(shards)
    }


def _round_wait(seconds):
    """A wait percentile as a table cell: blank when there were no jobs."""
    return "" if seconds is None else round(seconds, 3)


@dataclass
class ShardReplayReport:
    """Merged outcome of a multi-shard replay.

    Per-shard :class:`~repro.sim.cloud.ReplayStats` plus the global view:
    tail percentiles are computed over the *concatenated* per-job waits (a
    per-shard percentile average would understate the global tail), merged
    and sorted once, on the first percentile asked for.  Every field is
    modelled, so two replays of one trace compare equal.
    """

    shard_stats: dict
    shard_jobs: dict
    boards_per_shard: int
    policy: str

    @property
    def shards(self) -> list:
        return sorted(self.shard_stats, key=_natural_order)

    @property
    def jobs(self) -> int:
        return sum(stats.jobs for stats in self.shard_stats.values())

    @property
    def warm_hits(self) -> int:
        return sum(stats.warm_hits for stats in self.shard_stats.values())

    @property
    def affinity_hit_rate(self) -> float:
        jobs = self.jobs
        return self.warm_hits / jobs if jobs else 0.0

    @property
    def makespan_s(self) -> float:
        """Modelled makespan: the shard fleets run side by side, so the max."""
        if not self.shard_stats:
            return 0.0
        return max(stats.makespan_s for stats in self.shard_stats.values())

    @cached_property
    def _sorted_waits(self) -> list:
        merged: list = []
        for stats in self.shard_stats.values():
            merged.extend(stats.waits)
        merged.sort()
        return merged

    def wait_percentile(self, q: float) -> float | None:
        """Global wait percentile over every shard's per-job waits; ``None`` without jobs."""
        return sorted_percentile(self._sorted_waits, q)

    @property
    def utilization_by_shard(self) -> dict:
        return {
            shard: stats.utilization for shard, stats in self.shard_stats.items()
        }

    def to_experiment(self, experiment_id: str = "shard-replay") -> ExperimentResult:
        """Package the merged replay as a renderable/exportable experiment."""
        result = ExperimentResult(
            experiment_id=experiment_id,
            description=(
                f"{self.jobs} jobs across {len(self.shard_stats)} shards x "
                f"{self.boards_per_shard} boards ({self.policy} policy)"
            ),
            metadata={
                "shards": len(self.shard_stats),
                "boards_per_shard": self.boards_per_shard,
                "policy": self.policy,
                "jobs": self.jobs,
                "makespan_s": round(self.makespan_s, 3),
                "wait_p50_s": _round_wait(self.wait_percentile(50.0)),
                "wait_p99_s": _round_wait(self.wait_percentile(99.0)),
                "wait_p999_s": _round_wait(self.wait_percentile(99.9)),
                "affinity_hit_rate": round(self.affinity_hit_rate, 4),
            },
        )
        for shard in self.shards:
            stats = self.shard_stats[shard]
            result.add_row(
                shard=shard,
                jobs=stats.jobs,
                makespan_s=round(stats.makespan_s, 3),
                utilization=round(stats.utilization, 4),
                affinity_hit_rate=round(stats.affinity_hit_rate, 4),
                warm_hits=stats.warm_hits,
                wait_p99_s=_round_wait(stats.wait_percentile(99.0)),
            )
        return result


def replay_sharded(
    trace,
    num_shards: int = 8,
    boards_per_shard: int = 4,
    policy="fifo",
    affinity: bool = True,
) -> ShardReplayReport:
    """Replay a :class:`~repro.sim.cloud.Trace` across N shard fleets, one
    shard after another.

    Sessions are routed by a fresh :class:`ShardRouter` over shards
    ``0..num_shards-1``, and every shard replays on its own
    :class:`~repro.sim.cloud.CloudSimulator` on the caller's thread (the
    replay is pure Python, so the GIL serialises a thread pool, and a
    process pool measured no faster; see ``docs/sharding.md``).  Every
    shard runs a fixed fleet of ``boards_per_shard`` boards.
    """
    # Imported here: repro.sim.cloud imports repro.cloud.policies, whose
    # package imports this module.
    from repro.sim.cloud import CloudSimulator

    shard_traces = partition_trace(trace, ShardRouter(range(num_shards)))
    shard_stats: dict = {}
    for shard, shard_trace in shard_traces.items():
        simulator = CloudSimulator(
            num_boards=boards_per_shard, policy=policy, affinity=affinity
        )
        shard_stats[shard] = simulator.replay_stats(shard_trace)
    return ShardReplayReport(
        shard_stats=shard_stats,
        shard_jobs={shard: len(rows) for shard, rows in shard_traces.items()},
        boards_per_shard=boards_per_shard,
        policy=str(policy),
    )
