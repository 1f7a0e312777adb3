"""The benchmark's three workloads, driven through the public API.

Every workload has the same shape:

* ``setup(sizes)`` builds what a user builds once -- a service with its
  tenants admitted, or the replay profile pool -- and is timed as
  ``setup_s``;
* ``warm_up(state, seed)`` runs one untimed job so lazy set-up is done
  before timing starts;
* ``measure(state, seed, seconds, recorder, corrupt)`` runs closed-loop jobs
  until ``seconds`` have passed and returns one :class:`JobRecord` per job.
  Every output is checked right after its job, outside the timed window;
  a miss is recorded on the job, never raised.  ``corrupt`` flips one
  expected output, so a test can see the miss counted;
* ``finish(state, measurement)`` runs the checks that need the whole run.

Inputs come only from the seed: job ``k`` of tenant ``t`` draws its inputs
from ``derive_seed(seed, workload, t, k)``, whatever the timing.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.accelerators import DnnWeaverAccelerator, SdpStorageNodeAccelerator
from repro.cloud import JobState, ShieldCloudService, shard
from repro.obs.stats import percentile
from repro.serve import AsyncShieldFrontend
from repro.sim import traces
from repro.sim.cloud import DEFAULT_SHIELD_LOAD_SECONDS

#: One SDP job puts one user's 8 KiB file and gets it back: the smallest
#: put-then-get of ``SdpStorageNodeAccelerator.run``, so that a run holds
#: enough jobs for steady latency figures.
SDP_JOB_BYTES = 8 * 1024
SDP_JOB = {"users": 1, "files_per_user": 1, "file_bytes": SDP_JOB_BYTES}
#: get() stages the last served file at the start of the TLS region.
TLS_DOWNLOAD = {"tls": SDP_JOB_BYTES}
#: DNNWeaver writes its 10 int32 logits at the start of the feature maps.
LOGITS_DOWNLOAD = {"feature_maps": 40}

REPLAY_SHARDS = 8
REPLAY_BOARDS_PER_SHARD = 8
REPLAY_TENANTS = 100
#: Offered load as a share of the fleet's cold-load capacity.  Every pooled
#: profile models under 1 ms of execution, so a board serves about one cold
#: job per DEFAULT_SHIELD_LOAD_SECONDS; at 0.7 there is no growing backlog,
#: but the Zipf-hot shard still queues (at 0.4 the p99 wait is 0).
REPLAY_RHO = 0.7
REPLAY_RATE = REPLAY_RHO * REPLAY_SHARDS * REPLAY_BOARDS_PER_SHARD / DEFAULT_SHIELD_LOAD_SECONDS


@dataclass(frozen=True)
class Sizes:
    """How big a run is; :data:`SMOKE` shrinks it for the self-test."""

    storage_tenants: int = 4
    #: Jobs a storage tenant may run: its node's storage region holds this
    #: many jobs' files, and the client stops when it is full.
    storage_jobs_per_tenant: int = 128
    #: Simulated jobs in one replay request.
    replay_jobs: int = 20_000
    #: Distinct traces whose pooled waits give the modelled metrics.
    replay_traces: int = 8
    setup_reps: int = 3
    #: Replay set-up (building the profile pool) takes well under 1 ms, so
    #: its median needs more repetitions.
    replay_setup_reps: int = 21


FULL = Sizes()
SMOKE = Sizes(
    storage_tenants=2,
    storage_jobs_per_tenant=8,
    replay_jobs=2_000,
    replay_traces=2,
    setup_reps=1,
    replay_setup_reps=3,
)


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on ``parts``."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 0xFF]) + blob[1:]


@dataclass
class JobRecord:
    """One attempted job: its host window and the first check it failed."""

    start: float
    end: float
    job_id: str
    error: str | None = None
    timed: bool = True

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Measurement:
    records: list
    #: Counter deltas and modelled results over the measured jobs.
    extras: dict = field(default_factory=dict)


def _job_error(job) -> str | None:
    if job.state is not JobState.COMPLETED or job.result is None:
        return f"{job.job_id} ended {job.state.value}: {job.error}"
    return None


class Workload:
    """A workload with nothing to warm up and no whole-run checks."""

    def warm_up(self, state, seed: int) -> list:
        return []

    def finish(self, state, measurement: Measurement) -> None:
        pass


class _ServiceWorkload(Workload):
    """Shared counter bookkeeping of the two functional workloads."""

    def _counters(self, state) -> dict:
        stats = state.service.stats
        shield = {"buffer_hits": 0, "buffer_misses": 0, "chunks_fetched": 0, "chunks_written_back": 0}
        for session in state.service.sessions.values():
            for job_stats in session.job_stats:
                for name in shield:
                    shield[name] += getattr(job_stats, name)
        return {
            "shield_loads": stats.shield_loads,
            "affinity_hits": stats.affinity_hits,
            "evictions": stats.evictions,
            **shield,
        }

    def _delta(self, before: dict, after: dict) -> dict:
        return {name: after[name] - before[name] for name in after}


@dataclass
class StorageState:
    service: ShieldCloudService
    sessions: list
    jobs_run: list
    #: Files stored by checked jobs, audited against the host ledger.
    stored: list = field(default_factory=list)


class StorageWorkload(_ServiceWorkload):
    """The paper's SDP storage node behind the async front-end, 4 tenants
    on 2 boards, each tenant a closed-loop client."""

    name = "storage"

    def setup(self, sizes: Sizes) -> StorageState:
        service = ShieldCloudService(num_boards=2, fast_crypto=True, job_retention=8)
        sessions = []
        for index in range(sizes.storage_tenants):
            node = SdpStorageNodeAccelerator(storage_bytes=sizes.storage_jobs_per_tenant * SDP_JOB_BYTES)
            sessions.append(service.admit_tenant(f"tenant-{index}", node))
        return StorageState(service, sessions, [0] * len(sessions))

    def _check(self, state: StorageState, job, corrupt: bool) -> str | None:
        error = _job_error(job)
        if error:
            return error
        served = job.result.outputs["served"]
        expected = dict(job.result.outputs["expected"])
        if corrupt:
            first = next(iter(expected))
            expected[first] = _flip(expected[first])
        if served != expected:
            return f"{job.job_id}: served files differ from the stored files"
        if job.region_outputs.get("tls") != list(served.values())[-1]:
            return f"{job.job_id}: the downloaded TLS span does not unseal to the last served file"
        state.stored.extend(expected.values())
        return None

    def _run(self, state: StorageState, seed: int, seconds: float, corrupt: bool, timed: bool, tenants) -> list:
        records: list = []
        capacity = state.sessions[0].accelerator.storage_bytes // SDP_JOB_BYTES

        async def client(frontend, index: int, deadline: float) -> None:
            session = state.sessions[index]
            while state.jobs_run[index] < capacity:
                job_seed = derive_seed(seed, self.name, index, state.jobs_run[index])
                state.jobs_run[index] += 1
                start = time.perf_counter()
                job = await frontend.submit(
                    session.session_id, output_regions=TLS_DOWNLOAD, seed=job_seed, **SDP_JOB
                )
                end = time.perf_counter()
                records.append(JobRecord(start, end, job.job_id, timed=timed))
                records[-1].error = self._check(state, job, corrupt and len(records) == 1)
                if end >= deadline:
                    return

        async def main() -> None:
            async with AsyncShieldFrontend(state.service) as frontend:
                deadline = time.perf_counter() + seconds
                await asyncio.gather(*(client(frontend, index, deadline) for index in tenants))

        asyncio.run(main())
        return records

    def warm_up(self, state: StorageState, seed: int) -> list:
        return self._run(state, seed, 0.0, False, timed=False, tenants=[0])

    def measure(self, state: StorageState, seed: int, seconds: float, recorder=None, corrupt=False) -> Measurement:
        """Spans need no envelope here: the traced calls name their job."""
        before = self._counters(state)
        records = self._run(state, seed, seconds, corrupt, True, range(len(state.sessions)))
        return Measurement(records, self._delta(before, self._counters(state)))

    def finish(self, state: StorageState, measurement: Measurement) -> None:
        """Audit the host ledger: no stored file may appear in plaintext."""
        leaked = sum(1 for data in state.stored if state.service.plaintext_exposures(data))
        if leaked:
            measurement.records.append(
                JobRecord(0.0, 0.0, "ledger-audit", f"{leaked} stored file(s) reached the host in plaintext", timed=False)
            )
        state.stored.clear()


@dataclass
class InferenceState:
    service: ShieldCloudService
    session: object
    accelerator: DnnWeaverAccelerator
    jobs_run: int = 0


class InferenceWorkload(_ServiceWorkload):
    """DNNWeaver with PMAC weights on one board, one synchronous client."""

    name = "inference"

    def setup(self, sizes: Sizes) -> InferenceState:
        service = ShieldCloudService(num_boards=1, fast_crypto=True, job_retention=8)
        accelerator = DnnWeaverAccelerator()
        session = service.admit_tenant(
            "hospital", accelerator, shield_config=accelerator.build_shield_config(pmac_weights=True)
        )
        return InferenceState(service, session, accelerator)

    def _one(self, state: InferenceState, seed: int, recorder, corrupt: bool, timed: bool) -> JobRecord:
        inputs = state.accelerator.prepare_inputs(seed=derive_seed(seed, self.name, 0, state.jobs_run))
        state.jobs_run += 1
        service = state.service
        with recorder.root() if recorder is not None else nullcontext() as root:
            start = time.perf_counter()
            job = service.submit_job(state.session.session_id, inputs=inputs, output_regions=LOGITS_DOWNLOAD)
            if root is not None:
                root.job = job.job_id
            service.run_next_job()
            end = time.perf_counter()
        if root is not None:
            start, end = root.start, root.end
        record = JobRecord(start, end, job.job_id, _job_error(job), timed=timed)
        if record.error is None:
            expected = job.result.outputs["logits"].tobytes()
            if corrupt:
                expected = _flip(expected)
            if job.region_outputs.get("feature_maps") != expected:
                record.error = f"{job.job_id}: the unsealed logits differ from the accelerator's"
        return record

    def warm_up(self, state: InferenceState, seed: int) -> list:
        return [self._one(state, seed, None, False, timed=False)]

    def measure(self, state: InferenceState, seed: int, seconds: float, recorder=None, corrupt=False) -> Measurement:
        before = self._counters(state)
        records = []
        deadline = time.perf_counter() + seconds
        while not records or time.perf_counter() < deadline:
            records.append(self._one(state, seed, recorder, corrupt and not records, timed=True))
        return Measurement(records, self._delta(before, self._counters(state)))


@dataclass
class ReplayState:
    pool: list
    sizes: Sizes


class FleetReplayWorkload(Workload):
    """Replay requests: generate a Poisson trace of 100 Zipf tenants, route
    it to 8 shards of 8 boards, replay each shard, merge the tail waits.

    A job here is one replay request, so ``jobs_per_s`` is requests per
    second and ``replay_us_per_job`` is host time per simulated job.  The
    first ``replay_traces`` requests use distinct traces; later ones repeat
    them, and a repeat must reproduce every modelled number exactly.
    """

    name = "fleet-replay"

    def setup(self, sizes: Sizes) -> ReplayState:
        return ReplayState(traces.default_profile_pool(), sizes)

    def _request(self, state: ReplayState, trace_seed: int):
        trace = traces.generate_trace(
            state.sizes.replay_jobs,
            seed=trace_seed,
            arrival="poisson",
            rate_jobs_per_s=REPLAY_RATE,
            num_tenants=REPLAY_TENANTS,
            profile_pool=state.pool,
        )
        report = shard.replay_sharded(trace, num_shards=REPLAY_SHARDS, boards_per_shard=REPLAY_BOARDS_PER_SHARD)
        tails = (report.wait_percentile(99.0), report.wait_percentile(99.9))
        return len(trace), report, tails

    @staticmethod
    def _modelled(report, tails) -> dict:
        """Every modelled number of one replay; all must repeat exactly."""
        return {
            "wait_p99_s": tails[0],
            "wait_p999_s": tails[1],
            "hit_rate": report.affinity_hit_rate,
            "makespan_s": report.makespan_s,
            "max_shard_utilization": max(report.utilization_by_shard.values()),
            "cold_loads": sum(stats.shield_loads for stats in report.shard_stats.values()),
            "max_shard_share": max(report.shard_jobs.values()) * len(report.shard_jobs) / report.jobs,
        }

    def measure(self, state: ReplayState, seed: int, seconds: float, recorder=None, corrupt=False) -> Measurement:
        distinct = state.sizes.replay_traces
        trace_seeds = [derive_seed(seed, self.name, 0, index) for index in range(distinct)]
        records: list = []
        modelled: dict = {}
        pooled: list = []
        deadline = time.perf_counter() + seconds
        while len(records) < distinct or time.perf_counter() < deadline:
            index = len(records)
            if recorder is not None:
                recorder.ambient = str(index)
            with recorder.root(str(index)) if recorder is not None else nullcontext() as root:
                start = time.perf_counter()
                generated, report, tails = self._request(state, trace_seeds[index % distinct])
                end = time.perf_counter()
            if root is not None:
                start, end = root.start, root.end
            record = JobRecord(start, end, str(index))
            expected = generated + 1 if corrupt and index == 0 else generated
            if report.jobs != expected:
                record.error = f"request {index}: replayed {report.jobs} of {expected} generated jobs"
            elif len(report.shard_jobs) != REPLAY_SHARDS or not all(report.shard_jobs.values()):
                record.error = f"request {index}: a shard received no jobs ({report.shard_jobs})"
            summary = self._modelled(report, tails)
            if index < distinct:
                modelled[index] = summary
                for stats in report.shard_stats.values():
                    pooled.extend(stats.waits)
            elif record.error is None and summary != modelled[index % distinct]:
                record.error = f"request {index}: modelled results differ on a repeat of the same trace"
            records.append(record)
        if recorder is not None:
            recorder.ambient = None
        # Every run repeats the first trace at least once, outside the timed
        # loop, so the determinism check never depends on the host's speed.
        _, report, tails = self._request(state, trace_seeds[0])
        if self._modelled(report, tails) != modelled[0]:
            records.append(JobRecord(0.0, 0.0, "repeat", "modelled results differ on a repeat of trace 0", timed=False))
        def mean(name: str) -> float:
            return sum(summary[name] for summary in modelled.values()) / distinct

        extras = {
            "modelled_wait_p99_s": percentile(pooled, 99.0),
            "modelled_wait_p999_s": percentile(pooled, 99.9),
            "modelled_hit_rate": mean("hit_rate"),
            "max_shard_utilization": mean("max_shard_utilization"),
            "cold_loads": mean("cold_loads"),
            "max_shard_share": mean("max_shard_share"),
        }
        return Measurement(records, extras)


WORKLOADS = {w.name: w for w in (StorageWorkload(), InferenceWorkload(), FleetReplayWorkload())}
