"""The serving layer on the trace stream: lifecycle spans, security events,
registry-derived stats, and functional-vs-simulated conformance.

The conformance half is the observability layer's anchor test: a functional
:class:`~repro.cloud.service.ShieldCloudService` run and a
:class:`~repro.sim.cloud.CloudSimulator` replay of the same workload shape
must emit the *same* lifecycle signature -- stage names, per-job order,
tenant attribution, and warm/cold flags -- even though one stream carries
wall-clock timestamps and the other modelled ones.
"""

from __future__ import annotations

import pytest

import repro.obs as obs_api
from repro.accelerators import VectorAddAccelerator
from repro.cloud import JobState, ShieldCloudService
from repro.host.runtime import ShefHostRuntime
from repro.obs import JOB_STAGES, lifecycle_signature
from repro.sim.cloud import CloudSimulator, TraceEvent

ACCEL_BYTES = 8 * 1024


@pytest.fixture
def obs():
    with obs_api.scoped() as handle:
        yield handle


def _service(**kwargs):
    kwargs.setdefault("num_boards", 1)
    return ShieldCloudService(**kwargs)


def _run_jobs(service, session, accel, count, seed0=0):
    jobs = [
        service.submit_job(
            session.session_id,
            inputs=accel.prepare_inputs(seed=seed0 + i),
            output_regions={"c0": None},
        )
        for i in range(count)
    ]
    service.run_until_idle()
    return jobs


# ---------------------------------------------------------------------------
# Lifecycle coverage on the functional service
# ---------------------------------------------------------------------------


def test_every_lifecycle_stage_appears_per_job(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    _run_jobs(service, session, accel, 2)

    # Admission is per session, the job stages once per job, in order.
    assert len(obs.tracer.spans("admit")) == 1
    for stage in JOB_STAGES:
        assert len(obs.tracer.spans(stage)) == 2, f"missing spans for {stage}"
    assert len(obs.tracer.spans("job")) == 2

    # Per-job ordering: each job's stages appear in lifecycle order.
    for job_id in ("job-0001", "job-0002"):
        names = [
            e.name
            for e in obs.tracer.spans()
            if e.job == job_id and e.name in JOB_STAGES
        ]
        assert names == list(JOB_STAGES)


def test_spans_carry_identity_axes_and_warm_flags(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    _run_jobs(service, session, accel, 2)

    loads = obs.tracer.spans("shield_load")
    assert [e.attrs["warm"] for e in loads] == [False, True]
    jobs = obs.tracer.spans("job")
    assert all(e.attrs["completed"] for e in jobs)
    for event in loads + jobs:
        assert event.tenant == "alice"
        assert event.session == session.session_id
        assert event.board == "board-0"
        assert event.job is not None

    seal = obs.tracer.spans("input_seal")[0]
    assert seal.attrs["bytes"] == 2 * ACCEL_BYTES  # vector add stages a and b
    download = obs.tracer.spans("download")[0]
    region = service.sessions[session.session_id].shield_config.region("c0")
    assert download.attrs["bytes"] == region.size_bytes


def test_stage_histograms_record_real_durations_without_tracing():
    # Tracing off, metrics off process-wide: the service still times stages
    # on its private registry (stats/fleet_summary need it), with real
    # wall-clock durations -- the null tracer's frozen clock must not leak in.
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    _run_jobs(service, session, accel, 1)
    for stage in ("shield_load", "input_seal", "execute"):
        summary = service.metrics.histogram("cloud.stage_seconds", stage=stage).summary()
        assert summary["count"] == 1
        assert summary["max"] > 0.0, f"{stage} duration was not measured"


def test_queue_depth_gauge_tracks_submissions(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    depth = service.metrics.gauge("cloud.queue_depth")
    inputs = accel.prepare_inputs(seed=0)
    service.submit_job(session.session_id, inputs=inputs)
    service.submit_job(session.session_id, inputs=inputs)
    assert depth.value == 2.0
    service.run_next_job()
    assert depth.value == 1.0
    service.run_until_idle()
    assert depth.value == 0.0
    assert service.metrics.gauge("cloud.busy_boards").value == 0.0


# ---------------------------------------------------------------------------
# Security events (satellite: the audit surfaces ride the same stream)
# ---------------------------------------------------------------------------


def test_host_observations_surface_as_dma_tap_security_events(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    _run_jobs(service, session, accel, 1)

    taps = obs.tracer.security_events("dma_tap")
    # Every tap-observed transfer has a matching security event; the ledger
    # additionally carries the runtime's own blob log, so it is a superset.
    assert len(taps) > 0
    assert len(service.host_observations()) >= len(taps)
    directions = {e.attrs["direction"] for e in taps}
    assert directions == {"write", "read"}
    for tap in taps:
        assert tap.tenant == "alice"
        assert tap.session == session.session_id
        assert tap.board == "board-0"
        assert tap.attrs["bytes"] > 0


def test_plaintext_exposures_audit_emits_security_events(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    inputs = accel.prepare_inputs(seed=0)
    _run_jobs(service, session, accel, 1)

    # The healthy service leaks nothing: the audit passes and stays silent.
    assert service.plaintext_exposures(inputs["a0"]) == []
    assert obs.tracer.security_events("plaintext_exposure") == []

    # A plaintext the host *did* see (simulate a leaky DMA entry) is found
    # and lands on the security stream, attributed to the owning tenant.
    from repro.cloud.service import HostObservation

    service._host_ledger.append(
        HostObservation(
            session_id=session.session_id,
            board_name="board-0",
            entry=("dma-write", 0, inputs["a0"][:64]),
        )
    )
    hits = service.plaintext_exposures(inputs["a0"])
    assert len(hits) == 1
    [event] = obs.tracer.security_events("plaintext_exposure")
    assert event.tenant == "alice"
    assert event.session == session.session_id
    assert event.board == "board-0"


def test_evictions_and_session_close_emit_security_events(obs):
    service = _service(num_boards=1)
    accel_a = VectorAddAccelerator(ACCEL_BYTES)
    accel_b = VectorAddAccelerator(ACCEL_BYTES)
    alice = service.admit_tenant("alice", accel_a)
    bob = service.admit_tenant("bob", accel_b)
    _run_jobs(service, alice, accel_a, 1)
    # Bob landing on the single board evicts Alice's warm Shield.
    _run_jobs(service, bob, accel_b, 1, seed0=5)
    evictions = obs.tracer.security_events("eviction")
    assert len(evictions) == 1
    assert evictions[0].tenant == "alice"
    assert evictions[0].board == "board-0"
    # Closing Bob's session evicts his resident Shield too.
    service.close_session(bob.session_id)
    assert len(obs.tracer.security_events("eviction")) == 2


def test_mac_failure_and_attack_detection_on_tampered_download(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("mallory", accel)
    job = service.submit_job(
        session.session_id,
        inputs=accel.prepare_inputs(seed=1),
        output_regions={"c0": None},
    )

    # Corrupt the output ciphertext between execute and download: the
    # tenant-side unseal must reject it, and the failure must surface as
    # security events (the sealer's mac_failure plus the service's
    # attack_detected) -- not just an exception.
    board = service.slots["board-0"].board
    original = board.shell.host_dma_read

    def tampering_read(address: int, length: int) -> bytes:
        data = original(address, length)
        return bytes([data[0] ^ 0xFF]) + data[1:] if length > 64 else data

    board.shell.host_dma_read = tampering_read
    try:
        service.run_until_idle()
    finally:
        board.shell.host_dma_read = original

    assert job.result is None  # the job failed
    attacks = obs.tracer.security_events("attack_detected")
    assert len(attacks) == 1
    assert attacks[0].tenant == "mallory"
    failures = obs.tracer.security_events("mac_failure")
    assert len(failures) >= 1
    assert failures[0].attrs["chunks"]
    job_span = obs.tracer.spans("job")[-1]
    assert job_span.attrs["completed"] is False


def test_truncated_download_is_an_attack_not_a_crash(obs):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("mallory", accel)
    job = service.submit_job(
        session.session_id,
        inputs=accel.prepare_inputs(seed=1),
        output_regions={"c0": None},
    )

    # A host that drops the last 100 bytes of the output region hands the
    # tenant a ragged batch (a short last chunk).  The unseal must reject it
    # as tampering, with the same security events as a flipped bit.
    board = service.slots["board-0"].board
    original = board.shell.host_dma_read

    def truncating_read(address: int, length: int) -> bytes:
        data = original(address, length)
        return data[:-100] if length > 64 else data

    board.shell.host_dma_read = truncating_read
    try:
        service.run_until_idle()
    finally:
        board.shell.host_dma_read = original

    assert job.state is JobState.FAILED
    assert job.error == "HMAC tag mismatch"
    attacks = obs.tracer.security_events("attack_detected")
    assert [event.tenant for event in attacks] == ["mallory"]
    failures = obs.tracer.security_events("mac_failure")
    assert len(failures) == 1
    assert failures[0].attrs["region"] == "c0"


def test_dropped_download_chunks_are_an_attack(obs, monkeypatch):
    service = _service()
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("mallory", accel)
    job = service.submit_job(
        session.session_id,
        inputs=accel.prepare_inputs(seed=1),
        output_regions={"c0": None},
    )

    # A host that drops the last whole chunk of the output region *and* its
    # tag: every chunk it does return verifies, so only the count is wrong.
    original = ShefHostRuntime.download_region

    def dropping_download(runtime, region_name, num_chunks, offset_chunks=0):
        ciphertext, tags = original(runtime, region_name, num_chunks, offset_chunks)
        chunk_size = runtime.shield_config.region(region_name).chunk_size
        return ciphertext[:-chunk_size], tags[:-1]

    monkeypatch.setattr(ShefHostRuntime, "download_region", dropping_download)
    service.run_until_idle()

    assert job.state is JobState.FAILED
    assert job.result is None
    assert "tags" in job.error
    attacks = obs.tracer.security_events("attack_detected")
    assert [event.tenant for event in attacks] == ["mallory"]


# ---------------------------------------------------------------------------
# Stats / fleet_summary are registry views
# ---------------------------------------------------------------------------


def test_stats_and_fleet_summary_derive_from_the_registry(obs):
    service = _service(num_boards=2)
    accel = VectorAddAccelerator(ACCEL_BYTES)
    session = service.admit_tenant("alice", accel)
    _run_jobs(service, session, accel, 3)

    assert service.stats.jobs_completed == 3
    assert service.stats.jobs_completed == int(
        service.metrics.counter_total("cloud.jobs_completed")
    )
    summary = service.fleet_summary()
    assert summary["jobs_completed"] == 3
    per_board_loads = service.metrics.counters_by_label("cloud.shield_loads", "board")
    for name, board in summary["boards"].items():
        assert board["shield_loads"] == int(per_board_loads.get(name, 0))


# ---------------------------------------------------------------------------
# Functional vs simulated conformance
# ---------------------------------------------------------------------------


def _conformance_signatures():
    """Run the same two-tenant workload functionally and simulated.

    One board serializes execution, so placement order equals stream order
    in both worlds; FIFO makes that order the submission order.  Pattern:
    alice, alice, bob, bob -- the second job of each tenant is a warm hit,
    and bob's first job evicts alice's Shield.
    """
    accel = VectorAddAccelerator(ACCEL_BYTES)
    order = ["alice", "alice", "bob", "bob"]

    with obs_api.scoped() as functional_obs:
        service = ShieldCloudService(num_boards=1, policy="fifo")
        sessions = {
            tenant: service.admit_tenant(tenant, VectorAddAccelerator(ACCEL_BYTES))
            for tenant in ("alice", "bob")
        }
        for i, tenant in enumerate(order):
            service.submit_job(
                sessions[tenant].session_id,
                inputs=accel.prepare_inputs(seed=i),
            )
        service.run_until_idle()
        functional = lifecycle_signature(functional_obs.tracer.events)

    profile = accel.profile()
    config = accel.build_shield_config()
    trace = [
        TraceEvent(
            arrival_s=float(i), tenant=tenant, profile=profile, shield_config=config
        )
        for i, tenant in enumerate(order)
    ]
    with obs_api.scoped() as sim_obs:
        CloudSimulator(num_boards=1, policy="fifo").replay(trace)
        simulated = lifecycle_signature(sim_obs.tracer.events)
    return functional, simulated


def test_functional_and_simulated_traces_have_matching_signatures():
    functional, simulated = _conformance_signatures()
    assert len(functional) == 4 * len(JOB_STAGES)
    assert functional == simulated
    # Spot-check the semantics the signature is supposed to carry: warm
    # flags on the shield_load stages follow the eviction pattern.
    warm_flags = [w for name, _, w in functional if name == "shield_load"]
    assert warm_flags == [False, True, False, True]
    tenants = [t for name, t, _ in functional if name == "queue"]
    assert tenants == ["alice", "alice", "bob", "bob"]
