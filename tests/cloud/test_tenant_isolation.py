"""Cross-tenant isolation on a shared ShieldCloudService.

Two tenants run on one service (sharing its board fleet).  The properties
under test are the cloud layer's whole reason to exist:

* the untrusted host ledger only ever sees ciphertext (never a fragment of
  either tenant's plaintext),
* sealed output downloaded for one tenant cannot be unsealed with the other
  tenant's key ring, and
* per-tenant Shield statistics are accounted to the session that caused the
  traffic, never to a neighbour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import MatMulAccelerator, VectorAddAccelerator
from repro.attestation.data_owner import DataOwner
from repro.cloud import ShieldCloudService
from repro.errors import CloudError, IntegrityError, TenantIsolationError


@pytest.fixture()
def service():
    return ShieldCloudService(num_boards=1)


def _run_two_tenants(service):
    alice_accel = VectorAddAccelerator(8 * 1024)
    bob_accel = MatMulAccelerator(32)
    alice = service.admit_tenant("alice", alice_accel)
    bob = service.admit_tenant("bob", bob_accel)
    alice_inputs = alice_accel.prepare_inputs(seed=21)
    bob_inputs = bob_accel.prepare_inputs(seed=22)
    alice_job = service.submit_job(
        alice.session_id, inputs=alice_inputs, output_regions={"c0": None}
    )
    bob_job = service.submit_job(
        bob.session_id, inputs=bob_inputs, output_regions={"c": None}
    )
    service.run_until_idle()
    return {
        "alice": (alice, alice_inputs, alice_job),
        "bob": (bob, bob_inputs, bob_job),
    }


def test_host_ledger_sees_only_ciphertext(service):
    world = _run_two_tenants(service)
    assert service.host_observations(), "the host must have moved data"
    for _, inputs, job in world.values():
        assert job.state.name == "COMPLETED", job.error
        for plaintext in inputs.values():
            assert service.plaintext_exposures(plaintext) == []
    # Output plaintext must be invisible too.
    alice_output = world["alice"][2].region_outputs["c0"]
    bob_output = world["bob"][2].region_outputs["c"]
    assert alice_output and bob_output
    assert service.plaintext_exposures(alice_output) == []
    assert service.plaintext_exposures(bob_output) == []


def test_outputs_are_correct_per_tenant(service):
    world = _run_two_tenants(service)
    _, alice_inputs, alice_job = world["alice"]
    expected = (
        np.frombuffer(alice_inputs["a0"], dtype=np.int32)
        + np.frombuffer(alice_inputs["b0"], dtype=np.int32)
    ).astype(np.int32)
    assert np.array_equal(alice_job.result.outputs["c0"], expected)
    downloaded = np.frombuffer(alice_job.region_outputs["c0"], dtype=np.int32)
    assert np.array_equal(downloaded, expected)


def test_wrong_key_unsealing_fails(service):
    """Bob's key ring (or a fresh outsider's) cannot unseal Alice's outputs."""
    world = _run_two_tenants(service)
    alice, _, _ = world["alice"]
    bob, _, _ = world["bob"]
    config = alice.shield_config
    # Replay the download from raw DRAM (what a curious CSP could do).
    board = service.slots["board-0"].board
    region = config.region("c0")
    ciphertext = board.device_memory.tamper_read(region.base_address, region.size_bytes)
    tags = [
        board.device_memory.tamper_read(config.tag_address(region, i), 16)
        for i in range(region.num_chunks)
    ]
    sealed = DataOwner.sealed_chunks_from_device(config, "c0", ciphertext, tags)

    # The rightful owner succeeds...
    assert alice.data_owner.unseal_output(
        config, "c0", sealed, shield_id=config.shield_id
    )
    # ...an impostor with a different Data Encryption Key fails the MAC check.
    impostor = DataOwner(name="bob-as-impostor", seed=4242)
    impostor.generate_data_key(config.shield_id)
    with pytest.raises(IntegrityError):
        impostor.unseal_output(config, "c0", sealed, shield_id=config.shield_id)
    # Bob's own key ring does not even hold a key for Alice's Shield.
    with pytest.raises(Exception):
        bob.data_owner.unseal_output(config, "c0", sealed, shield_id=config.shield_id)


def test_per_tenant_stats_do_not_bleed(service):
    world = _run_two_tenants(service)
    alice, _, _ = world["alice"]
    bob, _, _ = world["bob"]
    # Both tenants ran on the same single board, yet accounting is disjoint.
    assert alice.boards_used == ["board-0"]
    assert bob.boards_used == ["board-0"]
    assert alice.usage.jobs_completed == 1
    assert bob.usage.jobs_completed == 1
    # vector_add streams 8 KiB in and writes 8 KiB; matmul-32 moves 3 x 4 KiB.
    assert alice.usage.accel_bytes_read == 2 * 8 * 1024
    assert bob.usage.accel_bytes_read == 2 * MatMulAccelerator(32).matrix_bytes
    assert alice.usage.integrity_failures == 0
    assert bob.usage.integrity_failures == 0
    # A session that never ran has an untouched ledger.
    idle = service.admit_tenant("mallory", VectorAddAccelerator(8 * 1024))
    assert idle.usage.accel_bytes_read == 0
    assert idle.usage.jobs_completed == 0
    assert idle.job_stats == []


def test_job_results_are_tenant_gated(service):
    world = _run_two_tenants(service)
    _, _, alice_job = world["alice"]
    assert service.job_result(alice_job.job_id, tenant="alice") is alice_job
    with pytest.raises(TenantIsolationError):
        service.job_result(alice_job.job_id, tenant="bob")
    with pytest.raises(CloudError):
        service.job_result("job-9999", tenant="alice")


def test_leak_audit_detects_actual_plaintext_dma(service):
    """Negative control: the audit is not vacuous.

    If a (buggy or malicious) host DMA'd raw plaintext through the Shell, the
    service's per-board DMA tap would record it and ``plaintext_exposures``
    must flag it -- including a leak that starts mid-buffer, which the
    probe-stride guarantee (any contiguous run >= 2*window-1 bytes) covers.
    """
    world = _run_two_tenants(service)
    _, alice_inputs, _ = world["alice"]
    plaintext = alice_inputs["a0"]
    assert service.plaintext_exposures(plaintext) == []
    board = service.slots["board-0"].board
    # Leak an unaligned 96-byte fragment from the middle of the input.
    fragment = plaintext[133 : 133 + 96]
    board.shell.host_dma_write(0x70_0000, b"\xee" * 11 + fragment)
    exposures = service.plaintext_exposures(plaintext)
    assert len(exposures) == 1
    assert exposures[0].entry[0] == "dma-write"
    assert exposures[0].board_name == "board-0"


def test_dma_ledger_attributes_transfers_to_sessions(service):
    world = _run_two_tenants(service)
    sessions_seen = {
        obs.session_id
        for obs in service.host_observations()
        if obs.entry[0].startswith("dma-")
    }
    alice, _, _ = world["alice"]
    bob, _, _ = world["bob"]
    assert sessions_seen == {alice.session_id, bob.session_id}


def test_no_keystream_reuse_across_jobs_in_one_session(service):
    """Two jobs in one session must not reuse (key, IV) pairs.

    Region sub-keys and chunk IVs restart at every Shield load, so the
    service rotates the session's Data Encryption Key per job.  Without
    rotation, XOR of the two DMA-observed ciphertexts for the same region
    would equal XOR of the two plaintexts -- a full confidentiality break
    for the untrusted host.
    """
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("repeat", accel)
    inputs_1 = accel.prepare_inputs(seed=31)
    inputs_2 = accel.prepare_inputs(seed=32)
    base = accel.build_shield_config().region("a0").base_address

    ciphertexts = []
    for inputs in (inputs_1, inputs_2):
        service.submit_job(session.session_id, inputs=inputs)
        service.run_until_idle()
        board = service.slots["board-0"].board
        ciphertexts.append(
            board.device_memory.tamper_read(base, len(inputs["a0"]))
        )

    xor_ct = bytes(a ^ b for a, b in zip(*ciphertexts))
    xor_pt = bytes(a ^ b for a, b in zip(inputs_1["a0"], inputs_2["a0"]))
    assert xor_ct != xor_pt, "CTR keystream reused across jobs"
    # The per-job Load Keys the host observed must differ too.
    load_keys = [
        obs.entry[1]
        for obs in service.host_observations()
        if obs.session_id == session.session_id and obs.entry[0] == "load_key"
    ]
    assert len(load_keys) == 2 and load_keys[0] != load_keys[1]


def test_failed_download_leaves_no_result(service):
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("dl-fail", accel)
    job = service.submit_job(
        session.session_id,
        inputs=accel.prepare_inputs(seed=41),
        output_regions={"no-such-region": None},
    )
    service.run_until_idle()
    assert job.state.name == "FAILED"
    assert job.result is None
    assert session.usage.jobs_failed == 1


def test_close_session_is_idempotent(service):
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("twice", accel)
    service.close_session(session.session_id)
    assert service.close_session(session.session_id) == []
    assert service.stats.sessions_closed == 1


def test_ledger_limit_bounds_host_observations():
    service = ShieldCloudService(num_boards=1, ledger_limit=5)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("bounded", accel)
    service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=51))
    service.run_until_idle()
    assert len(service.host_observations()) == 5


def test_audit_tap_survives_attacker_tap():
    """A snooping Shell tap installed later must not sever the audit trail."""
    service = ShieldCloudService(num_boards=1)
    board = service.slots["board-0"].board
    snooped = []
    board.shell.install_dma_tap(lambda kind, addr, data: snooped.append(kind))
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("audited", accel)
    service.submit_job(session.session_id, inputs=accel.prepare_inputs(seed=61))
    service.run_until_idle()
    dma_entries = [
        obs for obs in service.host_observations() if obs.entry[0].startswith("dma-")
    ]
    assert snooped, "the attacker tap observed traffic"
    assert len(dma_entries) == len(snooped), "both taps saw every transfer"


def test_sessions_use_distinct_data_keys(service):
    world = _run_two_tenants(service)
    alice, _, _ = world["alice"]
    bob, _, _ = world["bob"]
    alice_key = alice.data_owner.data_key(alice.shield_id).material
    bob_key = bob.data_owner.data_key(bob.shield_id).material
    assert alice_key != bob_key
    assert alice.shield_id != bob.shield_id


def test_ledger_keeps_the_dma_bytes_in_fewer_transfers():
    """Tags move as one block per region, so the ledger holds fewer entries
    but exactly the bytes it held when each 16-byte tag was its own
    transfer (totals recorded then: 40 writes, 5 reads)."""
    service = ShieldCloudService(num_boards=1)
    accel = VectorAddAccelerator(8 * 1024)
    session = service.admit_tenant("fixed", accel)
    job = service.submit_job(
        session.session_id, inputs=accel.prepare_inputs(seed=51), output_regions={"c0": None}
    )
    service.run_until_idle()
    assert job.state.name == "COMPLETED", job.error
    moved: dict = {}
    for obs in service.host_observations():
        kind = obs.entry[0]
        if kind.startswith("dma-"):
            count, total = moved.get(kind, (0, 0))
            moved[kind] = (count + 1, total + len(obs.entry[2]))
    # Eight 4-chunk input regions (ciphertext + tag block each) and one
    # downloaded output region.
    assert moved == {"dma-write": (16, 16896), "dma-read": (2, 2112)}
