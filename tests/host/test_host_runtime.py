"""Host runtime and FPGA driver tests (the untrusted data movers)."""

import pytest

from repro.boot.manufacturer import Manufacturer
from repro.core.config import MAC_TAG_BYTES
from repro.errors import BitstreamError, BootError
from repro.host.driver import FpgaDriver
from repro.host.runtime import ShefHostRuntime
from repro.hw.board import BoardModel, make_board
from tests.conftest import make_small_shield_config


def test_driver_boot_and_describe():
    board = make_board(BoardModel.AWS_F1, serial="driver-board")
    Manufacturer(seed=33).provision_device(board)
    driver = FpgaDriver(board)
    with pytest.raises(BootError):
        _ = driver.security_kernel
    result = driver.reset_and_boot()
    assert driver.state.booted
    driver.load_shell()
    assert driver.state.shell_loaded
    info = driver.describe_image()
    assert info["booted"] and info["shell_loaded"] and not info["accelerator_loaded"]
    assert info["boot_seconds"] == pytest.approx(result.total_seconds)


def test_driver_cannot_load_accelerator_without_key():
    board = make_board(BoardModel.AWS_F1, serial="driver-board-2")
    Manufacturer(seed=34).provision_device(board)
    driver = FpgaDriver(board)
    driver.reset_and_boot()
    driver.load_shell()
    from repro.attestation.ip_vendor import IpVendor

    vendor = IpVendor("driver-vendor", seed=35)
    package = vendor.package_accelerator(
        "thing", {"kind": "thing"}, make_small_shield_config().to_dict()
    )
    driver.stage_accelerator(package.encrypted_bitstream)
    # Without the attested Bitstream Key delivery, loading must fail.
    with pytest.raises(BitstreamError):
        driver.load_accelerator()


def test_runtime_uploads_and_downloads_sealed_regions(provisioned_shield):
    harness = provisioned_shield
    config = harness.shield_config
    runtime = ShefHostRuntime(harness.board.shell, config)

    plaintext = bytes((7 * i) % 256 for i in range(1024))
    staged = harness.data_owner.seal_input(config, "input", plaintext, shield_id=config.shield_id)
    runtime.upload_region(staged)
    assert runtime.log.bytes_uploaded >= len(plaintext)
    # The Shield can read what the host uploaded.
    assert harness.shield.memory_read(0, 1024) == plaintext

    # The accelerator produces output; the host downloads sealed chunks.
    harness.shield.memory_write(4096, plaintext[:512])
    harness.shield.flush()
    ciphertext, tags = runtime.download_region("output", num_chunks=2)
    assert len(ciphertext) == 512 and len(tags) == 2 and all(len(t) == MAC_TAG_BYTES for t in tags)
    chunks = harness.data_owner.sealed_chunks_from_device(config, "output", ciphertext, tags)
    recovered = harness.data_owner.unseal_output_with_versions(
        config, "output", chunks, versions=[1, 1], length=512, shield_id=config.shield_id
    )
    assert recovered == plaintext[:512]


def test_offset_chunk_download_unseals(provisioned_shield):
    """Regression: chunks fetched with ``offset_chunks != 0`` must be rebuilt
    with their true region-relative indices, or MAC verification fails (the
    tag binds the chunk's absolute address and the IV encodes its index)."""
    harness = provisioned_shield
    config = harness.shield_config
    runtime = ShefHostRuntime(harness.board.shell, config)

    plaintext = bytes((3 * i + 1) % 256 for i in range(1024))  # 4 chunks of 256
    harness.shield.memory_write(4096, plaintext)
    harness.shield.flush()

    # Download only chunks 2..3 of the output region.
    ciphertext, tags = runtime.download_region("output", num_chunks=2, offset_chunks=2)
    chunks = harness.data_owner.sealed_chunks_from_device(
        config, "output", ciphertext, tags, offset_chunks=2
    )
    assert [c.chunk_index for c in chunks] == [2, 3]
    recovered = harness.data_owner.unseal_output_with_versions(
        config, "output", chunks, versions=[1, 1], length=512, shield_id=config.shield_id
    )
    assert recovered == plaintext[512:]


def test_runtime_register_command_roundtrip(provisioned_shield):
    harness = provisioned_shield
    runtime = ShefHostRuntime(harness.board.shell, harness.shield_config)
    client = harness.data_owner.register_channel(
        harness.shield_config, shield_id=harness.shield_config.shield_id
    )
    status = runtime.send_register_command(client.seal_write(4, b"\x00\x00\x01\x00"))
    assert runtime.command_accepted(status)
    assert harness.shield.register_file.read_register(4) == b"\x00\x00\x01\x00"

    status = runtime.send_register_command(client.seal_read_request(4))
    assert runtime.command_accepted(status)
    response = runtime.fetch_register_response(harness.shield.register_file.outbox_size())
    assert client.open_read_response(response) == b"\x00\x00\x01\x00"


def test_runtime_never_observes_plaintext(provisioned_shield):
    harness = provisioned_shield
    config = harness.shield_config
    runtime = ShefHostRuntime(harness.board.shell, config)
    secret = b"HOST-MUST-NOT-SEE-THIS!!" * 32  # 3 chunks
    staged = harness.data_owner.seal_input(config, "input", secret, shield_id=config.shield_id)
    runtime.upload_region(staged)
    client = harness.data_owner.register_channel(config, shield_id=config.shield_id)
    runtime.send_register_command(client.seal_write(0, b"\x00\x00\x00\x01"))
    observed = b"".join(
        blob for entry in runtime.log.observed_blobs for blob in entry if isinstance(blob, bytes)
    )
    assert b"HOST-MUST-NOT-SEE-THIS" not in observed
    assert secret not in observed


def test_runtime_rejects_oversized_register_command(provisioned_shield):
    runtime = ShefHostRuntime(provisioned_shield.board.shell, provisioned_shield.shield_config)
    from repro.errors import ShieldError

    with pytest.raises(ShieldError):
        runtime.send_register_command(b"\x00" * 0x2000)


def _record_transfers(shell) -> list:
    transfers: list = []
    shell.install_dma_tap(lambda kind, address, data: transfers.append((kind, address, len(data))))
    return transfers


def test_region_tags_move_in_one_transfer_each_way(provisioned_shield):
    """A whole-region upload is one ciphertext and one tag-block transfer,
    and a download reads its chunks' tags in one transfer too."""
    harness = provisioned_shield
    config = harness.shield_config
    runtime = ShefHostRuntime(harness.board.shell, config)
    transfers = _record_transfers(harness.board.shell)
    input_region, output_region = config.region("input"), config.region("output")

    plaintext = bytes((5 * i) % 256 for i in range(1024))  # 4 chunks of 256
    staged = harness.data_owner.seal_input(config, "input", plaintext, shield_id=config.shield_id)
    runtime.upload_region(staged)
    assert transfers == [
        ("write", input_region.base_address, 1024),
        ("write", config.tag_address(input_region, 0), 4 * MAC_TAG_BYTES),
    ]
    assert harness.shield.memory_read(0, 1024) == plaintext

    harness.shield.memory_write(4096, plaintext)
    harness.shield.flush()
    transfers.clear()
    ciphertext, tags = runtime.download_region("output", num_chunks=3, offset_chunks=1)
    assert transfers == [
        ("read", output_region.base_address + 256, 768),
        ("read", config.tag_address(output_region, 1), 3 * MAC_TAG_BYTES),
    ]
    assert [len(tag) for tag in tags] == [MAC_TAG_BYTES] * 3
    chunks = harness.data_owner.sealed_chunks_from_device(
        config, "output", ciphertext, tags, offset_chunks=1
    )
    recovered = harness.data_owner.unseal_output_with_versions(
        config, "output", chunks, versions=[1, 1, 1], length=768, shield_id=config.shield_id
    )
    assert recovered == plaintext[256:]
    assert (runtime.log.dma_writes, runtime.log.dma_reads) == (2, 2)
    assert runtime.log.bytes_downloaded == 768 + 3 * MAC_TAG_BYTES


def test_each_run_of_consecutive_chunks_is_one_tag_transfer(provisioned_shield):
    harness = provisioned_shield
    config = harness.shield_config
    runtime = ShefHostRuntime(harness.board.shell, config)
    region = config.region("input")
    staged = harness.data_owner.seal_input(
        config, "input", bytes(range(256)) * 5, shield_id=config.shield_id
    )
    chunks = staged.sealed_chunks
    staged.sealed_chunks = [chunks[0], chunks[1], chunks[3], chunks[4]]
    transfers = _record_transfers(harness.board.shell)
    runtime.upload_region(staged)
    assert transfers[1:] == [
        ("write", config.tag_address(region, 0), 2 * MAC_TAG_BYTES),
        ("write", config.tag_address(region, 3), 2 * MAC_TAG_BYTES),
    ]
    assert harness.board.shell.host_dma_read(config.tag_address(region, 3), MAC_TAG_BYTES) == chunks[3].tag
