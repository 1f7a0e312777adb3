"""The ShEF host runtime: the untrusted data mover between Data Owner and Shield.

In the paper the host program links against the Xilinx runtime (XRT), forwards
the Load Key and encrypted data to the FPGA, and proxies all communication
between the Data Owner and the Shield -- but it is explicitly outside the TCB
and never observes plaintext.  This class mirrors that role: everything it
moves is ciphertext or sealed blobs produced elsewhere, and the methods are
thin wrappers over the Shell's DMA and register interfaces so tests can verify
that nothing secret ever passes through host-visible state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attestation.data_owner import StagedRegionData
from repro.attestation.messages import LoadKeyDelivery
from repro.core.config import MAC_TAG_BYTES, ShieldConfig
from repro.core.register_interface import (
    DOORBELL_ADDRESS,
    INBOX_BASE,
    OUTBOX_BASE,
    STATUS_ADDRESS,
    STATUS_OK,
)
from repro.core.shield import Shield
from repro.errors import ShieldError
from repro.hw.shell import Shell


@dataclass
class HostTransferLog:
    """Everything the (untrusted) host observed moving through it.

    ``label`` identifies which runtime produced the log when several host
    programs share one audit trail -- the multi-tenant serving layer tags
    each log with the tenant session it served, so cross-tenant forensics
    ("which session moved this blob?") stay possible even though the blobs
    themselves are all ciphertext.
    """

    dma_writes: int = 0
    dma_reads: int = 0
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0
    register_commands: int = 0
    observed_blobs: list = field(default_factory=list)
    label: str = ""


class ShefHostRuntime:
    """The host program: forwards sealed data between Data Owner, Shell, and Shield."""

    def __init__(self, shell: Shell, shield_config: ShieldConfig, label: str = ""):
        self.shell = shell
        self.shield_config = shield_config
        self.log = HostTransferLog(label=label)

    # -- key delivery ------------------------------------------------------------------

    def deliver_load_key(self, shield: Shield, load_key: LoadKeyDelivery) -> None:
        """Forward the wrapped Load Key to the Shield (step 11 of Figure 2)."""
        self.log.observed_blobs.append(("load_key", load_key.wrapped_key))
        shield.provision_load_key(load_key.wrapped_key)

    # -- bulk data movement -----------------------------------------------------------------

    def upload_region(self, staged: StagedRegionData) -> None:
        """DMA sealed input data (ciphertext + per-chunk tags) into device memory.

        Tags of consecutive chunks sit side by side in the tag area, so each
        run of consecutive chunk indices moves its tags in one transfer; a
        whole-region upload is one ciphertext and one tag-block transfer.
        """
        region = staged.region
        ciphertext = staged.flat_ciphertext()
        self.shell.host_dma_write(region.base_address, ciphertext)
        self.log.dma_writes += 1
        self.log.bytes_uploaded += len(ciphertext)
        chunks = staged.sealed_chunks
        start = 0
        for end in range(1, len(chunks) + 1):
            if end < len(chunks) and chunks[end].chunk_index == chunks[end - 1].chunk_index + 1:
                continue
            block = b"".join(chunk.tag for chunk in chunks[start:end])
            self.shell.host_dma_write(
                self.shield_config.tag_address(region, chunks[start].chunk_index), block
            )
            self.log.dma_writes += 1
            self.log.bytes_uploaded += len(block)
            start = end
        self.log.observed_blobs.append(("region_upload", region.name, len(ciphertext)))

    def download_region(self, region_name: str, num_chunks: int, offset_chunks: int = 0) -> tuple:
        """DMA sealed output data back out; returns (ciphertext, tags).

        The host cannot decrypt any of it -- the Data Owner unseals the result
        with the Data Encryption Key.
        """
        region = self.shield_config.region(region_name)
        start = region.base_address + offset_chunks * region.chunk_size
        length = num_chunks * region.chunk_size
        ciphertext = self.shell.host_dma_read(start, length)
        tag_block = self.shell.host_dma_read(
            self.shield_config.tag_address(region, offset_chunks), num_chunks * MAC_TAG_BYTES
        )
        tags = [
            tag_block[offset : offset + MAC_TAG_BYTES]
            for offset in range(0, len(tag_block), MAC_TAG_BYTES)
        ]
        self.log.dma_reads += 2
        self.log.bytes_downloaded += length + len(tag_block)
        return ciphertext, tags

    # -- register channel ------------------------------------------------------------------------

    def send_register_command(self, sealed_blob: bytes) -> int:
        """Write a sealed register command into the inbox and ring the doorbell.

        Returns the Shield's status word (1 = accepted, 2 = rejected).
        """
        if len(sealed_blob) > 0x1000:
            raise ShieldError("sealed register command does not fit in the mailbox")
        padded = sealed_blob + b"\x00" * ((4 - len(sealed_blob) % 4) % 4)
        for offset in range(0, len(padded), 4):
            self.shell.host_register_write(INBOX_BASE + offset, padded[offset : offset + 4])
        self.shell.host_register_write(DOORBELL_ADDRESS, len(sealed_blob).to_bytes(4, "big"))
        self.log.register_commands += 1
        self.log.observed_blobs.append(("register_command", sealed_blob))
        return self.read_status()

    def read_status(self) -> int:
        """Read the Shield's status register."""
        return int.from_bytes(self.shell.host_register_read(STATUS_ADDRESS), "big")

    def fetch_register_response(self, length: int) -> bytes:
        """Read a sealed read-response of ``length`` bytes out of the outbox."""
        words = []
        for offset in range(0, length, 4):
            words.append(self.shell.host_register_read(OUTBOX_BASE + offset))
        blob = b"".join(words)[:length]
        self.log.observed_blobs.append(("register_response", blob))
        return blob

    def command_accepted(self, status: int) -> bool:
        return status == STATUS_OK
