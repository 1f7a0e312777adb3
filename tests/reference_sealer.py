"""From-scratch reference for the Shield's on-DRAM chunk format.

Written from the format's definition, not from the engines: region and
engine keys come from :func:`~repro.crypto.kdf.derive_subkey`, IVs from
:func:`~repro.core.sealing.chunk_iv`, AES-CTR from
:func:`repro.crypto.modes.ctr_transform`, and each tag is
:func:`repro.crypto.mac.compute_mac` over
:func:`~repro.core.sealing.chunk_mac_context` + ciphertext, truncated to 16
bytes.  The parity tests compare the engines, the sealer and the Data Owner
against it byte for byte, and the speed gates time it as their baseline.
"""

from __future__ import annotations

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.sealing import SealedChunk, chunk_iv, chunk_mac_context
from repro.crypto.aes import AES
from repro.crypto.kdf import derive_subkey
from repro.crypto.mac import compute_mac, constant_time_equal
from repro.crypto.modes import ctr_transform
from repro.errors import IntegrityError

TAG_BYTES = 16


class ReferenceSealer:
    """Seals and unseals one region's chunks, one chunk at a time."""

    def __init__(
        self,
        data_encryption_key: bytes,
        region: RegionConfig,
        engine_config: EngineSetConfig,
    ):
        region_key = derive_subkey(data_encryption_key, f"region:{region.name}", 32)
        self.region = region
        self.algorithm = engine_config.mac_algorithm
        self.cipher = AES(
            derive_subkey(region_key, "engine-encrypt", engine_config.aes_key_bits // 8)
        )
        mac_key = derive_subkey(region_key, "engine-mac", 32)
        self.mac_key = mac_key if self.algorithm == "HMAC" else mac_key[:16]

    def tag(self, index: int, ciphertext, version: int = 0) -> bytes:
        message = chunk_mac_context(self.region, index, version) + bytes(ciphertext)
        return compute_mac(self.algorithm, self.mac_key, message)[:TAG_BYTES]

    def seal(self, index: int, plaintext: bytes, version: int = 0) -> SealedChunk:
        iv = chunk_iv(self.region, index, version)
        ciphertext = ctr_transform(self.cipher, iv, plaintext)
        return SealedChunk(index, ciphertext, self.tag(index, ciphertext, version))

    def unseal(self, index: int, ciphertext, tag, version: int = 0) -> bytes:
        if not constant_time_equal(self.tag(index, ciphertext, version), bytes(tag)):
            raise IntegrityError(f"{self.algorithm} tag mismatch")
        return ctr_transform(
            self.cipher, chunk_iv(self.region, index, version), bytes(ciphertext)
        )

    def seal_region(self, plaintext: bytes, versions=0, start_chunk: int = 0) -> list:
        """Seal ``plaintext`` from ``start_chunk`` on, zero-padding the tail."""
        size = self.region.chunk_size
        count = -(-len(plaintext) // size)
        padded = plaintext.ljust(count * size, b"\x00")
        if isinstance(versions, int):
            versions = [versions] * count
        return [
            self.seal(start_chunk + row, padded[row * size : (row + 1) * size], version)
            for row, version in zip(range(count), versions)
        ]

    def unseal_region(self, chunks: list, length: int | None = None, versions=0) -> bytes:
        if isinstance(versions, int):
            versions = [versions] * len(chunks)
        plaintext = b"".join(
            self.unseal(chunk.chunk_index, chunk.ciphertext, chunk.tag, version)
            for chunk, version in zip(chunks, versions)
        )
        return plaintext if length is None else plaintext[:length]
