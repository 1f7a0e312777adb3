"""The per-region authenticated-encryption pipeline (an engine set at work).

A :class:`RegionPipeline` is the runtime datapath that an engine set provides
for one protected memory region: on reads it fetches ciphertext chunks and
their tags from DRAM through the untrusted Shell, verifies and decrypts them,
and serves the accelerator from an optional on-chip plaintext buffer; on
writes it updates the buffer (or performs read-modify-write without one) and
re-seals dirty chunks back to DRAM, bumping the on-chip integrity counter for
replay-protected regions.  Every batch the pipeline hands the sealer is one
``(n, chunk_size)`` array of whole chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.annotations import hot_path
from repro.core.buffer import PlaintextBuffer
from repro.core.config import EngineSetConfig, RegionConfig, ShieldConfig, MAC_TAG_BYTES
from repro.core.counters import IntegrityCounterStore
from repro.core.sealing import RegionSealer
from repro.errors import ShieldError
from repro.hw.axi import AxiPort
from repro.hw.memory import OnChipMemory


@dataclass
class PipelineStats:
    """Per-region traffic statistics (DRAM side and accelerator side)."""

    accel_bytes_read: int = 0
    accel_bytes_written: int = 0
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    chunks_fetched: int = 0
    chunks_written_back: int = 0
    tag_bytes: int = 0
    integrity_failures: int = 0


class RegionPipeline:
    """Authenticated-encryption datapath for one region behind one engine set."""

    def __init__(
        self,
        shield_config: ShieldConfig,
        region: RegionConfig,
        engine_config: EngineSetConfig,
        data_encryption_key: bytes,
        memory_port: AxiPort,
        on_chip_memory: OnChipMemory,
        buffer_bytes: Optional[int] = None,
    ):
        self.shield_config = shield_config
        self.region = region
        self.engine_config = engine_config
        self._port = memory_port
        self._sealer = RegionSealer(data_encryption_key, region, engine_config)
        self.stats = PipelineStats()
        #: Chunk indices this pipeline has sealed to DRAM at least once.  For
        #: ``streaming_write_only`` regions this decides whether a partial
        #: write may zero-fill the rest of the chunk (nothing stored yet) or
        #: must read the sealed chunk back (a previous burst already landed).
        self._sealed_chunk_indices: set = set()

        buffer_budget = engine_config.buffer_bytes if buffer_bytes is None else buffer_bytes
        if buffer_budget:
            on_chip_memory.allocate(
                f"{shield_config.shield_id}:{region.name}:buffer", buffer_budget
            )
        self.buffer = PlaintextBuffer(buffer_budget, region.chunk_size)

        self.counters: Optional[IntegrityCounterStore] = None
        if region.replay_protected:
            allocation = on_chip_memory.allocate(
                f"{shield_config.shield_id}:{region.name}:counters",
                4 * region.num_chunks,
            )
            self.counters = IntegrityCounterStore(allocation, region.num_chunks)

    # -- chunk-level DRAM operations ---------------------------------------------

    def _chunk_address(self, chunk_index: int) -> int:
        return self.region.base_address + chunk_index * self.region.chunk_size

    def _current_version(self, chunk_index: int) -> int:
        return self.counters.read(chunk_index) if self.counters is not None else 0

    def _fetch_chunk(self, chunk_index: int) -> bytes:
        """Read, verify, and decrypt one chunk from DRAM."""
        return self._fetch_chunks([chunk_index])[0]

    @hot_path
    def _fetch_chunks(self, chunk_indices: list) -> list:
        """Read, verify, and decrypt a batch of chunks from DRAM.

        All ciphertext spans go out as one coalesced
        :meth:`~repro.hw.axi.AxiPort.read_many` request (adjacent chunks merge
        into long bursts), tags as a second one, and the whole batch is
        verified and decrypted in a single
        :meth:`~repro.core.sealing.RegionSealer.unseal_chunks` pass.  Traffic
        statistics are identical to fetching the chunks one at a time.
        """
        if not chunk_indices:
            return []
        chunk_size = self.region.chunk_size
        ciphertexts = self._port.read_many(
            [(self._chunk_address(index), chunk_size) for index in chunk_indices],
            region_hint=self.region.name,
        )
        tags = self._port.read_many(
            [
                (self.shield_config.tag_address(self.region, index), MAC_TAG_BYTES)
                for index in chunk_indices
            ],
            region_hint="tags",
        )
        count = len(chunk_indices)
        self.stats.dram_bytes_read += count * (chunk_size + MAC_TAG_BYTES)
        self.stats.tag_bytes += count * MAC_TAG_BYTES
        self.stats.chunks_fetched += count
        versions = [self._current_version(index) for index in chunk_indices]
        try:
            return self._sealer.unseal_chunks(chunk_indices, ciphertexts, tags, versions)
        except Exception:
            self.stats.integrity_failures += 1
            raise

    def _store_chunk(self, chunk_index: int, plaintext: bytes) -> None:
        """Seal and write one chunk (and its tag) back to DRAM."""
        if self.counters is not None:
            version = self.counters.increment(chunk_index)
        else:
            version = 0
        self._write_sealed(self._sealer.seal_chunk(chunk_index, plaintext, version))

    def _write_sealed(self, sealed) -> None:
        """Write one sealed chunk (ciphertext + tag) to DRAM and account it."""
        self._port.write(
            self._chunk_address(sealed.chunk_index),
            sealed.ciphertext,
            region_hint=self.region.name,
        )
        self._port.write(
            self.shield_config.tag_address(self.region, sealed.chunk_index),
            sealed.tag,
            region_hint="tags",
        )
        self.stats.dram_bytes_written += len(sealed.ciphertext) + MAC_TAG_BYTES
        self.stats.tag_bytes += MAC_TAG_BYTES
        self.stats.chunks_written_back += 1
        self._sealed_chunk_indices.add(sealed.chunk_index)

    # -- buffer-mediated access -----------------------------------------------------

    def _chunk_plaintext_for_read(self, chunk_index: int):
        """Chunk plaintext for a read, as read-only bytes-like data.

        Buffered hits hand back the buffer line's storage directly and misses
        return the unseal output (a memoryview row of the batch); callers copy
        the span they need, so no per-chunk ``bytes`` materialization happens.
        """
        if self.buffer.enabled:
            line = self.buffer.lookup(chunk_index)
            if line is not None:
                return line.data
            plaintext = self._fetch_chunk(chunk_index)
            evicted = self.buffer.insert(chunk_index, plaintext, dirty=False)
            if evicted is not None:
                self._store_chunk(evicted.chunk_index, bytes(evicted.data))
            return plaintext
        return self._fetch_chunk(chunk_index)

    def _zero_fill_ok(self, chunk_index: int) -> bool:
        """Whether a partial write to a streaming chunk may start from zeros.

        Only until the chunk's first seal: a ``streaming_write_only`` region
        has no Data-Owner-staged contents to preserve, but once this pipeline
        has sealed the chunk, earlier bursts live in DRAM and zero-filling
        would silently destroy them -- the chunk must be read back instead.
        """
        return (
            self.region.streaming_write_only
            and chunk_index not in self._sealed_chunk_indices
        )

    def _write_span(self, chunk_index: int, offset: int, data: bytes) -> None:
        chunk_size = self.region.chunk_size
        full_chunk_write = offset == 0 and len(data) == chunk_size
        if self.buffer.enabled:
            line = self.buffer.lookup(chunk_index)
            if line is None:
                if full_chunk_write or self._zero_fill_ok(chunk_index):
                    base = bytearray(chunk_size)
                else:
                    base = bytearray(self._fetch_chunk(chunk_index))
                evicted = self.buffer.insert(chunk_index, bytes(base), dirty=False)
                if evicted is not None:
                    self._store_chunk(evicted.chunk_index, bytes(evicted.data))
                line = self.buffer.peek(chunk_index)
            line.data[offset : offset + len(data)] = data
            line.dirty = True
            return
        # No buffer: read-modify-write unless the write covers the whole chunk.
        if full_chunk_write:
            self._store_chunk(chunk_index, data)
            return
        if self._zero_fill_ok(chunk_index):
            base = bytearray(chunk_size)
        else:
            base = bytearray(self._fetch_chunk(chunk_index))
        base[offset : offset + len(data)] = data
        self._store_chunk(chunk_index, bytes(base))

    # -- accelerator-facing API --------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read plaintext on behalf of the accelerator.

        Without an on-chip buffer every chunk the span touches is fetched in
        one batched :meth:`_fetch_chunks` call (coalesced DRAM bursts, one
        vectorized unseal pass) and the result is assembled into a single
        preallocated output buffer.  With a buffer the chunk-at-a-time lookup
        order is preserved so hit/miss and eviction behavior stay identical.
        """
        self._check_bounds(address, length)
        self.stats.accel_bytes_read += length
        if length == 0:
            return b""
        plaintexts = None
        if not self.buffer.enabled:
            first = self.region.chunk_index(address)
            last = self.region.chunk_index(address + length - 1)
            chunk_indices = list(range(first, last + 1))
            plaintexts = dict(zip(chunk_indices, self._fetch_chunks(chunk_indices)))
        out = bytearray(length)
        out_offset = 0
        cursor = address
        remaining = length
        while remaining > 0:
            chunk_index = self.region.chunk_index(cursor)
            chunk_base = self._chunk_address(chunk_index)
            offset = cursor - chunk_base
            take = min(remaining, self.region.chunk_size - offset)
            if plaintexts is not None:
                plaintext = plaintexts[chunk_index]
            else:
                plaintext = self._chunk_plaintext_for_read(chunk_index)
            out[out_offset : out_offset + take] = plaintext[offset : offset + take]
            cursor += take
            out_offset += take
            remaining -= take
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write plaintext on behalf of the accelerator."""
        self._check_bounds(address, len(data))
        self.stats.accel_bytes_written += len(data)
        cursor = address
        offset_in_data = 0
        remaining = len(data)
        while remaining > 0:
            chunk_index = self.region.chunk_index(cursor)
            chunk_base = self._chunk_address(chunk_index)
            offset = cursor - chunk_base
            take = min(remaining, self.region.chunk_size - offset)
            self._write_span(chunk_index, offset, data[offset_in_data : offset_in_data + take])
            cursor += take
            offset_in_data += take
            remaining -= take

    def flush(self) -> None:
        """Write every dirty buffered chunk back to DRAM in one sealed batch.

        The dirty lines are staged into one ``(n, chunk_size)`` array and
        sealed through one
        :meth:`~repro.core.sealing.RegionSealer.seal_chunks_array` call
        (counter increments happen first, exactly as the chunk-at-a-time path
        would), so the engine set encrypts the whole write-back set in a
        single vectorized pass before the per-chunk DRAM writes go out.
        """
        lines = list(self.buffer.dirty_lines())
        if not lines:
            return
        indices = [line.chunk_index for line in lines]
        versions = [
            self.counters.increment(index) if self.counters is not None else 0
            for index in indices
        ]
        plaintext_array = np.empty((len(lines), self.region.chunk_size), dtype=np.uint8)
        for row, line in enumerate(lines):
            plaintext_array[row] = np.frombuffer(line.data, dtype=np.uint8)
        sealed_chunks = self._sealer.seal_chunks_array(indices, plaintext_array, versions)
        for line, sealed in zip(lines, sealed_chunks):
            self._write_sealed(sealed)
            line.dirty = False

    def _check_bounds(self, address: int, length: int) -> None:
        if not self.region.contains(address, max(length, 1)):
            raise ShieldError(
                f"access [{address:#x}, {address + length:#x}) outside region "
                f"{self.region.name!r}"
            )
