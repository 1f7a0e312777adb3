"""The Shield's on-DRAM data format: per-chunk sealing and unsealing.

Every protected region is stored in device DRAM as AES-CTR ciphertext, chunk
by chunk, with a 16-byte MAC tag per chunk kept in a separate tag area
(Section 5.2: "Each chunk is authenticated via a 16-byte MAC tag in
encrypt-then-MAC mode stored in DRAM").  The MAC binds the chunk's *address*
(defeating spoofing and splicing) and, for replay-protected regions, the
chunk's current *write version* from the on-chip counters (defeating replay).

Both the Shield's engine sets and the Data Owner's client library use these
helpers: the Data Owner seals input data before DMA-ing it into device memory
and unseals results coming back, so the format must be shared.  Sub-keys are
derived per (Data Encryption Key, region name) so no two regions share keys.

A batch of chunks is sealed or unsealed as one ``(n, chunk_size)`` array:
one cipher pass and one MAC pass for the whole batch.  Every stored chunk is
exactly ``chunk_size`` bytes, because sealing takes whole chunks only, so a
chunk of any other length (a truncated download leaves a short last chunk)
is tampering: it is rejected with :class:`~repro.errors.IntegrityError` and a
``mac_failure`` event before any MAC or decrypt runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

import repro.obs as obs_api
from repro.analysis import sanitizer
from repro.analysis.annotations import hot_path, scalar_reference, secret
from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import AesEngine, MacEngine, build_engines
from repro.crypto.fasthash import sha256
from repro.crypto.kdf import derive_subkey
from repro.errors import IntegrityError, ShieldError


@secret
def region_key(data_encryption_key: bytes, region_name: str) -> bytes:
    """Derive the per-region sub-key from the Data Encryption Key."""
    return derive_subkey(data_encryption_key, f"region:{region_name}", 32)


@lru_cache(maxsize=256)
def _iv_seed(region_name: str) -> bytes:
    """A region's 4-byte IV seed: its name's SHA-256, hashed once per process."""
    return sha256(region_name.encode("utf-8"))[:4]


def chunk_iv(region: RegionConfig, chunk_index: int, version: int = 0) -> bytes:
    """The 12-byte IV for a chunk: region seed || chunk index || write version.

    The paper increments a 12-byte IV by one per successive chunk; folding the
    write version in as well keeps CTR key streams unique across rewrites of
    replay-protected chunks.
    """
    return _iv_seed(region.name) + chunk_index.to_bytes(4, "big") + (version & 0xFFFFFFFF).to_bytes(4, "big")


def chunk_mac_context(region: RegionConfig, chunk_index: int, version: int) -> bytes:
    """The associated data bound by each chunk's MAC tag."""
    address = region.base_address + chunk_index * region.chunk_size
    return (
        b"shef-chunk"
        + address.to_bytes(8, "big")
        + (version & 0xFFFFFFFF).to_bytes(4, "big")
    )


@dataclass
class SealedChunk:
    """One sealed chunk: ciphertext plus its 16-byte tag.

    A batched seal's ciphertext is a :class:`memoryview` row sliced out of one
    flat batch buffer (every chunk of the batch shares the same backing
    allocation); :meth:`RegionSealer.seal_chunk` produces plain :class:`bytes`.
    Consumers should treat it as read-only bytes-like data.
    """

    chunk_index: int
    ciphertext: bytes | memoryview
    tag: bytes


class RegionSealer:
    """Seals and unseals chunks of one region under one Data Encryption Key."""

    def __init__(
        self,
        data_encryption_key: bytes,
        region: RegionConfig,
        engine_config: EngineSetConfig,
        obs=None,
    ):
        self.region = region
        key = region_key(data_encryption_key, region.name)
        self._aes_engine, self._mac_engine = build_engines(engine_config, key)
        self._obs = obs if obs is not None else obs_api.current()

    @property
    def aes_engine(self) -> AesEngine:
        return self._aes_engine

    @property
    def mac_engine(self) -> MacEngine:
        return self._mac_engine

    def _observe(self, op: str, nbytes: int, seconds: float) -> None:
        """Record one seal/unseal operation (bytes moved + duration).  Callers
        only reach this when metrics are enabled."""
        metrics = self._obs.metrics
        metrics.counter(f"crypto.{op}_bytes").inc(nbytes)
        metrics.histogram(f"crypto.{op}_seconds").observe(seconds)

    def _mac_failure(self, exc: IntegrityError, chunk_indices) -> None:
        """Publish a failed tag verification on the security stream."""
        if self._obs.tracer.enabled:
            self._obs.tracer.security(
                "mac_failure",
                region=self.region.name,
                chunks=list(chunk_indices),
                error=str(exc),
            )

    def _reject_partial_chunks(self, chunk_indices, ciphertexts) -> None:
        """Treat any chunk that is not exactly ``chunk_size`` bytes as tampering.

        :meth:`seal_chunk` and :meth:`seal_chunks_array` take whole chunks
        only, so no sealer produces a short or long chunk.
        """
        chunk_size = self.region.chunk_size
        if any(len(ciphertext) != chunk_size for ciphertext in ciphertexts):
            exc = IntegrityError(f"{self._mac_engine.algorithm} tag mismatch")
            self._mac_failure(exc, chunk_indices)
            raise exc

    def seal_chunk(self, chunk_index: int, plaintext: bytes, version: int = 0) -> SealedChunk:
        """Encrypt-then-MAC one chunk of plaintext."""
        if len(plaintext) != self.region.chunk_size:
            raise ShieldError(
                f"chunk plaintext must be exactly {self.region.chunk_size} bytes"
            )
        timed = self._obs.metrics.enabled
        start = time.perf_counter() if timed else 0.0
        iv = chunk_iv(self.region, chunk_index, version)
        ciphertext = self._aes_engine.encrypt(iv, plaintext)
        context = chunk_mac_context(self.region, chunk_index, version)
        tag = self._mac_engine.tag(context + ciphertext)
        if timed:
            self._observe("seal", len(plaintext), time.perf_counter() - start)
        return SealedChunk(chunk_index=chunk_index, ciphertext=ciphertext, tag=tag)

    def unseal_chunk(
        self, chunk_index: int, ciphertext: bytes, tag: bytes, version: int = 0
    ) -> bytes:
        """Verify and decrypt one chunk; raises :class:`IntegrityError` on tampering."""
        self._reject_partial_chunks([chunk_index], [ciphertext])
        timed = self._obs.metrics.enabled
        start = time.perf_counter() if timed else 0.0
        context = chunk_mac_context(self.region, chunk_index, version)
        try:
            self._mac_engine.verify(context + ciphertext, tag)
        except IntegrityError as exc:
            self._mac_failure(exc, [chunk_index])
            raise
        iv = chunk_iv(self.region, chunk_index, version)
        plaintext = self._aes_engine.decrypt(iv, ciphertext)
        if timed:
            self._observe("unseal", len(plaintext), time.perf_counter() - start)
        return plaintext

    # -- batched (vectorized) datapath ---------------------------------------------

    def _chunk_ivs_array(self, indices: list, versions: list) -> np.ndarray:
        """Vectorized :func:`chunk_iv`: one ``(n, 12)`` uint8 array for a batch."""
        n = len(indices)
        ivs = np.empty((n, 12), dtype=np.uint8)
        ivs[:, :4] = np.frombuffer(_iv_seed(self.region.name), dtype=np.uint8)
        ivs[:, 4:8] = np.asarray(indices, dtype=">u4").view(np.uint8).reshape(n, 4)
        ivs[:, 8:] = (
            (np.asarray(versions, dtype=np.uint64) & 0xFFFFFFFF)
            .astype(">u4")
            .view(np.uint8)
            .reshape(n, 4)
        )
        return ivs

    def _chunk_contexts_array(self, indices: list, versions: list) -> np.ndarray:
        """Vectorized :func:`chunk_mac_context`: one ``(n, 22)`` uint8 array."""
        n = len(indices)
        contexts = np.empty((n, 22), dtype=np.uint8)
        contexts[:, :10] = np.frombuffer(b"shef-chunk", dtype=np.uint8)
        addresses = (
            self.region.base_address
            + np.asarray(indices, dtype=np.uint64) * self.region.chunk_size
        )
        contexts[:, 10:18] = addresses.astype(">u8").view(np.uint8).reshape(n, 8)
        contexts[:, 18:] = (
            (np.asarray(versions, dtype=np.uint64) & 0xFFFFFFFF)
            .astype(">u4")
            .view(np.uint8)
            .reshape(n, 4)
        )
        return contexts

    @hot_path
    @scalar_reference("seal_chunk")
    def seal_chunks_array(
        self, indices: list, plaintext_array: np.ndarray, versions=0
    ) -> list:
        """Seal a batch of whole chunks staged as an ``(n, chunk_size)`` uint8 array.

        ``versions`` is either one write version shared by every chunk or a
        per-chunk list (what a buffered pipeline flush produces).  The rows
        are encrypted and MACed in one cipher pass and one MAC pass without
        ever being sliced into per-chunk ``bytes`` objects, and the resulting
        :class:`SealedChunk` ciphertexts are memoryview rows of one shared
        output buffer.
        """
        indices = list(indices)
        if isinstance(versions, int):
            versions = [versions] * len(indices)
        if len(versions) != len(indices) or plaintext_array.shape[0] != len(indices):
            raise ShieldError("seal_chunks_array needs matching indices/plaintexts/versions")
        if (
            plaintext_array.ndim != 2
            or plaintext_array.shape[1] != self.region.chunk_size
        ):
            raise ShieldError(
                f"chunk plaintext must be exactly {self.region.chunk_size} bytes"
            )
        timed = self._obs.metrics.enabled
        start = time.perf_counter() if timed else 0.0
        chunk_size = self.region.chunk_size
        ivs = self._chunk_ivs_array(indices, versions)
        ciphertext_array = self._aes_engine.encrypt_many_array(ivs, plaintext_array)
        messages = np.empty((len(indices), 22 + chunk_size), dtype=np.uint8)
        messages[:, :22] = self._chunk_contexts_array(indices, versions)
        messages[:, 22:] = ciphertext_array
        tags = self._mac_engine.tag_many_array(messages)
        if timed:
            self._observe("seal", plaintext_array.size, time.perf_counter() - start)
        sanitizer.freeze(ciphertext_array)
        flat = ciphertext_array.reshape(-1).data
        return [
            SealedChunk(
                chunk_index=index,
                ciphertext=flat[row * chunk_size : (row + 1) * chunk_size],
                tag=tags[row].tobytes(),  # lint: allow[hot-copy] 16-byte tag, SealedChunk.tag is bytes
            )
            for row, index in enumerate(indices)
        ]

    def seal_region_data(self, plaintext: bytes, start_chunk: int = 0) -> list:
        """Seal a contiguous run of chunks (padding the tail with zeros).

        Returns a list of :class:`SealedChunk`; used by the Data Owner to
        prepare inputs for DMA and by tests to stage expected ciphertext.
        The plaintext is staged as one ``(n, chunk_size)`` array view (a
        single zero-padded allocation when the length is not an exact multiple
        of the chunk size) instead of being sliced and padded chunk by chunk.
        """
        chunk_size = self.region.chunk_size
        if len(plaintext) == 0:
            return []
        num_chunks = -(-len(plaintext) // chunk_size)
        if start_chunk + num_chunks > self.region.num_chunks:
            first_bad = max(start_chunk, self.region.num_chunks)
            raise ShieldError(
                f"data does not fit in region {self.region.name!r}: chunk {first_bad} "
                f"exceeds {self.region.num_chunks} chunks"
            )
        data = np.frombuffer(plaintext, dtype=np.uint8)
        if len(plaintext) % chunk_size == 0:
            plaintext_array = data.reshape(num_chunks, chunk_size)
        else:
            plaintext_array = np.zeros((num_chunks, chunk_size), dtype=np.uint8)
            plaintext_array.reshape(-1)[: len(plaintext)] = data
        indices = list(range(start_chunk, start_chunk + num_chunks))
        return self.seal_chunks_array(indices, plaintext_array)

    def unseal_region_data(
        self, sealed_chunks: list, length: int | None = None, versions=0
    ) -> bytes:
        """Unseal a list of :class:`SealedChunk` back into contiguous plaintext.

        ``versions`` is one write version shared by every chunk (0 for
        write-once regions) or a per-chunk list (replay-protected regions).
        All tags are verified first in one batched MAC pass (any tampering,
        a partial chunk included, raises :class:`~repro.errors.IntegrityError`
        before a single byte is decrypted), then all ciphertexts go through
        one batched decrypt pass.  An empty list unseals to ``b""``.
        """
        if isinstance(versions, int):
            versions = [versions] * len(sealed_chunks)
        if len(versions) != len(sealed_chunks):
            raise ShieldError("unseal_region_data needs one version per chunk")
        timed = self._obs.metrics.enabled
        start = time.perf_counter() if timed else 0.0
        plaintext_array = self._unseal_batch_array(
            [chunk.chunk_index for chunk in sealed_chunks],
            [chunk.ciphertext for chunk in sealed_chunks],
            [chunk.tag for chunk in sealed_chunks],
            versions,
        )
        flat = plaintext_array.reshape(-1)
        if timed:
            self._observe("unseal", flat.size, time.perf_counter() - start)
        return flat.tobytes() if length is None else flat[:length].tobytes()

    def _unseal_batch_array(
        self, indices: list, ciphertexts: list, tags: list, versions: list
    ) -> np.ndarray:
        """Batch unseal; returns the ``(n, chunk_size)`` plaintext array.

        Partial chunks are rejected first.  One ``(n, 22 + chunk_size)``
        staging array then carries every MAC message (context rows are
        computed vectorized), verification and decryption each run as a
        single batched engine pass, and the returned plaintext lives in one
        contiguous buffer.
        """
        self._reject_partial_chunks(indices, ciphertexts)
        messages = np.empty((len(indices), 22 + self.region.chunk_size), dtype=np.uint8)
        messages[:, :22] = self._chunk_contexts_array(indices, versions)
        for row, ciphertext in enumerate(ciphertexts):
            messages[row, 22:] = np.frombuffer(ciphertext, dtype=np.uint8)
        try:
            self._mac_engine.verify_many_array(messages, tags)
        except IntegrityError as exc:
            self._mac_failure(exc, indices)
            raise
        ivs = self._chunk_ivs_array(indices, versions)
        return self._aes_engine.decrypt_many_array(ivs, messages[:, 22:])

    @hot_path
    @scalar_reference("unseal_chunk")
    def unseal_chunks(
        self, indices: list, ciphertexts: list, tags: list, versions=0
    ) -> list:
        """Verify and decrypt many chunks in one batched pass.

        The read-back twin of :meth:`seal_chunks_array`: the pipeline hands
        over the raw per-chunk ciphertext and tag blobs it fetched from DRAM,
        and gets back one plaintext per chunk: memoryview rows of a single
        shared buffer (no per-chunk ``bytes`` allocation).  A partial chunk
        raises :class:`~repro.errors.IntegrityError`; an empty batch gives
        ``[]``.
        """
        indices = list(indices)
        if isinstance(versions, int):
            versions = [versions] * len(indices)
        if not (len(ciphertexts) == len(tags) == len(versions) == len(indices)):
            raise ShieldError(
                "unseal_chunks needs matching indices/ciphertexts/tags/versions"
            )
        timed = self._obs.metrics.enabled
        start = time.perf_counter() if timed else 0.0
        plaintext_array = self._unseal_batch_array(indices, ciphertexts, tags, versions)
        if timed:
            self._observe("unseal", plaintext_array.size, time.perf_counter() - start)
        chunk_len = plaintext_array.shape[1]
        sanitizer.freeze(plaintext_array)
        flat = plaintext_array.reshape(-1).data
        return [
            flat[row * chunk_len : (row + 1) * chunk_len]
            for row in range(len(indices))
        ]
