"""The product path's hashing: stdlib SHA-256/HMAC and the batched chunk MACs.

Single messages -- key generation's HMAC-DRBG, HKDF sub-keys, the OAEP that
wraps Load Keys, measurements, Merkle nodes -- hash with :func:`sha256` and
:func:`hmac_sha256` on the standard library.  Chunk MACs run on
:class:`BatchedMac` below.  The from-scratch :mod:`repro.crypto.hashes` and
:mod:`repro.crypto.mac` are references that the parity suites compare both
against.

A per-chunk MAC over the pure-Python SHA-256 is the functional model's
authentication bottleneck -- the same bottleneck the paper removes in
Sections 6.2.3-6.2.4 by swapping HMAC for parallelizable PMAC.  This module
removes it in simulation space: all chunk MACs of a region are computed in
one numpy pass.  :class:`~repro.core.engines.MacEngine` runs every batch on
it and keeps :func:`repro.crypto.mac.compute_mac` for single messages.

A batch is always one ``(n, length)`` uint8 array of equal-length messages.
All chunk-MAC messages of a region are equal-length (22-byte context +
``chunk_size`` ciphertext), so a region seal or unseal is one batch.  The
batched primitives are byte-identical to their scalar references in
:mod:`repro.crypto.mac` / :mod:`repro.crypto.hashes`:

* :func:`sha256_many_array` runs the FIPS 180-4 compression schedule over
  the whole batch: the eight working variables become ``(n,)`` uint32
  arrays, so one Python-level round updates every message at once.
* :class:`BatchedMac` holds the per-key setup (HMAC key pads, or the AES key
  schedule plus PMAC/CMAC subkeys) and tags whole batches: HMAC as one
  batched inner pass over the messages plus one batched outer pass over the
  32-byte inner digests; PMAC's independent masked-block encryptions as one
  ``(n * blocks, 16)`` :meth:`~repro.crypto.fastaes.VectorAes.encrypt_blocks`
  batch (the parallelism the Shield's PMAC engines exploit in hardware);
  CMAC sequential per message but with all messages' CBC chains in lock-step.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

import numpy as np

from repro.analysis.annotations import hot_path, scalar_reference
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.fastaes import VectorAes
from repro.crypto.hashes import _INITIAL_STATE, _K
from repro.crypto.mac import _cmac_subkeys, _double, hmac_key_pads
from repro.errors import CryptoError

__all__ = ["sha256", "hmac_sha256", "sha256_many_array", "BatchedMac"]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 over ``hashlib``: the product path's digest.

    This reverses the substrate's original rule of never using ``hashlib``,
    for the product path only: :func:`repro.crypto.hashes.sha256` stays as
    the from-scratch reference, and the two are byte-identical.
    """
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) over ``hmac.digest``: the product path's MAC.

    Like :func:`sha256`, this reverses the no-``hashlib`` rule for the
    product path only: :func:`repro.crypto.mac.hmac_sha256` stays as the
    from-scratch reference, and the two are byte-identical.
    """
    return hmac.digest(key, message, "sha256")


_K_NP = np.array(_K, dtype=np.uint32)
_STATE_NP = np.array(_INITIAL_STATE, dtype=np.uint32)


def _rotr(values: np.ndarray, amount: int) -> np.ndarray:
    """Rotate every uint32 lane right by ``amount`` (1 <= amount <= 31)."""
    return (values >> np.uint32(amount)) | (values << np.uint32(32 - amount))


def _compress_many(state: list, words: np.ndarray) -> None:
    """One SHA-256 compression round over an ``(n, 16)`` uint32 block batch."""
    n = words.shape[0]
    w = np.empty((64, n), dtype=np.uint32)
    w[:16] = words.T
    for i in range(16, 64):
        x15, x2 = w[i - 15], w[i - 2]
        s0 = _rotr(x15, 7) ^ _rotr(x15, 18) ^ (x15 >> np.uint32(3))
        s1 = _rotr(x2, 17) ^ _rotr(x2, 19) ^ (x2 >> np.uint32(10))
        w[i] = w[i - 16] + s0 + w[i - 7] + s1

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = h + s1 + ch + _K_NP[i] + w[i]
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = s0 + maj
        h = g
        g = f
        f = e
        e = d + temp1
        d = c
        c = b
        b = a
        a = temp1 + temp2

    for index, value in enumerate((a, b, c, d, e, f, g, h)):
        state[index] = state[index] + value


@hot_path
@scalar_reference("repro.crypto.hashes:sha256")
def sha256_many_array(messages: np.ndarray) -> np.ndarray:
    """SHA-256 over an ``(n, length)`` uint8 message array in one pass.

    One padded working array serves the whole batch (no per-message
    ``bytes`` concatenation), and the ``(n, 32)`` digest array comes back
    without per-row copies.
    """
    if messages.ndim != 2:
        raise CryptoError("sha256_many_array expects an (n, length) array")
    n, length = messages.shape
    if n == 0:
        return np.empty((0, 32), dtype=np.uint8)
    # FIPS 180-4 padding is a function of the length only, so one padded
    # buffer (a single allocation) serves the whole batch.
    suffix = np.frombuffer(
        b"\x80" + b"\x00" * ((55 - length) % 64) + struct.pack(">Q", length * 8),
        dtype=np.uint8,
    )
    padded = np.empty((n, length + len(suffix)), dtype=np.uint8)
    padded[:, :length] = messages
    padded[:, length:] = suffix
    words = padded.view(">u4").astype(np.uint32)
    state = [np.full(n, value, dtype=np.uint32) for value in _STATE_NP]
    for block in range(words.shape[1] // 16):
        _compress_many(state, words[:, block * 16 : (block + 1) * 16])
    return np.stack(state, axis=1).astype(">u4").view(np.uint8).reshape(n, 32)


class BatchedMac:
    """Prepared multi-message MAC state for one (algorithm, key) pair.

    Construction performs the per-key setup once -- the HMAC key pads, or the
    AES key schedule, :class:`VectorAes` round-key tables, and PMAC/CMAC
    subkeys -- so an engine that tags many batches under the same key
    (:class:`~repro.core.engines.MacEngine` keeps one instance) does not pay
    it on every call.
    """

    def __init__(self, algorithm: str, key: bytes):
        if algorithm not in ("HMAC", "PMAC", "CMAC"):
            raise CryptoError(f"unknown MAC algorithm {algorithm!r}")
        self.algorithm = algorithm
        if algorithm == "HMAC":
            self._i_key_pad, self._o_key_pad = hmac_key_pads(key)
        else:
            cipher = AES(key)
            self._vector = VectorAes(cipher)
            if algorithm == "PMAC":
                l_value = int.from_bytes(
                    cipher.encrypt_block(b"\x00" * BLOCK_SIZE), "big"
                )
                l_inv = _double(_double(l_value))
                self._l_inv_np = np.frombuffer(l_inv.to_bytes(16, "big"), dtype=np.uint8)
                # The PMAC offset sequence L, 2L, 4L... is key-only state; it
                # is grown lazily to the longest message seen and reused.
                self._offsets = np.empty((0, BLOCK_SIZE), dtype=np.uint8)
                self._next_offset = l_value
            else:
                self._k1, self._k2 = _cmac_subkeys(cipher)

    # -- public API ---------------------------------------------------------------

    @hot_path
    @scalar_reference("repro.crypto.mac:compute_mac")
    def tag_many_array(self, messages: np.ndarray) -> np.ndarray:
        """Tag an equal-length ``(n, length)`` uint8 batch; returns ``(n, tag)``.

        The zero-copy entry point the region sealer's chunk-MAC path uses: the
        message batch stays one numpy buffer end-to-end and the tags come back
        as one array (32-byte rows for HMAC, 16 for PMAC/CMAC) instead of
        ``n`` separate ``bytes`` objects.
        """
        if messages.ndim != 2:
            raise CryptoError("tag_many_array expects an (n, length) array")
        if messages.shape[0] == 0:
            return np.empty((0, 32 if self.algorithm == "HMAC" else BLOCK_SIZE), dtype=np.uint8)
        compute = getattr(self, f"_{self.algorithm.lower()}_equal_length")
        return compute(np.ascontiguousarray(messages, dtype=np.uint8))

    # -- per-algorithm equal-length batches ------------------------------------------

    def _hmac_equal_length(self, messages: np.ndarray) -> np.ndarray:
        n, length = messages.shape
        inner_input = np.empty((n, 64 + length), dtype=np.uint8)
        inner_input[:, :64] = np.frombuffer(self._i_key_pad, dtype=np.uint8)
        inner_input[:, 64:] = messages
        inner = sha256_many_array(inner_input)
        outer_input = np.empty((n, 64 + 32), dtype=np.uint8)
        outer_input[:, :64] = np.frombuffer(self._o_key_pad, dtype=np.uint8)
        outer_input[:, 64:] = inner
        return sha256_many_array(outer_input)

    def _pmac_offsets(self, count: int) -> np.ndarray:
        while len(self._offsets) < count:
            grown = np.empty(
                (max(count, 2 * len(self._offsets)), BLOCK_SIZE), dtype=np.uint8
            )
            grown[: len(self._offsets)] = self._offsets
            offset = self._next_offset
            for i in range(len(self._offsets), len(grown)):
                grown[i] = np.frombuffer(offset.to_bytes(16, "big"), dtype=np.uint8)
                offset = _double(offset)
            self._offsets = grown
            self._next_offset = offset
        return self._offsets[:count]

    def _pmac_equal_length(self, message_array: np.ndarray) -> np.ndarray:
        vector = self._vector
        n, length = message_array.shape
        full_blocks, remainder = divmod(length, BLOCK_SIZE)
        last_full = full_blocks - (1 if remainder == 0 and full_blocks > 0 else 0)

        if last_full:
            offsets = self._pmac_offsets(last_full)
            blocks = message_array[:, : last_full * BLOCK_SIZE].reshape(
                n, last_full, BLOCK_SIZE
            )
            encrypted = vector.encrypt_blocks(
                (blocks ^ offsets[None, :, :]).reshape(n * last_full, BLOCK_SIZE)
            ).reshape(n, last_full, BLOCK_SIZE)
            sigma = np.bitwise_xor.reduce(encrypted, axis=1)
        else:
            sigma = np.zeros((n, BLOCK_SIZE), dtype=np.uint8)

        if remainder == 0 and full_blocks > 0:
            final = message_array[:, (full_blocks - 1) * BLOCK_SIZE :]
            sigma = sigma ^ final ^ self._l_inv_np
        else:
            padded = np.zeros((n, BLOCK_SIZE), dtype=np.uint8)
            padded[:, :remainder] = message_array[:, full_blocks * BLOCK_SIZE :]
            padded[:, remainder] = 0x80
            sigma = sigma ^ padded

        return vector.encrypt_blocks(np.ascontiguousarray(sigma))

    def _cmac_equal_length(self, message_array: np.ndarray) -> np.ndarray:
        vector = self._vector
        n, length = message_array.shape
        if length and length % BLOCK_SIZE == 0:
            padded = message_array
            last_mask = self._k1
        else:
            padded = np.zeros(
                (n, (length // BLOCK_SIZE + 1) * BLOCK_SIZE), dtype=np.uint8
            )
            padded[:, :length] = message_array
            padded[:, length] = 0x80
            last_mask = self._k2
        num_blocks = padded.shape[1] // BLOCK_SIZE
        blocks = padded.reshape(n, num_blocks, BLOCK_SIZE)

        state = np.zeros((n, BLOCK_SIZE), dtype=np.uint8)
        mask = np.frombuffer(last_mask, dtype=np.uint8)
        for index in range(num_blocks):
            block = blocks[:, index, :]
            if index == num_blocks - 1:
                block = block ^ mask
            state = vector.encrypt_blocks(np.ascontiguousarray(state ^ block))
        return state
