"""Vectorized AES-CTR: the Shield engines' one AES datapath.

:class:`~repro.crypto.aes.AES` transforms one 16-byte block per Python call,
which makes the functional datapath the bottleneck of every large simulation.
This module evaluates the *same* cipher over a whole batch of blocks at once
with numpy: the state becomes an ``(n_blocks, 16)`` uint8 array, S-box and
GF(2^8) multiplications become table lookups, and ShiftRows becomes a fixed
column permutation.  A 4 KiB chunk is 256 blocks in one pass; a 1 MiB region
is 65,536.

The implementation reuses the scalar cipher's key schedule verbatim, so the
output is byte-for-byte identical to :func:`repro.crypto.modes.ctr_transform`
for every key size, IV, length, and initial counter -- a property the
differential-conformance suite (``tests/crypto/test_fast_path_equivalence``)
checks continuously.  :class:`~repro.core.engines.AesEngine` runs every call
on it; :mod:`repro.crypto.aes` and :mod:`repro.crypto.modes` stay as the
from-scratch references.  There are two entry points:
:meth:`VectorAes.ctr_transform` for one message and
:meth:`VectorAes.ctr_transform_array` for a batch, which is always one
``(n, chunk_len)`` uint8 array.  Only CTR mode is provided: it is the only
mode on the Shield's per-chunk hot path, and it needs just the forward block
transform.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import hot_path, scalar_reference
from repro.crypto.aes import AES, BLOCK_SIZE, INV_SBOX, SBOX, _MUL2, _MUL3
from repro.errors import CryptoError

__all__ = ["VectorAes"]

# Lookup tables as numpy arrays (shared, read-only).
_SBOX_NP = np.array(SBOX, dtype=np.uint8)
_INV_SBOX_NP = np.array(INV_SBOX, dtype=np.uint8)
_MUL2_NP = np.array(_MUL2, dtype=np.uint8)
_MUL3_NP = np.array(_MUL3, dtype=np.uint8)

# The scalar cipher keeps its state row-major (``state[4r + c]``) while blocks
# are column-major (``block[4c + r]``); the 4x4 transpose converts between the
# two and is its own inverse.
_TRANSPOSE = np.array([4 * c + r for r in range(4) for c in range(4)], dtype=np.intp)

# ShiftRows in state layout: row r rotates left by r.
_SHIFT_ROWS = np.array(
    [4 * r + ((c + r) % 4) for r in range(4) for c in range(4)], dtype=np.intp
)


class VectorAes:
    """Batched AES forward transform sharing the scalar cipher's key schedule."""

    def __init__(self, cipher: AES | bytes):
        if not isinstance(cipher, AES):
            cipher = AES(cipher)
        self.rounds = cipher.rounds
        # Round keys converted once into state layout: (rounds + 1, 16) uint8.
        self._round_keys = np.array(cipher._round_keys, dtype=np.uint8)[:, _TRANSPOSE]

    # -- block batch transform ----------------------------------------------------

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 array of blocks; returns the same shape."""
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise CryptoError("encrypt_blocks expects an (n, 16) array")
        state = blocks[:, _TRANSPOSE] ^ self._round_keys[0]
        for round_index in range(1, self.rounds):
            state = _SBOX_NP[state]
            state = state[:, _SHIFT_ROWS]
            state = self._mix_columns(state)
            state ^= self._round_keys[round_index]
        state = _SBOX_NP[state]
        state = state[:, _SHIFT_ROWS]
        state ^= self._round_keys[self.rounds]
        return state[:, _TRANSPOSE]

    @staticmethod
    def _mix_columns(state: np.ndarray) -> np.ndarray:
        s = state.reshape(-1, 4, 4)
        a0, a1, a2, a3 = s[:, 0, :], s[:, 1, :], s[:, 2, :], s[:, 3, :]
        out = np.empty_like(s)
        out[:, 0, :] = _MUL2_NP[a0] ^ _MUL3_NP[a1] ^ a2 ^ a3
        out[:, 1, :] = a0 ^ _MUL2_NP[a1] ^ _MUL3_NP[a2] ^ a3
        out[:, 2, :] = a0 ^ a1 ^ _MUL2_NP[a2] ^ _MUL3_NP[a3]
        out[:, 3, :] = _MUL3_NP[a0] ^ a1 ^ a2 ^ _MUL2_NP[a3]
        return out.reshape(-1, 16)

    # -- CTR mode -----------------------------------------------------------------

    def _counter_blocks(self, ivs: np.ndarray, counters: np.ndarray) -> np.ndarray:
        """Assemble ``iv || counter`` blocks from (n, 12) IVs and n counters."""
        blocks = np.empty((len(counters), BLOCK_SIZE), dtype=np.uint8)
        blocks[:, :12] = ivs
        # Match the scalar path: the 32-bit counter wraps modulo 2^32.
        blocks[:, 12:] = (
            (counters & 0xFFFFFFFF).astype(">u4").view(np.uint8).reshape(-1, 4)
        )
        return blocks

    def keystream(self, iv: bytes, length: int, initial_counter: int = 0) -> np.ndarray:
        """``length`` bytes of CTR keystream as a uint8 array."""
        if len(iv) != 12:
            raise CryptoError("CTR IV must be 12 bytes (96 bits)")
        num_blocks = -(-length // BLOCK_SIZE)
        if num_blocks == 0:
            return np.empty(0, dtype=np.uint8)
        counters = initial_counter + np.arange(num_blocks, dtype=np.uint64)
        ivs = np.broadcast_to(np.frombuffer(iv, dtype=np.uint8), (num_blocks, 12))
        stream = self.encrypt_blocks(self._counter_blocks(ivs, counters))
        return stream.reshape(-1)[:length]

    def ctr_transform(self, iv: bytes, data: bytes, initial_counter: int = 0) -> bytes:
        """Encrypt or decrypt ``data`` in CTR mode (the operation is symmetric)."""
        if not data:
            return b""
        stream = self.keystream(iv, len(data), initial_counter)
        return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()

    @hot_path
    @scalar_reference("repro.crypto.modes:ctr_transform")
    def ctr_transform_array(
        self, ivs: np.ndarray, data: np.ndarray, initial_counter: int = 0
    ) -> np.ndarray:
        """CTR-transform an ``(n, chunk_len)`` uint8 array under ``(n, 12)`` IVs.

        The Shield's batch shape: with ``n`` chunks of ``m`` blocks each, all
        ``n * m`` counter blocks go through :meth:`encrypt_blocks` together,
        and input and output stay numpy arrays end-to-end, so a whole-region
        seal allocates one keystream and one output buffer.
        """
        if ivs.ndim != 2 or ivs.shape[1] != 12:
            raise CryptoError("ctr_transform_array expects an (n, 12) IV array")
        if data.ndim != 2 or data.shape[0] != ivs.shape[0]:
            raise CryptoError("ctr_transform_array needs one IV per chunk row")
        num_chunks, chunk_len = data.shape
        if num_chunks == 0 or chunk_len == 0:
            return np.empty_like(data)
        blocks_per_chunk = -(-chunk_len // BLOCK_SIZE)
        counters = initial_counter + np.tile(
            np.arange(blocks_per_chunk, dtype=np.uint64), num_chunks
        )
        iv_blocks = np.repeat(ivs, blocks_per_chunk, axis=0)
        stream = self.encrypt_blocks(self._counter_blocks(iv_blocks, counters))
        stream = stream.reshape(num_chunks, blocks_per_chunk * BLOCK_SIZE)[:, :chunk_len]
        return data ^ stream
