"""Differential conformance: the vectorized AES-CTR datapath vs the scalar reference.

The vectorized path is only allowed to exist because it is *byte-identical*
to the pure-Python reference.  These tests are property-based in the
hypothesis style -- seeded random loops sweep keys, IVs, lengths, counter
offsets, and tamperings -- but use explicit ``random.Random`` seeds so every
failure replays deterministically.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import AesEngine
from repro.core.sealing import RegionSealer
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.fastaes import VectorAes
from repro.crypto.modes import ctr_keystream, ctr_transform
from repro.errors import CryptoError, IntegrityError, ShieldError
from tests.reference_sealer import ReferenceSealer


def _rand_bytes(rnd: random.Random, length: int) -> bytes:
    return bytes(rnd.randrange(256) for _ in range(length))


def _stack(rows: list) -> np.ndarray:
    """Equal-length byte strings as one ``(n, length)`` uint8 batch."""
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), len(rows[0]))


def _rows(array: np.ndarray) -> list:
    return [row.tobytes() for row in array]


# ---------------------------------------------------------------------------
# Raw block transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_encrypt_blocks_matches_scalar_for_every_key_size(key_len):
    rnd = random.Random(1000 + key_len)
    key = _rand_bytes(rnd, key_len)
    cipher = AES(key)
    vector = VectorAes(cipher)
    blocks = _rand_bytes(rnd, 37 * BLOCK_SIZE)
    batch = np.frombuffer(blocks, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    fast = vector.encrypt_blocks(batch)
    for i in range(batch.shape[0]):
        scalar = cipher.encrypt_block(blocks[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
        assert bytes(fast[i].tobytes()) == scalar


def test_vector_aes_accepts_raw_key_bytes():
    key = bytes(range(16))
    data = b"attack at dawn!!" * 3
    iv = bytes(12)
    assert VectorAes(key).ctr_transform(iv, data) == ctr_transform(AES(key), iv, data)


# ---------------------------------------------------------------------------
# CTR transform: random lengths, offsets, counter wraparound
# ---------------------------------------------------------------------------


def test_ctr_transform_equivalence_random_sweep():
    rnd = random.Random(42)
    for _ in range(80):
        key = _rand_bytes(rnd, rnd.choice([16, 24, 32]))
        iv = _rand_bytes(rnd, 12)
        length = rnd.randrange(0, 700)
        counter = rnd.choice([0, 1, 7, 255, 2**31, 2**32 - 2, 2**32 - 1])
        data = _rand_bytes(rnd, length)
        cipher = AES(key)
        assert VectorAes(cipher).ctr_transform(iv, data, counter) == ctr_transform(
            cipher, iv, data, counter
        )


def test_ctr_keystream_equivalence_and_partial_tail():
    rnd = random.Random(7)
    cipher = AES(_rand_bytes(rnd, 16))
    iv = _rand_bytes(rnd, 12)
    vector = VectorAes(cipher)
    for length in (0, 1, 15, 16, 17, 100, 512, 513):
        assert vector.keystream(iv, length).tobytes() == ctr_keystream(cipher, iv, length)


def test_ctr_roundtrip_through_mixed_paths():
    """Encrypt on one path, decrypt on the other, in both directions."""
    rnd = random.Random(11)
    key = _rand_bytes(rnd, 32)
    iv = _rand_bytes(rnd, 12)
    data = _rand_bytes(rnd, 1234)
    cipher = AES(key)
    vector = VectorAes(cipher)
    assert ctr_transform(cipher, iv, vector.ctr_transform(iv, data)) == data
    assert vector.ctr_transform(iv, ctr_transform(cipher, iv, data)) == data


def test_fast_path_rejects_bad_iv():
    with pytest.raises(CryptoError):
        VectorAes(AES(bytes(16))).ctr_transform(b"short", b"data")


# ---------------------------------------------------------------------------
# Batched chunk transform
# ---------------------------------------------------------------------------


def test_ctr_transform_many_matches_per_chunk_scalar():
    rnd = random.Random(13)
    key = _rand_bytes(rnd, 16)
    cipher = AES(key)
    vector = VectorAes(cipher)
    for chunk_size in (16, 48, 512):
        ivs = [_rand_bytes(rnd, 12) for _ in range(9)]
        datas = [_rand_bytes(rnd, chunk_size) for _ in range(9)]
        batch = _rows(vector.ctr_transform_array(_stack(ivs), _stack(datas)))
        for iv, data, out in zip(ivs, datas, batch):
            assert out == ctr_transform(cipher, iv, data)


def test_ctr_transform_many_validates_inputs():
    vector = VectorAes(bytes(16))
    with pytest.raises(CryptoError):  # one IV for two chunk rows
        vector.ctr_transform_array(_stack([bytes(12)]), _stack([b"a", b"b"]))
    with pytest.raises(CryptoError):  # IVs must be 12 bytes
        vector.ctr_transform_array(_stack([bytes(8)]), _stack([b"a"]))
    with pytest.raises(CryptoError):  # chunks come as rows, not a flat buffer
        vector.ctr_transform_array(_stack([bytes(12)]), np.zeros(16, dtype=np.uint8))
    empty = vector.ctr_transform_array(
        np.empty((0, 12), dtype=np.uint8), np.empty((0, 16), dtype=np.uint8)
    )
    assert empty.shape == (0, 16)


# ---------------------------------------------------------------------------
# Engine and sealer level: ciphertext AND tags must match the references
# ---------------------------------------------------------------------------


def _sealers(mac_algorithm: str = "HMAC") -> tuple:
    region = RegionConfig(
        name="conformance", base_address=0, size_bytes=4096, chunk_size=256,
        engine_set="es",
    )
    engine_config = EngineSetConfig(name="es", mac_algorithm=mac_algorithm)
    return (
        RegionSealer(b"\x55" * 32, region, engine_config),
        ReferenceSealer(b"\x55" * 32, region, engine_config),
    )


@pytest.mark.parametrize("key_bits", [128, 256])
def test_engine_matches_reference_ctr_transform(key_bits):
    rnd = random.Random(98)
    key = _rand_bytes(rnd, key_bits // 8)
    engine = AesEngine(key, key_bits=key_bits)
    cipher = AES(key)
    ivs = [_rand_bytes(rnd, 12) for _ in range(5)]
    chunks = [_rand_bytes(rnd, 256) for _ in range(5)]
    expected = [ctr_transform(cipher, iv, c) for iv, c in zip(ivs, chunks)]
    assert [engine.encrypt(iv, c) for iv, c in zip(ivs, chunks)] == expected
    assert _rows(engine.encrypt_many_array(_stack(ivs), _stack(chunks))) == expected
    assert _rows(engine.decrypt_many_array(_stack(ivs), _stack(expected))) == chunks


@pytest.mark.parametrize("mac_algorithm", ["HMAC", "PMAC", "CMAC"])
def test_sealed_chunks_match_reference(mac_algorithm):
    rnd = random.Random(99)
    sealer, reference = _sealers(mac_algorithm)
    for chunk_index in range(6):
        plaintext = _rand_bytes(rnd, 256)
        version = rnd.randrange(4)
        sealed = sealer.seal_chunk(chunk_index, plaintext, version)
        expected = reference.seal(chunk_index, plaintext, version)
        assert sealed.ciphertext == expected.ciphertext
        assert sealed.tag == expected.tag
        # Cross-unsealing: each side accepts the other's chunks.
        assert reference.unseal(
            chunk_index, sealed.ciphertext, sealed.tag, version
        ) == plaintext
        assert sealer.unseal_chunk(
            chunk_index, expected.ciphertext, expected.tag, version
        ) == plaintext


def test_region_batch_sealing_matches_reference():
    rnd = random.Random(101)
    plaintext = _rand_bytes(rnd, 4096 - 77)  # exercises tail padding
    sealer, reference = _sealers()
    sealed = sealer.seal_region_data(plaintext)
    expected = reference.seal_region(plaintext)
    assert [bytes(c.ciphertext) for c in sealed] == [c.ciphertext for c in expected]
    assert [c.tag for c in sealed] == [c.tag for c in expected]
    assert sealer.unseal_region_data(expected, len(plaintext)) == plaintext
    assert reference.unseal_region(sealed, len(plaintext)) == plaintext


def test_tampered_tags_fail_on_sealer_and_reference():
    rnd = random.Random(103)
    sealer, reference = _sealers()
    sealed = sealer.seal_chunk(3, _rand_bytes(rnd, 256))
    for tamper in range(10):
        position = rnd.randrange(len(sealed.tag))
        bad_tag = bytearray(sealed.tag)
        bad_tag[position] ^= 1 << rnd.randrange(8)
        for unseal in (sealer.unseal_chunk, reference.unseal):
            with pytest.raises(IntegrityError):
                unseal(3, sealed.ciphertext, bytes(bad_tag))


def test_tampered_ciphertext_fails_on_sealer_and_reference():
    rnd = random.Random(104)
    sealer, reference = _sealers()
    sealed = reference.seal(0, _rand_bytes(rnd, 256))
    bad = bytearray(sealed.ciphertext)
    bad[rnd.randrange(len(bad))] ^= 0x80
    for unseal in (sealer.unseal_chunk, reference.unseal):
        with pytest.raises(IntegrityError):
            unseal(0, bytes(bad), sealed.tag)


def test_engine_batch_rejects_mismatched_lists():
    engine = AesEngine(bytes(16))
    with pytest.raises(ShieldError):
        engine.encrypt_many_array(_stack([bytes(12)]), _stack([b"a" * 16, b"b" * 16]))
    with pytest.raises(ShieldError):
        engine.decrypt_many_array(_stack([bytes(12), bytes(12)]), _stack([b"a" * 16]))
