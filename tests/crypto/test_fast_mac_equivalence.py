"""Differential conformance: the batched MAC datapath vs the scalar references.

Mirrors ``test_fast_path_equivalence`` for the authentication side: the
vectorized multi-message SHA-256 / HMAC / PMAC / CMAC in
:mod:`repro.crypto.fasthash` are only allowed to exist because they are
byte-identical to the scalar implementations in :mod:`repro.crypto.hashes`
and :mod:`repro.crypto.mac`.  A batch is one ``(n, length)`` uint8 array, so
a corpus of mixed lengths is stacked into one array per length.  Seeded
random loops sweep message counts, lengths, key lengths, and tamperings so
every failure replays deterministically.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import MacEngine
from repro.core.sealing import RegionSealer
from repro.crypto.fasthash import BatchedMac, sha256_many_array
from repro.crypto.hashes import sha256
from repro.crypto.mac import aes_cmac, aes_pmac, compute_mac, hmac_sha256
from repro.errors import CryptoError, IntegrityError
from tests.reference_sealer import ReferenceSealer


def _rand_bytes(rnd: random.Random, length: int) -> bytes:
    return bytes(rnd.randrange(256) for _ in range(length))


def _stack(messages: list) -> np.ndarray:
    """Equal-length messages as one ``(n, length)`` uint8 batch."""
    return np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(
        len(messages), len(messages[0])
    )


def _by_length(tag_array, messages: list) -> list:
    """Run ``tag_array`` once per distinct message length; tags in input order."""
    tags: list = [None] * len(messages)
    for length in {len(message) for message in messages}:
        rows = [i for i, message in enumerate(messages) if len(message) == length]
        batch = tag_array(_stack([messages[i] for i in rows]))
        for i, tag in zip(rows, batch):
            tags[i] = tag.tobytes()
    return tags


def _batched_tags(algorithm: str, key: bytes, messages: list) -> list:
    return _by_length(BatchedMac(algorithm, key).tag_many_array, messages)


# ---------------------------------------------------------------------------
# Multi-message SHA-256
# ---------------------------------------------------------------------------


def test_sha256_many_matches_scalar_on_padding_boundaries():
    rnd = random.Random(200)
    # 55/56/63/64 straddle the one-vs-two-padding-block boundary of FIPS 180-4.
    for length in (0, 1, 54, 55, 56, 63, 64, 65, 119, 120, 128, 1000):
        messages = [_rand_bytes(rnd, length) for _ in range(7)]
        digests = sha256_many_array(_stack(messages))
        assert [d.tobytes() for d in digests] == [sha256(m) for m in messages]


def test_sha256_many_random_sweep():
    rnd = random.Random(201)
    for _ in range(20):
        length = rnd.randrange(0, 600)
        count = rnd.randrange(1, 20)
        messages = [_rand_bytes(rnd, length) for _ in range(count)]
        digests = sha256_many_array(_stack(messages))
        assert [d.tobytes() for d in digests] == [sha256(m) for m in messages]


def test_sha256_many_rejects_ragged_batches_and_accepts_empty():
    assert sha256_many_array(np.empty((0, 5), dtype=np.uint8)).shape == (0, 32)
    # Mixed lengths cannot form an (n, length) array; what they do form is
    # rejected instead of hashed.
    with pytest.raises(CryptoError):
        sha256_many_array(np.array([b"a", b"ab"], dtype=object))


# ---------------------------------------------------------------------------
# Batched MACs vs scalar references (property-style sweeps)
# ---------------------------------------------------------------------------


def test_batched_hmac_matches_scalar_across_key_and_message_lengths():
    rnd = random.Random(202)
    for _ in range(25):
        # Keys longer than the SHA-256 block are themselves hashed first.
        key = _rand_bytes(rnd, rnd.choice([0, 1, 16, 32, 64, 65, 200]))
        count = rnd.randrange(1, 12)
        messages = [_rand_bytes(rnd, rnd.randrange(0, 400)) for _ in range(count)]
        assert _batched_tags("HMAC", key, messages) == [
            hmac_sha256(key, m) for m in messages
        ]


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_batched_pmac_matches_scalar_for_every_key_size(key_len):
    rnd = random.Random(300 + key_len)
    key = _rand_bytes(rnd, key_len)
    for _ in range(15):
        count = rnd.randrange(1, 10)
        messages = [_rand_bytes(rnd, rnd.randrange(0, 300)) for _ in range(count)]
        assert _batched_tags("PMAC", key, messages) == [aes_pmac(key, m) for m in messages]


def test_batched_pmac_block_boundaries():
    # 0 / partial / exactly-one / exactly-many blocks hit all PMAC branches.
    rnd = random.Random(204)
    key = _rand_bytes(rnd, 16)
    lengths = [0, 1, 15, 16, 17, 31, 32, 33, 48, 160]
    messages = [_rand_bytes(rnd, length) for length in lengths]
    assert _batched_tags("PMAC", key, messages) == [aes_pmac(key, m) for m in messages]


def test_batched_cmac_matches_scalar():
    rnd = random.Random(205)
    key = _rand_bytes(rnd, 16)
    lengths = [0, 1, 15, 16, 17, 32, 33, 64, 100]
    messages = [_rand_bytes(rnd, length) for length in lengths]
    assert _batched_tags("CMAC", key, messages) == [aes_cmac(key, m) for m in messages]
    for _ in range(10):
        batch = [_rand_bytes(rnd, rnd.randrange(0, 200)) for _ in range(rnd.randrange(1, 9))]
        assert _batched_tags("CMAC", key, batch) == [aes_cmac(key, m) for m in batch]


@pytest.mark.parametrize("algorithm", ["HMAC", "PMAC", "CMAC"])
def test_fast_mac_many_dispatch_matches_compute_mac(algorithm):
    rnd = random.Random(206)
    key = _rand_bytes(rnd, 32 if algorithm == "HMAC" else 16)
    messages = [_rand_bytes(rnd, rnd.randrange(0, 250)) for _ in range(8)]
    assert _batched_tags(algorithm, key, messages) == [
        compute_mac(algorithm, key, m) for m in messages
    ]


def test_fast_mac_many_rejects_unknown_algorithm():
    with pytest.raises(CryptoError):
        BatchedMac("GMAC", bytes(16))


@pytest.mark.parametrize("algorithm", ["HMAC", "PMAC", "CMAC"])
def test_batched_mac_state_is_reusable_across_ragged_batches(algorithm):
    """A cached BatchedMac (what MacEngine holds) stays scalar-identical over
    repeated batches of varying lengths, including the lazily grown PMAC
    offset sequence (short batch first, longer batch after)."""
    rnd = random.Random(213)
    key = _rand_bytes(rnd, 32 if algorithm == "HMAC" else 16)
    batched = BatchedMac(algorithm, key)
    for lengths in ([5, 17], [160, 0, 31], [320, 16, 160], [48]):
        messages = [_rand_bytes(rnd, length) for length in lengths]
        assert _by_length(batched.tag_many_array, messages) == [
            compute_mac(algorithm, key, m) for m in messages
        ]


# ---------------------------------------------------------------------------
# Engine level: tag_many_array / verify_many_array against compute_mac
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["HMAC", "PMAC", "CMAC"])
def test_engine_tag_many_matches_compute_mac(algorithm):
    rnd = random.Random(207)
    key = _rand_bytes(rnd, 32)
    engine = MacEngine(key, algorithm)
    mac_key = key if algorithm == "HMAC" else key[:16]
    messages = [_rand_bytes(rnd, rnd.randrange(0, 300)) for _ in range(9)]
    expected = [compute_mac(algorithm, mac_key, m)[:16] for m in messages]
    assert _by_length(engine.tag_many_array, messages) == expected
    assert [engine.tag(m) for m in messages] == expected
    for message, tag in zip(messages, expected):
        engine.verify_many_array(_stack([message]), [tag])


def test_engine_verify_many_rejects_tampering():
    rnd = random.Random(209)
    engine = MacEngine(_rand_bytes(rnd, 32), "HMAC")
    messages = _stack([_rand_bytes(rnd, 128) for _ in range(6)])
    tags = [t.tobytes() for t in engine.tag_many_array(messages)]
    for victim in (0, 3, 5):
        bad_tags = list(tags)
        flipped = bytearray(bad_tags[victim])
        flipped[rnd.randrange(16)] ^= 1 << rnd.randrange(8)
        bad_tags[victim] = bytes(flipped)
        with pytest.raises(IntegrityError):
            engine.verify_many_array(messages, bad_tags)
    with pytest.raises(IntegrityError):
        engine.verify_many_array(messages, tags[:-1])
    engine.verify_many_array(messages, tags)  # untampered batch still verifies
    engine.verify_many_array(messages[:0], [])  # empty batch is trivially valid


# ---------------------------------------------------------------------------
# Sealer level: a whole region's chunk MACs in one batch
# ---------------------------------------------------------------------------


def _sealers(mac_algorithm: str) -> tuple:
    region = RegionConfig(
        name="mac-conformance", base_address=0, size_bytes=8192, chunk_size=512,
        engine_set="es",
    )
    engine_config = EngineSetConfig(name="es", mac_algorithm=mac_algorithm)
    return (
        RegionSealer(b"\x77" * 32, region, engine_config),
        ReferenceSealer(b"\x77" * 32, region, engine_config),
    )


@pytest.mark.parametrize("mac_algorithm", ["HMAC", "PMAC", "CMAC"])
def test_batched_region_seal_tags_match_reference(mac_algorithm):
    rnd = random.Random(210)
    plaintext = _rand_bytes(rnd, 8192 - 123)  # exercises tail padding
    sealer, reference = _sealers(mac_algorithm)
    sealed = sealer.seal_region_data(plaintext)
    expected = reference.seal_region(plaintext)
    assert [c.tag for c in sealed] == [c.tag for c in expected]
    assert [bytes(c.ciphertext) for c in sealed] == [c.ciphertext for c in expected]
    # Cross round-trips: sealed on one side, unsealed on the other.
    assert reference.unseal_region(sealed, len(plaintext)) == plaintext
    assert sealer.unseal_region_data(expected, len(plaintext)) == plaintext


def test_batched_unseal_rejects_tampered_chunk():
    rnd = random.Random(211)
    sealer, reference = _sealers("HMAC")
    sealed = sealer.seal_region_data(_rand_bytes(rnd, 4096))
    victim = rnd.randrange(len(sealed))
    bad_tag = bytearray(sealed[victim].tag)
    bad_tag[rnd.randrange(16)] ^= 0x40
    sealed[victim].tag = bytes(bad_tag)
    for unseal in (sealer.unseal_region_data, reference.unseal_region):
        with pytest.raises(IntegrityError):
            unseal(sealed)


def test_batched_seal_and_unseal_with_versions_match_reference():
    rnd = random.Random(212)
    versions = [rnd.randrange(5) for _ in range(4)]
    plaintexts = [_rand_bytes(rnd, 512) for _ in range(4)]
    sealer, reference = _sealers("HMAC")
    sealed = sealer.seal_chunks_array(list(range(4)), _stack(plaintexts), versions)
    expected = reference.seal_region(b"".join(plaintexts), versions=versions)
    assert [bytes(c.ciphertext) for c in sealed] == [c.ciphertext for c in expected]
    assert [c.tag for c in sealed] == [c.tag for c in expected]
    recovered = sealer.unseal_region_data(expected, versions=versions)
    assert recovered == b"".join(plaintexts)
    with pytest.raises(IntegrityError):
        sealer.unseal_region_data(sealed, versions=[v + 1 for v in versions])
