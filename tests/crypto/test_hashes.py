"""SHA-256 tests: NIST vectors, hashlib equivalence, incremental hashing."""

import hashlib

import pytest

from repro.crypto import fasthash
from repro.crypto.hashes import SHA256, sha256, sha256_hex, truncated_hash


def test_empty_message_vector():
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_abc_vector():
    assert sha256_hex(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_two_block_vector():
    message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    assert sha256_hex(message) == (
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    )


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000])
def test_matches_hashlib_at_padding_boundaries(length):
    message = bytes((i * 13 + 7) % 256 for i in range(length))
    assert sha256(message) == hashlib.sha256(message).digest()
    assert fasthash.sha256(message) == sha256(message)


def test_incremental_update_equals_one_shot():
    message = b"the security kernel measures every boot component" * 20
    incremental = SHA256()
    for offset in range(0, len(message), 17):
        incremental.update(message[offset : offset + 17])
    assert incremental.digest() == sha256(message)


def test_digest_does_not_consume_state():
    hasher = SHA256(b"part one")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b" part two")
    assert hasher.digest() == sha256(b"part one part two")


def test_copy_is_independent():
    original = SHA256(b"shared prefix")
    clone = original.copy()
    clone.update(b" plus suffix")
    assert original.digest() == sha256(b"shared prefix")
    assert clone.digest() == sha256(b"shared prefix plus suffix")


def test_update_returns_self_for_chaining():
    assert SHA256().update(b"a").update(b"b").digest() == sha256(b"ab")


def test_truncated_hash():
    assert truncated_hash(b"device", 8) == sha256(b"device")[:8]
    with pytest.raises(ValueError):
        truncated_hash(b"device", 0)
    with pytest.raises(ValueError):
        truncated_hash(b"device", 33)


def test_distinct_messages_distinct_digests():
    assert sha256(b"bitstream-a") != sha256(b"bitstream-b")
