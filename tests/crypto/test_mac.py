"""MAC tests: HMAC (RFC 4231), CMAC (RFC 4493), PMAC properties, dispatch."""

import hashlib
import hmac as std_hmac

import pytest

from repro.crypto import fasthash
from repro.crypto.mac import (
    MAC_ALGORITHMS,
    MAC_TAG_SIZES,
    aes_cmac,
    aes_pmac,
    compute_mac,
    constant_time_equal,
    hmac_sha256,
    verify_aes_cmac,
    verify_aes_pmac,
    verify_hmac_sha256,
    verify_mac,
)
from repro.errors import IntegrityError

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def test_hmac_rfc4231_case_1():
    key = b"\x0b" * 20
    expected = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    assert hmac_sha256(key, b"Hi There").hex() == expected


def test_hmac_rfc4231_case_2():
    expected = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    assert hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex() == expected


@pytest.mark.parametrize("key_len", [0, 1, 32, 64, 65, 200])
def test_hmac_matches_stdlib_for_any_key_length(key_len):
    key = bytes(range(key_len % 256))[:key_len] or b""
    message = b"shield register command"
    assert hmac_sha256(key, message) == std_hmac.new(key, message, hashlib.sha256).digest()
    assert fasthash.hmac_sha256(key, message) == hmac_sha256(key, message)


def test_hmac_verify_accepts_and_rejects():
    tag = hmac_sha256(b"k", b"m")
    verify_hmac_sha256(b"k", b"m", tag)
    with pytest.raises(IntegrityError):
        verify_hmac_sha256(b"k", b"m2", tag)


CMAC_VECTORS = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"), "070a16b46b4d4144f79bdd9dd04a287c"),
    (
        bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        ),
        "dfa66747de9ae63030ca32611497c827",
    ),
    (
        bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
        ),
        "51f0bebf7e3b9d92fc49741779363cfe",
    ),
]


@pytest.mark.parametrize("message,expected", CMAC_VECTORS)
def test_cmac_rfc4493_vectors(message, expected):
    assert aes_cmac(RFC4493_KEY, message).hex() == expected


def test_cmac_verify():
    tag = aes_cmac(RFC4493_KEY, b"firmware image")
    verify_aes_cmac(RFC4493_KEY, b"firmware image", tag)
    with pytest.raises(IntegrityError):
        verify_aes_cmac(RFC4493_KEY, b"firmware image!", tag)


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 32, 100, 257])
def test_pmac_roundtrip_various_lengths(length):
    key = b"p" * 16
    message = bytes((i * 11) % 256 for i in range(length))
    tag = aes_pmac(key, message)
    assert len(tag) == 16
    verify_aes_pmac(key, message, tag)


def test_pmac_detects_modification():
    key = b"p" * 16
    tag = aes_pmac(key, b"weights chunk data")
    with pytest.raises(IntegrityError):
        verify_aes_pmac(key, b"weights chunk dat!", tag)


def test_pmac_distinguishes_block_order():
    key = b"p" * 16
    a, b = b"A" * 16, b"B" * 16
    assert aes_pmac(key, a + b) != aes_pmac(key, b + a)


def test_pmac_key_sensitivity():
    assert aes_pmac(b"k" * 16, b"msg") != aes_pmac(b"j" * 16, b"msg")


def test_mac_dispatch_table_consistency():
    assert set(MAC_ALGORITHMS) == set(MAC_TAG_SIZES) == {"HMAC", "PMAC", "CMAC"}
    for name in MAC_ALGORITHMS:
        tag = compute_mac(name, b"k" * 16, b"message")
        assert len(tag) == MAC_TAG_SIZES[name]
        verify_mac(name, b"k" * 16, b"message", tag)


def test_mac_dispatch_unknown_algorithm():
    with pytest.raises(IntegrityError):
        compute_mac("GMAC", b"k" * 16, b"m")


def test_verify_mac_rejects_wrong_tag():
    with pytest.raises(IntegrityError):
        verify_mac("PMAC", b"k" * 16, b"m", b"\x00" * 16)


def test_constant_time_equal():
    assert constant_time_equal(b"same", b"same")
    assert not constant_time_equal(b"same", b"diff")
    assert not constant_time_equal(b"short", b"longer")
