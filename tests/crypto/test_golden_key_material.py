"""Golden key material: fixed-seed keys, sub-keys and a wrapped Load Key.

Every value below was recorded with the from-scratch SHA-256/HMAC on the
product path.  Key generation and key derivation now hash on the standard
library; these pins show that the swap changed no DRBG output, no HKDF
sub-key, no RSA/EC key and no OAEP-wrapped Load Key.
"""

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecc import EcPrivateKey
from repro.crypto.kdf import derive_subkey, hkdf
from repro.crypto.rsa import RsaPrivateKey, rsa_decrypt, rsa_encrypt

SUBKEY_48 = bytes.fromhex(
    "08bee0d4e4a01e86c1abd14e01b776a0db928c245553994f371f0f0389363a13"
    "7759b333cf7502b4b6991ade2a8f6e26"
)


def test_drbg_output_before_and_after_reseed():
    drbg = HmacDrbg(b"golden-seed", b"golden-personalization")
    assert drbg.generate(48).hex() == (
        "d5121922dfeeb7948186f566d0e9b9456e47b804047009e12eeb73cc83a3e893"
        "58469db8ede6dc80f7fa97c139f53a05"
    )
    drbg.reseed(b"golden-reseed")
    assert drbg.generate(48).hex() == (
        "8cd3bb5d5e6832154f87fca11d22836240c7b6d6add48e2eeb45ae173530477d"
        "77d56e8a4c8a808acfbe594b906a1c45"
    )


def test_region_subkeys_at_16_32_and_48_bytes():
    for length in (16, 32, 48):
        assert derive_subkey(b"\x42" * 32, "region:weights", length) == SUBKEY_48[:length]


def test_hkdf_long_output():
    assert hkdf(b"golden-ikm", 100, salt=b"golden-salt", info=b"golden-info").hex() == (
        "0bd55bbd2125d638ce0ccf14f900157d3c9f711f91234d9c5191f8f7e90ee56b"
        "66566c2e7e05bc56705c395acc633f3bfb30a7d2da8b7b0f9583c906b408c4b8"
        "10c3017fb36c6d9da6c00713d33158b97e0e6c0d9298f2afef9995ffa14084f3"
        "5eb0aceb"
    )


def test_ec_key_from_seed():
    key = EcPrivateKey.from_seed(b"golden-ec-seed", label="attestation-key")
    assert key.public_key.fingerprint().hex() == (
        "5656ad17a62930ff84ebefe0694256fe74fc901c255e4f6525e94d5d30807839"
    )


def test_shield_key_and_wrapped_load_key():
    """A cloud tenant's Shield key pair and a DEK wrapped under it (Figure 2)."""
    private_key = RsaPrivateKey.from_seed(b"cloud-shield:sess-0001", bits=1024)
    assert private_key.public_key.fingerprint().hex() == (
        "32bf6d621fa8c5bbea54620f992d749c3632fe5590f0e0586f70828f92d7ac62"
    )
    data_encryption_key = b"\x5a" * 32
    wrapped = rsa_encrypt(private_key.public_key, data_encryption_key, HmacDrbg(b"golden-wrap"))
    assert wrapped.hex() == (
        "5eef8f26e80a4e3eadf0cef401c972ae805e6ea18368b2cd4a7dc33973f2121f"
        "f6717e166eb4b5ae8294dd4d96a932748e4976de1f5442f3c034ce0d9f2799f6"
        "e39621ba795f85f3f5959d43cf2be9440a4c91e45064395eefbf8fc7f79ac8be"
        "7d41ac6002224f213a0a190a1c8f81d5b50a6421916ca4d3fb9097cca03ffdfa"
    )
    assert rsa_decrypt(private_key, wrapped) == data_encryption_key
