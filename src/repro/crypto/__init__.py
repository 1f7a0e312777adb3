"""Cryptographic substrate for the ShEF reproduction.

AES (plus ECB/CBC/CTR modes), CMAC/PMAC, RSA, P-256 ECDSA/ECDH, HKDF,
HMAC-DRBG, and an encrypt-then-MAC authenticated cipher are implemented from
scratch; they are the primitives that the simulated FPGA hardware, the
secure-boot chain, the attestation protocol, and the Shield build upon.

Which SHA-256 runs where:

* :func:`sha256` and :func:`hmac_sha256` exported here are the stdlib-backed
  ones from :mod:`repro.crypto.fasthash`; key generation, key derivation,
  measurements and Merkle nodes hash with them;
* the Shield's chunk MACs run on the numpy
  :class:`~repro.crypto.fasthash.BatchedMac`;
* the from-scratch :mod:`repro.crypto.hashes` and :mod:`repro.crypto.mac` are
  byte-identical references that the parity suites compare against, and
  :func:`compute_mac` still serves single-message HMAC tags from them.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.authenc import AuthenticatedCipher, AuthenticatedMessage
from repro.crypto.drbg import HmacDrbg, drbg_from_label
from repro.crypto.ecc import (
    EcPrivateKey,
    EcPublicKey,
    derive_session_key,
    ecdh_shared_secret,
    ecdsa_sign,
    ecdsa_verify,
    ecdsa_verify_strict,
)
from repro.crypto.fasthash import hmac_sha256, sha256
from repro.crypto.kdf import derive_subkey, hkdf
from repro.crypto.keys import (
    AesDeviceKey,
    AttestationKeyPair,
    BitstreamKey,
    DataEncryptionKey,
    DeviceKeySet,
    KeyRing,
    LoadKey,
    SessionKey,
    ShieldEncryptionKeyPair,
    SymmetricKey,
)
from repro.crypto.mac import (
    aes_cmac,
    aes_pmac,
    compute_mac,
    constant_time_equal,
    verify_mac,
)
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_decrypt,
    ctr_encrypt,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
    xor_bytes,
)
from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    rsa_decrypt,
    rsa_encrypt,
    rsa_sign,
    rsa_verify,
    rsa_verify_strict,
)

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "AuthenticatedCipher",
    "AuthenticatedMessage",
    "HmacDrbg",
    "drbg_from_label",
    "EcPrivateKey",
    "EcPublicKey",
    "derive_session_key",
    "ecdh_shared_secret",
    "ecdsa_sign",
    "ecdsa_verify",
    "ecdsa_verify_strict",
    "sha256",
    "derive_subkey",
    "hkdf",
    "AesDeviceKey",
    "AttestationKeyPair",
    "BitstreamKey",
    "DataEncryptionKey",
    "DeviceKeySet",
    "KeyRing",
    "LoadKey",
    "SessionKey",
    "ShieldEncryptionKeyPair",
    "SymmetricKey",
    "aes_cmac",
    "aes_pmac",
    "compute_mac",
    "constant_time_equal",
    "hmac_sha256",
    "verify_mac",
    "cbc_decrypt",
    "cbc_encrypt",
    "ctr_decrypt",
    "ctr_encrypt",
    "ctr_transform",
    "ecb_decrypt",
    "ecb_encrypt",
    "xor_bytes",
    "RsaPrivateKey",
    "RsaPublicKey",
    "rsa_decrypt",
    "rsa_encrypt",
    "rsa_sign",
    "rsa_verify",
    "rsa_verify_strict",
]
