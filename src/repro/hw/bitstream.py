"""Bitstream containers: the unit of deployment for FPGA logic.

In the real flow an accelerator design is compiled by Vivado into a partial
bitstream, encrypted with the IP Vendor's Bitstream Encryption Key, and
distributed to Data Owners.  What the ShEF protocols care about is:

* the bitstream is an opaque byte container whose *encrypted* form is hashed
  during attestation (``H(Enc_BitstrKey(Accel))`` in Figure 3),
* the plaintext embeds sensitive IP and the Shield's private Shield Encryption
  Key, so it must only ever be decrypted inside the device, and
* the Security Kernel must be able to authenticate it before loading.

:class:`Bitstream` is the plaintext container (accelerator spec + Shield
configuration + embedded Shield private key) and :class:`EncryptedBitstream`
is the distributable, authenticated ciphertext.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto.aes import AES
from repro.crypto.fasthash import sha256
from repro.crypto.kdf import derive_subkey
from repro.crypto.mac import aes_cmac, constant_time_equal
from repro.crypto.modes import ctr_transform
from repro.errors import BitstreamError

_MAGIC = b"SHEFBITS"
_FORMAT_VERSION = 1


@dataclass
class Bitstream:
    """A plaintext partial bitstream.

    Parameters
    ----------
    accelerator_name:
        Human-readable accelerator identifier (e.g. ``"dnnweaver"``).
    vendor:
        The IP Vendor that produced the design.
    accelerator_spec:
        JSON-serializable description of the accelerator logic (the simulator
        re-instantiates the accelerator model from this).
    shield_config:
        JSON-serializable Shield configuration dictionary.
    shield_private_key_blob:
        Serialized private Shield Encryption Key embedded in the Shield logic.
    resources:
        Estimated LUT/REG/BRAM usage of the accelerator logic itself (the
        Shield's own area comes from the area model).
    """

    accelerator_name: str
    vendor: str
    accelerator_spec: dict = field(default_factory=dict)
    shield_config: dict = field(default_factory=dict)
    shield_private_key_blob: bytes = b""
    resources: dict = field(default_factory=dict)

    def serialize(self) -> bytes:
        """Canonical byte encoding (stable across runs for hashing)."""
        header = {
            "accelerator_name": self.accelerator_name,
            "vendor": self.vendor,
            "accelerator_spec": self.accelerator_spec,
            "shield_config": self.shield_config,
            "resources": self.resources,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return (
            _MAGIC
            + _FORMAT_VERSION.to_bytes(2, "big")
            + len(header_bytes).to_bytes(4, "big")
            + header_bytes
            + len(self.shield_private_key_blob).to_bytes(4, "big")
            + self.shield_private_key_blob
        )

    @staticmethod
    def deserialize(data: bytes) -> "Bitstream":
        """Parse a container produced by :meth:`serialize`."""
        if len(data) < 14 or data[:8] != _MAGIC:
            raise BitstreamError("not a ShEF bitstream container")
        version = int.from_bytes(data[8:10], "big")
        if version != _FORMAT_VERSION:
            raise BitstreamError(f"unsupported bitstream format version {version}")
        header_len = int.from_bytes(data[10:14], "big")
        header_end = 14 + header_len
        if header_end + 4 > len(data):
            raise BitstreamError("truncated bitstream header")
        try:
            header = json.loads(data[14:header_end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BitstreamError("corrupt bitstream header") from exc
        key_len = int.from_bytes(data[header_end : header_end + 4], "big")
        key_blob = data[header_end + 4 : header_end + 4 + key_len]
        if len(key_blob) != key_len:
            raise BitstreamError("truncated embedded key blob")
        return Bitstream(
            accelerator_name=header["accelerator_name"],
            vendor=header["vendor"],
            accelerator_spec=header["accelerator_spec"],
            shield_config=header["shield_config"],
            shield_private_key_blob=key_blob,
            resources=header.get("resources", {}),
        )

    def measurement(self) -> bytes:
        """SHA-256 over the plaintext container."""
        return sha256(self.serialize())


@dataclass(frozen=True)
class EncryptedBitstream:
    """The distributable form: AES-CTR ciphertext + CMAC tag over it."""

    ciphertext: bytes
    iv: bytes
    tag: bytes
    accelerator_name: str
    vendor: str

    def serialize(self) -> bytes:
        """Flat wire form; this is exactly what the attestation hash covers."""
        meta = json.dumps(
            {"accelerator_name": self.accelerator_name, "vendor": self.vendor},
            sort_keys=True,
        ).encode("utf-8")
        return (
            _MAGIC
            + b"ENC1"
            + len(meta).to_bytes(4, "big")
            + meta
            + self.iv
            + self.tag
            + len(self.ciphertext).to_bytes(8, "big")
            + self.ciphertext
        )

    def measurement(self) -> bytes:
        """``H(Enc_BitstrKey(Accelerator))`` from the attestation protocol."""
        return sha256(self.serialize())


def encrypt_bitstream(bitstream: Bitstream, bitstream_key: bytes, iv: bytes) -> EncryptedBitstream:
    """Encrypt and authenticate a plaintext bitstream under the Bitstream Encryption Key."""
    if len(iv) != 12:
        raise BitstreamError("bitstream IV must be 12 bytes")
    plaintext = bitstream.serialize()
    enc_key = derive_subkey(bitstream_key, "bitstream-encrypt", len(bitstream_key))
    mac_key = derive_subkey(bitstream_key, "bitstream-mac", 16)
    ciphertext = ctr_transform(AES(enc_key), iv, plaintext)
    tag = aes_cmac(mac_key, iv + ciphertext)
    return EncryptedBitstream(
        ciphertext=ciphertext,
        iv=iv,
        tag=tag,
        accelerator_name=bitstream.accelerator_name,
        vendor=bitstream.vendor,
    )


def decrypt_bitstream(encrypted: EncryptedBitstream, bitstream_key: bytes) -> Bitstream:
    """Authenticate and decrypt an encrypted bitstream; raises on tampering."""
    enc_key = derive_subkey(bitstream_key, "bitstream-encrypt", len(bitstream_key))
    mac_key = derive_subkey(bitstream_key, "bitstream-mac", 16)
    expected_tag = aes_cmac(mac_key, encrypted.iv + encrypted.ciphertext)
    if not constant_time_equal(expected_tag, encrypted.tag):
        raise BitstreamError("bitstream authentication failed: wrong key or tampering")
    plaintext = ctr_transform(AES(enc_key), encrypted.iv, encrypted.ciphertext)
    return Bitstream.deserialize(plaintext)
