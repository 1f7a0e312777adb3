"""Key-derivation functions: HKDF (RFC 5869) and a simple counter-mode KDF.

The SPB firmware derives the Attestation Key pair from a signature over the
Security Kernel hash (Section 4 of the paper, "uses the resulting value to
seed a key generator"); HKDF is the key generator in this reproduction.  The
Shield also derives per-region sub-keys from the Data Encryption Key so that
two engine sets never share an (IV, key) pair.
"""

from __future__ import annotations

from repro.analysis.annotations import secret
from repro.crypto.fasthash import hmac_sha256


@secret
def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: return a 32-byte pseudo-random key."""
    if not salt:
        salt = b"\x00" * 32
    return hmac_sha256(salt, input_key_material)


@secret
def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    if length > 255 * 32:
        raise ValueError("HKDF-Expand output too long")
    output = b""
    previous = b""
    counter = 1
    while len(output) < length:
        previous = hmac_sha256(pseudo_random_key, previous + info + bytes([counter]))
        output += previous
        counter += 1
    return output[:length]


@secret
def hkdf(
    input_key_material: bytes,
    length: int,
    salt: bytes = b"",
    info: bytes = b"",
) -> bytes:
    """Full HKDF (extract then expand)."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)


@secret
def derive_subkey(master_key: bytes, label: str, length: int = 32) -> bytes:
    """Derive a named sub-key from ``master_key`` (used for per-region keys)."""
    return hkdf(master_key, length, salt=b"shef-subkey", info=label.encode("utf-8"))
