"""RSA key generation, signing, and encryption.

Xilinx devices authenticate bitstreams with RSA while Intel devices use ECDSA
(Section 2.2 of the paper); this module provides the RSA side so both device
profiles can be modelled.  The Shield Encryption Key -- the asymmetric key the
IP Vendor embeds in each Shield so the Data Owner can wrap Data Encryption
Keys into Load Keys -- is also an RSA key by default.

Signing uses a simplified full-domain-hash padding (SHA-256 digest, fixed
prefix, padded to the modulus size) and encryption uses a simplified OAEP
construction with SHA-256 as the mask-generation hash.  Key sizes default to
1024 bits and the construction is parameterized for larger moduli.  Key
generation draws its candidates from an HMAC-DRBG over the stdlib HMAC
(:mod:`repro.crypto.fasthash`), so its cost is mostly the Miller-Rabin
``pow`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fasthash import sha256
from repro.errors import CryptoError, InvalidKeyError, SignatureError

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


def _is_probable_prime(candidate: int, rng: HmacDrbg, rounds: int = 20) -> bool:
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Miller-Rabin.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: HmacDrbg) -> int:
    while True:
        candidate = rng.random_int(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (modulus, public exponent)."""

    modulus: int
    exponent: int

    @property
    def size_bytes(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def encode(self) -> bytes:
        """Length-prefixed big-endian encoding of (n, e)."""
        n_bytes = self.modulus.to_bytes(self.size_bytes, "big")
        e_bytes = self.exponent.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

    @staticmethod
    def decode(data: bytes) -> "RsaPublicKey":
        if len(data) < 6:
            raise InvalidKeyError("truncated RSA public key encoding")
        n_len = int.from_bytes(data[:2], "big")
        if len(data) != 2 + n_len + 4:
            raise InvalidKeyError("malformed RSA public key encoding")
        modulus = int.from_bytes(data[2 : 2 + n_len], "big")
        exponent = int.from_bytes(data[2 + n_len :], "big")
        return RsaPublicKey(modulus, exponent)

    def fingerprint(self) -> bytes:
        """SHA-256 of the encoded public key (published via the CA in the paper)."""
        return sha256(self.encode())


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with its public counterpart."""

    modulus: int
    public_exponent: int
    private_exponent: int

    def __repr__(self) -> str:  # Never print the private exponent.
        return (
            f"RsaPrivateKey(bits={self.modulus.bit_length()}, "
            f"fingerprint={self.public_key.fingerprint().hex()[:16]})"
        )

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.modulus, self.public_exponent)

    @property
    def size_bytes(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    @staticmethod
    def generate(rng: HmacDrbg, bits: int = 1024, exponent: int = 65537) -> "RsaPrivateKey":
        """Generate an RSA key pair of ``bits`` modulus bits."""
        if bits < 512:
            raise InvalidKeyError("RSA modulus must be at least 512 bits")
        while True:
            p = _generate_prime(bits // 2, rng)
            q = _generate_prime(bits - bits // 2, rng)
            if p == q:
                continue
            modulus = p * q
            phi = (p - 1) * (q - 1)
            if phi % exponent == 0:
                continue
            try:
                private_exponent = pow(exponent, -1, phi)
            except ValueError:
                continue
            return RsaPrivateKey(modulus, exponent, private_exponent)

    @staticmethod
    def from_seed(seed: bytes, bits: int = 1024, label: str = "rsa-key") -> "RsaPrivateKey":
        """Deterministically derive an RSA key pair from seed material."""
        return RsaPrivateKey.generate(HmacDrbg(seed, label.encode("utf-8")), bits)

    def encode(self) -> bytes:
        """Length-prefixed big-endian encoding of (n, e, d).

        Used to embed the private Shield Encryption Key inside a bitstream;
        the plaintext bitstream only ever exists inside the device model.
        """
        size = self.size_bytes
        n_bytes = self.modulus.to_bytes(size, "big")
        d_bytes = self.private_exponent.to_bytes(size, "big")
        return (
            size.to_bytes(2, "big")
            + n_bytes
            + self.public_exponent.to_bytes(4, "big")
            + d_bytes
        )

    @staticmethod
    def decode(data: bytes) -> "RsaPrivateKey":
        """Parse an encoding produced by :meth:`encode`."""
        if len(data) < 2:
            raise InvalidKeyError("truncated RSA private key encoding")
        size = int.from_bytes(data[:2], "big")
        expected = 2 + size + 4 + size
        if len(data) != expected:
            raise InvalidKeyError("malformed RSA private key encoding")
        modulus = int.from_bytes(data[2 : 2 + size], "big")
        exponent = int.from_bytes(data[2 + size : 6 + size], "big")
        private_exponent = int.from_bytes(data[6 + size :], "big")
        return RsaPrivateKey(modulus, exponent, private_exponent)


# ---------------------------------------------------------------------------
# Signatures (hash-then-pad).
# ---------------------------------------------------------------------------

_SIGNATURE_PREFIX = b"shef-rsa-fdh-sha256"


def _signature_representative(message: bytes, size: int) -> int:
    digest = sha256(_SIGNATURE_PREFIX + message)
    padded = b"\x00\x01" + b"\xff" * (size - len(digest) - 3) + b"\x00" + digest
    return int.from_bytes(padded, "big")


def rsa_sign(private_key: RsaPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` and return a modulus-sized signature."""
    size = private_key.size_bytes
    rep = _signature_representative(message, size)
    signature = pow(rep, private_key.private_exponent, private_key.modulus)
    return signature.to_bytes(size, "big")


def rsa_verify(public_key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Return True if ``signature`` is valid for ``message``."""
    size = public_key.size_bytes
    if len(signature) != size:
        return False
    recovered = pow(int.from_bytes(signature, "big"), public_key.exponent, public_key.modulus)
    return recovered == _signature_representative(message, size)


def rsa_verify_strict(public_key: RsaPublicKey, message: bytes, signature: bytes) -> None:
    """Like :func:`rsa_verify` but raises :class:`SignatureError` on failure."""
    if not rsa_verify(public_key, message, signature):
        raise SignatureError("RSA signature verification failed")


# ---------------------------------------------------------------------------
# Encryption (simplified OAEP).  Used to wrap the Data Encryption Key into the
# Load Key against the Shield Encryption Key.
# ---------------------------------------------------------------------------


def _mgf1(seed: bytes, length: int) -> bytes:
    output = b""
    counter = 0
    while len(output) < length:
        output += sha256(seed + counter.to_bytes(4, "big"))
        counter += 1
    return output[:length]


def rsa_encrypt(public_key: RsaPublicKey, message: bytes, rng: HmacDrbg) -> bytes:
    """Encrypt a short message (OAEP-style) under the public key."""
    size = public_key.size_bytes
    hash_len = 32
    max_message = size - 2 * hash_len - 2
    if len(message) > max_message:
        raise CryptoError(
            f"RSA plaintext too long: {len(message)} > {max_message} bytes"
        )
    label_hash = sha256(b"")
    padding_string = b"\x00" * (max_message - len(message))
    data_block = label_hash + padding_string + b"\x01" + message
    seed = rng.generate(hash_len)
    masked_db = bytes(
        x ^ y for x, y in zip(data_block, _mgf1(seed, len(data_block)))
    )
    masked_seed = bytes(x ^ y for x, y in zip(seed, _mgf1(masked_db, hash_len)))
    encoded = b"\x00" + masked_seed + masked_db
    ciphertext = pow(int.from_bytes(encoded, "big"), public_key.exponent, public_key.modulus)
    return ciphertext.to_bytes(size, "big")


def rsa_decrypt(private_key: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """Decrypt an OAEP-style ciphertext produced by :func:`rsa_encrypt`."""
    size = private_key.size_bytes
    hash_len = 32
    if len(ciphertext) != size:
        raise CryptoError("RSA ciphertext has the wrong length")
    encoded = pow(
        int.from_bytes(ciphertext, "big"),
        private_key.private_exponent,
        private_key.modulus,
    ).to_bytes(size, "big")
    if encoded[0] != 0:
        raise CryptoError("RSA decryption failed (bad leading byte)")
    masked_seed = encoded[1 : 1 + hash_len]
    masked_db = encoded[1 + hash_len :]
    seed = bytes(x ^ y for x, y in zip(masked_seed, _mgf1(masked_db, hash_len)))
    data_block = bytes(x ^ y for x, y in zip(masked_db, _mgf1(seed, len(masked_db))))
    if data_block[:hash_len] != sha256(b""):
        raise CryptoError("RSA decryption failed (label hash mismatch)")
    remainder = data_block[hash_len:]
    separator = remainder.find(b"\x01")
    if separator < 0 or any(remainder[:separator]):
        raise CryptoError("RSA decryption failed (malformed padding)")
    return remainder[separator + 1 :]
