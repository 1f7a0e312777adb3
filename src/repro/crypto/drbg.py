"""Deterministic random bit generation (HMAC-DRBG, NIST SP 800-90A style).

Simulations in this repository must be reproducible, so every component that
needs randomness (key generation, nonces, synthetic workload data) draws from
an :class:`HmacDrbg` seeded explicitly.  ``secrets``-quality entropy is not
required for a simulator; determinism and statistical quality are.
"""

from __future__ import annotations

from repro.crypto.fasthash import hmac_sha256


class HmacDrbg:
    """HMAC-DRBG over SHA-256 with a deterministic seed."""

    def __init__(self, seed: bytes, personalization: bytes = b""):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("DRBG seed must be bytes")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed_counter = 1
        self._update(bytes(seed) + personalization)

    def _update(self, provided_data: bytes = b"") -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + provided_data)
        self._value = hmac_sha256(self._key, self._value)
        if provided_data:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided_data)
            self._value = hmac_sha256(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix additional entropy into the generator state."""
        self._update(entropy)
        self._reseed_counter = 1

    def generate(self, num_bytes: int) -> bytes:
        """Return ``num_bytes`` of pseudo-random output."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        output = b""
        while len(output) < num_bytes:
            self._value = hmac_sha256(self._key, self._value)
            output += self._value
        self._update()
        self._reseed_counter += 1
        return output[:num_bytes]

    def random_int(self, bits: int) -> int:
        """Return a uniformly random integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        num_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(num_bytes), "big")
        return value >> (num_bytes * 8 - bits)

    def randint_below(self, upper: int) -> int:
        """Return a uniformly random integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        bits = upper.bit_length()
        while True:
            candidate = self.random_int(bits)
            if candidate < upper:
                return candidate

    def randrange(self, lower: int, upper: int) -> int:
        """Return a uniformly random integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("upper must exceed lower")
        return lower + self.randint_below(upper - lower)


def drbg_from_label(seed: int, label: str) -> HmacDrbg:
    """Convenience constructor: build a DRBG from an integer seed and a label."""
    return HmacDrbg(seed.to_bytes(8, "big", signed=False), label.encode("utf-8"))
