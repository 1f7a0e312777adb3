"""Measurement helpers: hashing boot components and chaining measurements.

Secure boot "extends trust by cryptographically measuring each component
during boot" (Section 2.1).  :func:`measure` is the single hash primitive used
everywhere, and :class:`MeasurementLog` is a TPM-PCR-style extend chain used
by the firmware to accumulate the kernel (and, for soft Security Kernel
Processors, the soft-CPU bitstream) into one value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.annotations import scalar_reference
from repro.crypto.fasthash import sha256


def measure(data: bytes) -> bytes:
    """Measure a boot component: SHA-256 over its bytes."""
    return sha256(data)


@scalar_reference("measure")
def measure_many(*components: bytes) -> bytes:
    """Measure several components in order with length framing."""
    body = b"".join(len(c).to_bytes(8, "big") + c for c in components)
    return sha256(body)


@dataclass
class MeasurementLog:
    """An extend-style measurement chain with a readable event log."""

    value: bytes = b"\x00" * 32
    events: list = field(default_factory=list)

    def extend(self, name: str, data: bytes) -> bytes:
        """Extend the chain with a named component and return the new value."""
        digest = measure(data)
        self.value = sha256(self.value + digest)
        self.events.append((name, digest))
        return self.value

    def digest(self) -> bytes:
        """Current chain value."""
        return self.value

    def event_names(self) -> list:
        """Names of all measured components, in order."""
        return [name for name, _ in self.events]
