"""Exception hierarchy for the ShEF reproduction.

Every error raised by the library derives from :class:`ShefError` so that
callers can catch library failures with a single ``except`` clause while the
more specific subclasses keep security failures (integrity, attestation,
authentication) distinguishable from plain configuration or usage mistakes.
"""

from __future__ import annotations


class ShefError(Exception):
    """Base class for all errors raised by the ShEF reproduction."""


class ConfigurationError(ShefError):
    """A component was configured with invalid or inconsistent parameters."""


class CryptoError(ShefError):
    """Base class for failures inside the cryptographic substrate."""


class InvalidKeyError(CryptoError):
    """A key had the wrong length, type, or format."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class IntegrityError(CryptoError):
    """A MAC tag or hash check failed (data was tampered with)."""


class PaddingError(CryptoError):
    """Ciphertext padding was malformed during unpadding."""


class DeviceError(ShefError):
    """Base class for errors raised by the simulated FPGA hardware."""


class FuseError(DeviceError):
    """Illegal access to the one-time-programmable key fuses."""


class MemoryAccessError(DeviceError):
    """An out-of-bounds or misaligned access to device or on-chip memory."""


class CapacityError(DeviceError):
    """An on-chip memory allocation exceeded the available capacity."""


class FabricError(DeviceError):
    """Partial-reconfiguration or fabric-region management failure."""


class TamperError(DeviceError):
    """A hardware tamper monitor (JTAG, programming port) fired."""


class BootError(ShefError):
    """Secure-boot chain failure (firmware decryption, measurement, load)."""


class BitstreamError(ShefError):
    """A bitstream container was malformed, unauthentic, or undecryptable."""


class AttestationError(ShefError):
    """The remote-attestation protocol failed or a report was rejected."""


class ReplayError(IntegrityError):
    """Stale data was returned for a read (replay attack detected)."""


class ShieldError(ShefError):
    """Runtime failure inside the Shield (unmapped address, missing key)."""


class ProtocolError(ShefError):
    """A message arrived out of order or with an unexpected type."""


class SimulationError(ShefError):
    """The experiment harness was driven with inconsistent inputs."""


class CloudError(ShefError):
    """Failure inside the multi-tenant cloud serving layer."""


class SchedulingError(CloudError):
    """A job could not be queued or placed on the board fleet."""


class AdmissionError(SchedulingError):
    """A job was refused at submit time by admission control (backpressure):
    the fleet-wide queue cap was hit.  The job object carries
    ``JobState.REJECTED`` and the reason."""


class TenantIsolationError(CloudError):
    """An operation would have crossed a tenant-isolation boundary."""


class ShardingError(CloudError):
    """The shard router or multi-fleet replay driver was misused (unknown
    shard, empty ring, duplicate shard id)."""
