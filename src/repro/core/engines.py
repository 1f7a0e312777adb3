"""Functional models of the Shield's cryptographic engines.

Each engine couples a *functional* implementation (real AES-CTR, HMAC, PMAC
from :mod:`repro.crypto`) with the *throughput* attributes the timing model
uses.  The throughput figures are behavioural calibrations, not RTL synthesis
results: they are chosen so that the relative performance of configurations
(4x vs 16x S-box parallelism, 128- vs 256-bit keys, HMAC vs PMAC, engine
counts) reproduces the shapes reported in the paper's Table 2 and Figures 5-6.

There is one functional datapath: AES-CTR runs on the vectorized
:class:`~repro.crypto.fastaes.VectorAes` and batched MACs on
:class:`~repro.crypto.fasthash.BatchedMac`.  A batch is always one
``(n, chunk)`` uint8 array (the ``*_many_array`` methods); single messages
go through :meth:`AesEngine.encrypt` / :meth:`MacEngine.tag` and friends.
The from-scratch :mod:`repro.crypto.modes` and :mod:`repro.crypto.mac` are
the references the parity tests compare them against.

Key modelling choices (documented here because the benchmarks depend on them):

* An AES engine's throughput scales linearly with S-box parallelism (the
  paper's 4x/16x knob) and drops by 10/14 for 256-bit keys (more rounds).
* An HMAC-SHA256 engine processes a chunk sequentially; adding HMAC engines
  does not speed up a single chunk, which is why HMAC-bound configurations in
  Table 2 stay at ~300% overhead regardless of AES parallelism.
* A PMAC engine has lower per-engine throughput than HMAC (it is a smaller
  block, cf. Table 1's LUT counts) but is parallelizable: multiple PMAC
  engines multiply the per-chunk authentication bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.annotations import hot_path, scalar_reference
from repro.core.config import EngineSetConfig
from repro.crypto.fastaes import VectorAes
from repro.crypto.fasthash import BatchedMac
from repro.crypto.kdf import derive_subkey
from repro.crypto.mac import compute_mac, constant_time_equal
from repro.errors import IntegrityError, ShieldError

# Calibrated throughput constants (bytes per Shield clock cycle).
AES_BYTES_PER_CYCLE_PER_SBOX = 1.0        # 16x parallel S-box => 16 B/cycle
AES_256_THROUGHPUT_FACTOR = 10.0 / 14.0   # 14 rounds instead of 10
HMAC_BYTES_PER_CYCLE = 8.5                # sequential per chunk, engine count ignored
PMAC_BYTES_PER_CYCLE = 6.5                # per engine, parallelizable across engines
CMAC_BYTES_PER_CYCLE = 4.0                # sequential, like HMAC but slower


@dataclass
class EngineStats:
    """Byte counters per engine (used by tests and reporting)."""

    bytes_encrypted: int = 0
    bytes_decrypted: int = 0
    bytes_authenticated: int = 0
    operations: int = 0


class AesEngine:
    """A configurable AES-CTR encryption/decryption engine.

    Every call runs on the vectorized :class:`~repro.crypto.fastaes.VectorAes`
    cipher, which is byte-identical to the from-scratch reference
    :func:`repro.crypto.modes.ctr_transform`; the S-box parallelism and key
    size only shape the modelled throughput.
    """

    def __init__(self, key: bytes, sbox_parallelism: int = 4, key_bits: int = 128):
        if len(key) * 8 != key_bits:
            raise ShieldError(
                f"AES engine configured for {key_bits}-bit keys got a "
                f"{len(key) * 8}-bit key"
            )
        self.sbox_parallelism = sbox_parallelism
        self.key_bits = key_bits
        self._cipher = VectorAes(key)
        self.stats = EngineStats()

    @property
    def bytes_per_cycle(self) -> float:
        """Modelled steady-state throughput of one engine instance."""
        rate = AES_BYTES_PER_CYCLE_PER_SBOX * self.sbox_parallelism
        if self.key_bits == 256:
            rate *= AES_256_THROUGHPUT_FACTOR
        return rate

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        """AES-CTR encrypt ``plaintext`` under the per-chunk IV."""
        self.stats.bytes_encrypted += len(plaintext)
        self.stats.operations += 1
        return self._cipher.ctr_transform(iv, plaintext)

    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        """AES-CTR decrypt ``ciphertext`` under the per-chunk IV."""
        self.stats.bytes_decrypted += len(ciphertext)
        self.stats.operations += 1
        return self._cipher.ctr_transform(iv, ciphertext)

    # -- batches: one (n, chunk) array -------------------------------------------

    def _transform_array(self, ivs: np.ndarray, data: np.ndarray) -> np.ndarray:
        if ivs.shape[0] != data.shape[0]:
            raise ShieldError("batched AES-CTR needs one IV per chunk")
        return self._cipher.ctr_transform_array(ivs, data)

    @hot_path
    @scalar_reference("repro.crypto.modes:ctr_transform")
    def encrypt_many_array(self, ivs: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, chunk)`` uint8 array under ``(n, 12)`` IVs.

        Input and output stay one numpy buffer each -- no allocation per
        chunk.
        """
        self.stats.bytes_encrypted += plaintexts.size
        self.stats.operations += plaintexts.shape[0]
        return self._transform_array(ivs, plaintexts)

    @hot_path
    @scalar_reference("repro.crypto.modes:ctr_transform")
    def decrypt_many_array(self, ivs: np.ndarray, ciphertexts: np.ndarray) -> np.ndarray:
        """Decrypt an ``(n, chunk)`` uint8 array under ``(n, 12)`` IVs."""
        self.stats.bytes_decrypted += ciphertexts.size
        self.stats.operations += ciphertexts.shape[0]
        return self._transform_array(ivs, ciphertexts)


class MacEngine:
    """A configurable authentication engine (HMAC-SHA256, AES-PMAC, or AES-CMAC).

    Single messages (:meth:`tag` / :meth:`verify`) run the from-scratch
    :func:`repro.crypto.mac.compute_mac`; batches (:meth:`tag_many_array` /
    :meth:`verify_many_array`, one ``(n, length)`` uint8 array each) run the
    vectorized multi-message MACs of :class:`~repro.crypto.fasthash.BatchedMac`.
    Both produce byte-identical tags.
    """

    def __init__(self, key: bytes, algorithm: str = "HMAC"):
        if algorithm not in ("HMAC", "PMAC", "CMAC"):
            raise ShieldError(f"unknown MAC algorithm {algorithm!r}")
        self.algorithm = algorithm
        self._key = key if algorithm == "HMAC" else key[:16]
        self._batched: BatchedMac | None = None
        self.stats = EngineStats()

    @property
    def bytes_per_cycle(self) -> float:
        """Modelled per-engine throughput."""
        if self.algorithm == "HMAC":
            return HMAC_BYTES_PER_CYCLE
        if self.algorithm == "PMAC":
            return PMAC_BYTES_PER_CYCLE
        return CMAC_BYTES_PER_CYCLE

    @property
    def parallelizable(self) -> bool:
        """Whether multiple engines can cooperate on a single chunk."""
        return self.algorithm == "PMAC"

    def tag(self, message: bytes) -> bytes:
        """Compute a 16-byte tag (longer tags are truncated for DRAM storage)."""
        self.stats.bytes_authenticated += len(message)
        self.stats.operations += 1
        return compute_mac(self.algorithm, self._key, message)[:16]

    def verify(self, message: bytes, tag: bytes) -> None:
        """Verify a tag produced by :meth:`tag`; raises :class:`IntegrityError`."""
        if not constant_time_equal(self.tag(message), tag):
            raise IntegrityError(f"{self.algorithm} tag mismatch")

    def _batched_mac(self) -> BatchedMac:
        # Per-key setup (HMAC pads, AES key schedule, PMAC/CMAC subkeys) is
        # done once and reused across batches.
        if self._batched is None:
            self._batched = BatchedMac(self.algorithm, self._key)
        return self._batched

    @hot_path
    @scalar_reference("tag")
    def tag_many_array(self, messages: np.ndarray) -> np.ndarray:
        """Tag an equal-length ``(n, length)`` uint8 batch; returns ``(n, 16)``.

        Byte-identical to :meth:`tag` over each row; the batch stays one numpy
        buffer end-to-end (the region sealer's zero-copy chunk-MAC path).
        """
        self.stats.bytes_authenticated += messages.size
        self.stats.operations += messages.shape[0]
        return self._batched_mac().tag_many_array(messages)[:, :16]

    @scalar_reference("verify")
    def verify_many_array(self, messages: np.ndarray, tags: list) -> None:
        """Verify a batch of 16-byte tags over an ``(n, length)`` message array.

        Every row is checked (no early exit) before the batch is rejected
        with :class:`IntegrityError`, so tampering with any chunk fails the
        whole batch exactly as the chunk-at-a-time loop would.
        """
        if messages.shape[0] != len(tags):
            raise IntegrityError("verify_many_array needs exactly one tag per message")
        computed = self.tag_many_array(messages)
        matched = True
        for row, presented in zip(computed, tags):
            matched &= constant_time_equal(row.tobytes(), bytes(presented))
        if not matched:
            raise IntegrityError(f"{self.algorithm} tag mismatch")


def engine_set_encryption_rate(config: EngineSetConfig) -> float:
    """Aggregate encryption throughput (bytes/cycle) of an engine set."""
    rate = AES_BYTES_PER_CYCLE_PER_SBOX * config.sbox_parallelism
    if config.aes_key_bits == 256:
        rate *= AES_256_THROUGHPUT_FACTOR
    return rate * config.num_aes_engines


def engine_set_authentication_rate(config: EngineSetConfig) -> float:
    """Aggregate authentication throughput (bytes/cycle) of an engine set.

    HMAC/CMAC are sequential per chunk, so extra engines do not increase the
    single-stream rate; PMAC engines parallelize.
    """
    if config.mac_algorithm == "HMAC":
        return HMAC_BYTES_PER_CYCLE
    if config.mac_algorithm == "CMAC":
        return CMAC_BYTES_PER_CYCLE
    return PMAC_BYTES_PER_CYCLE * config.num_mac_engines


def engine_set_crypto_rate(config: EngineSetConfig) -> float:
    """The engine set's sustainable authenticated-encryption rate (bytes/cycle)."""
    return min(engine_set_encryption_rate(config), engine_set_authentication_rate(config))


def build_engines(
    config: EngineSetConfig, region_key: bytes
) -> tuple[AesEngine, MacEngine]:
    """Instantiate the functional engines of an engine set for a given region key."""
    enc_key = derive_subkey(region_key, "engine-encrypt", config.aes_key_bits // 8)
    mac_key = derive_subkey(region_key, "engine-mac", 32)
    return (
        AesEngine(enc_key, config.sbox_parallelism, config.aes_key_bits),
        MacEngine(mac_key, config.mac_algorithm),
    )
