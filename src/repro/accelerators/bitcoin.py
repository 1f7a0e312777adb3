"""Bitcoin-mining accelerator (the register-only workload of Figure 6).

The miner receives a 76-byte block-header prefix and a difficulty target over
the shielded *register interface*, grinds nonces with double SHA-256 entirely
on-chip, and returns only the 4-byte winning nonce.  No device memory is
touched at all, so the Shield configuration is just the register interface
with one AES and one HMAC engine (Section 6.2.4), and because each input
triggers an enormous amount of compute, the measured overhead is essentially
zero -- the cheapest possible bespoke TEE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators.base import Accelerator, AcceleratorResult, MemoryInterface
from repro.core.config import RegisterInterfaceConfig, ShieldConfig
from repro.core.timing import WorkloadProfile
from repro.crypto.fasthash import sha256
from repro.errors import SimulationError

HEADER_PREFIX_BYTES = 76
NONCE_BYTES = 4

# Paper-scale difficulty (leading zero bits of the double-SHA256 digest).
PAPER_DIFFICULTY_BITS = 24


def double_sha256(data: bytes) -> bytes:
    """Bitcoin's block hash: SHA-256 applied twice."""
    return sha256(sha256(data))


def leading_zero_bits(digest: bytes) -> int:
    """Number of leading zero bits in a digest."""
    bits = 0
    for byte in digest:
        if byte == 0:
            bits += 8
            continue
        for shift in range(7, -1, -1):
            if byte >> shift:
                return bits + (7 - shift)
        return bits
    return bits


@dataclass
class MiningResult:
    """Outcome of a mining run."""

    nonce: int
    digest: bytes
    attempts: int


class BitcoinAccelerator(Accelerator):
    """A register-only double-SHA256 miner."""

    access_characteristics = "REG"

    #: Hash attempts the pipelined core completes per cycle.
    HASHES_PER_CYCLE = 1.0
    INIT_CYCLES = 5_000.0

    def __init__(self, difficulty_bits: int = 12, max_attempts: int = 2_000_000):
        super().__init__("bitcoin")
        self._require(0 < difficulty_bits <= 64, "difficulty must be 1-64 bits")
        self.difficulty_bits = difficulty_bits
        self.max_attempts = max_attempts

    # -- Shield configuration --------------------------------------------------------

    def build_shield_config(
        self,
        aes_key_bits: int = 128,
        sbox_parallelism: int = 16,
        mac_algorithm: str = "HMAC",
    ) -> ShieldConfig:
        return ShieldConfig(
            shield_id="bitcoin",
            engine_sets=[],
            regions=[],
            register_interface=RegisterInterfaceConfig(
                num_registers=32,
                encrypt_addresses=True,
                aes_key_bits=aes_key_bits,
                sbox_parallelism=sbox_parallelism,
                mac_algorithm=mac_algorithm,
            ),
        )

    # -- analytical profile ---------------------------------------------------------------

    def profile(self, difficulty_bits: int | None = None) -> WorkloadProfile:
        difficulty = difficulty_bits or PAPER_DIFFICULTY_BITS
        expected_attempts = float(2 ** difficulty)
        return WorkloadProfile(
            name="bitcoin",
            regions=(),
            compute_cycles=expected_attempts / self.HASHES_PER_CYCLE,
            init_cycles=self.INIT_CYCLES,
            register_operations=24,  # header prefix (19 words) + difficulty + nonce readback
        )

    # -- functional execution ----------------------------------------------------------------

    def mine(self, header_prefix: bytes) -> MiningResult:
        """Grind nonces until the double-SHA256 digest meets the difficulty."""
        if len(header_prefix) != HEADER_PREFIX_BYTES:
            raise SimulationError(
                f"block header prefix must be {HEADER_PREFIX_BYTES} bytes"
            )
        for nonce in range(self.max_attempts):
            digest = double_sha256(header_prefix + nonce.to_bytes(NONCE_BYTES, "little"))
            if leading_zero_bits(digest) >= self.difficulty_bits:
                return MiningResult(nonce=nonce, digest=digest, attempts=nonce + 1)
        raise SimulationError(
            f"no nonce meeting {self.difficulty_bits} bits found in {self.max_attempts} attempts"
        )

    def run(self, memory: MemoryInterface, header_prefix: bytes = b"", **params) -> AcceleratorResult:
        """Register-only workload: ``memory`` is unused by design."""
        header_prefix = header_prefix or bytes(range(HEADER_PREFIX_BYTES))
        result = self.mine(header_prefix)
        return AcceleratorResult(
            name=self.name,
            outputs={
                "nonce": result.nonce,
                "digest": result.digest,
                "attempts": result.attempts,
            },
        )

    def run_via_registers(self, register_file, channel_client, header_prefix: bytes) -> MiningResult:
        """Drive the miner purely through the shielded register interface.

        ``register_file`` is the Shield's plaintext-side register file and
        ``channel_client`` the Data Owner's sealed-command client; this method
        mirrors how the host program would operate the miner end to end.
        """
        if len(header_prefix) != HEADER_PREFIX_BYTES:
            raise SimulationError(
                f"block header prefix must be {HEADER_PREFIX_BYTES} bytes"
            )
        # The Data Owner would push the header through sealed register writes;
        # here we verify the plumbing by reading it back out of the plaintext
        # register file the way the accelerator logic would.
        words = [header_prefix[i : i + 4] for i in range(0, HEADER_PREFIX_BYTES, 4)]
        header = b"".join(register_file.read_register(index) for index in range(len(words)))
        result = self.mine(header)
        register_file.write_register(30, result.nonce.to_bytes(4, "big"))
        register_file.write_register(31, result.attempts.to_bytes(4, "big"))
        return result
