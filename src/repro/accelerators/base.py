"""Accelerator model base classes and memory-interface adapters.

Each evaluation workload from the paper (vector add, matrix multiply, the
convolution layer, Rosetta digit recognition, affine transformation,
DNNWeaver/LeNet, Bitcoin, and the SDP storage node) is modelled as an
:class:`Accelerator` with three faces:

* ``build_shield_config`` -- the Shield configuration the paper's Section
  6.2.4 describes for that workload (engine sets, chunk sizes, buffers,
  counters), parameterized by the AES variant being evaluated;
* ``profile`` -- a compact :class:`~repro.core.timing.WorkloadProfile` used by
  the analytical timing model for the large benchmark sweeps;
* ``run`` -- a functional execution against a memory interface (either the
  real Shield or a direct, unshielded connection), used by tests and examples
  to show that results computed behind the Shield are bit-identical to the
  unprotected baseline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.config import ShieldConfig
from repro.core.shield import Shield
from repro.core.timing import WorkloadProfile
from repro.errors import SimulationError
from repro.hw.memory import DeviceMemory


class MemoryInterface(ABC):
    """What an accelerator model needs from its memory system."""

    @abstractmethod
    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes at ``address``."""

    @abstractmethod
    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address``."""


class ShieldMemoryAdapter(MemoryInterface):
    """Routes accelerator accesses through a provisioned Shield."""

    def __init__(self, shield: Shield):
        self._shield = shield

    def read(self, address: int, length: int) -> bytes:
        return self._shield.memory_read(address, length)

    def write(self, address: int, data: bytes) -> None:
        self._shield.memory_write(address, data)

    def flush(self) -> None:
        self._shield.flush()


class DirectMemoryAdapter(MemoryInterface):
    """The insecure baseline: accesses go straight to device DRAM."""

    def __init__(self, device_memory: DeviceMemory):
        self._memory = device_memory

    def read(self, address: int, length: int) -> bytes:
        return self._memory.read(address, length)

    def write(self, address: int, data: bytes) -> None:
        self._memory.write(address, data)

    def flush(self) -> None:
        """No-op: the direct path has nothing to flush."""


@dataclass
class AcceleratorResult:
    """Outcome of a functional accelerator run."""

    name: str
    outputs: dict
    bytes_read: int = 0
    bytes_written: int = 0


class Accelerator(ABC):
    """Base class for all workload models."""

    #: Access characteristics tag used in Figure 6's legend
    #: (STR = streaming, RA = random access, REG = register only).
    access_characteristics: str = "STR"

    def __init__(self, name: str):
        self.name = name

    # -- configuration ------------------------------------------------------------

    @abstractmethod
    def build_shield_config(
        self,
        aes_key_bits: int = 128,
        sbox_parallelism: int = 16,
        mac_algorithm: str = "HMAC",
    ) -> ShieldConfig:
        """The per-accelerator Shield configuration from Section 6.2.4."""

    def paper_shield_config(self, **variant) -> ShieldConfig:
        """The paper-scale configuration the evaluation and the traces use.

        Workloads whose functional model is scaled down from the paper
        override this; for every other workload it is
        :meth:`build_shield_config`.
        """
        return self.build_shield_config(**variant)

    # -- analytical profile ----------------------------------------------------------

    @abstractmethod
    def profile(self, **params) -> WorkloadProfile:
        """Traffic/compute summary for the timing model."""

    # -- functional execution -----------------------------------------------------------

    @abstractmethod
    def run(self, memory: MemoryInterface, **params) -> AcceleratorResult:
        """Execute the workload against a memory interface."""

    # -- helpers -----------------------------------------------------------------------------

    def describe(self) -> dict:
        """Human-readable summary used by examples and reporting."""
        return {
            "name": self.name,
            "access_characteristics": self.access_characteristics,
        }

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise SimulationError(message)
