"""AXI4 and AXI4-Lite transaction models.

The Shell exposes two interfaces to user logic (Section 5.1): an AXI4-Lite
register interface mastered by the Shell (host writes commands / small data)
and a full AXI4 interface to device memory driven by the accelerator.  The
Shield interposes on both.  Transactions here are burst-level objects rather
than cycle-level channel signalling -- that is the right granularity for both
the functional model (what bytes moved) and the timing model (how many beats).
Writes go out one burst per call; reads of many spans can be coalesced into
long bursts with :meth:`AxiPort.read_many`, which the Shield's chunk fetches
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from repro.analysis.annotations import hot_path, scalar_reference
from repro.errors import MemoryAccessError

AXI_DATA_WIDTH_BYTES = 64  # 512-bit data bus, as on the F1 Shell.
AXI_LITE_DATA_WIDTH_BYTES = 4
MAX_BURST_BYTES = 4096  # AXI4 forbids bursts crossing a 4 KiB boundary.


class BurstKind(Enum):
    """Whether a burst is a read or a write."""

    READ = "read"
    WRITE = "write"


@dataclass
class AxiBurst:
    """A single AXI4 burst transaction.

    ``data`` is present for writes and filled in by the slave for reads.
    """

    kind: BurstKind
    address: int
    length_bytes: int
    data: bytes = b""
    region_hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.length_bytes <= 0:
            raise MemoryAccessError("AXI burst length must be positive")
        if self.kind is BurstKind.WRITE and len(self.data) != self.length_bytes:
            raise MemoryAccessError("AXI write burst data length mismatch")

    @property
    def beats(self) -> int:
        """Number of data beats on a 512-bit bus."""
        return -(-self.length_bytes // AXI_DATA_WIDTH_BYTES)

    @property
    def end_address(self) -> int:
        return self.address + self.length_bytes

    def split_at_boundary(self, boundary: int = MAX_BURST_BYTES) -> list["AxiBurst"]:
        """Split the burst so no piece crosses a ``boundary``-aligned address."""
        pieces: list[AxiBurst] = []
        address = self.address
        remaining = self.length_bytes
        offset = 0
        while remaining > 0:
            room = boundary - (address % boundary)
            size = min(room, remaining)
            data = self.data[offset : offset + size] if self.kind is BurstKind.WRITE else b""
            pieces.append(
                AxiBurst(self.kind, address, size, data, region_hint=self.region_hint)
            )
            address += size
            offset += size
            remaining -= size
        return pieces


@dataclass
class AxiLiteTransaction:
    """A single 32-bit AXI4-Lite register access."""

    kind: BurstKind
    address: int
    data: bytes = b""

    def __post_init__(self) -> None:
        if self.kind is BurstKind.WRITE and len(self.data) != AXI_LITE_DATA_WIDTH_BYTES:
            raise MemoryAccessError("AXI-Lite writes carry exactly 4 bytes")


@dataclass
class AxiPort:
    """A point-to-point AXI connection: the master submits, the slave handles.

    An optional ``interposer`` callback sees every transaction before the
    slave does -- this is where the Shield slots in, and also where the attack
    library models a snooping/tampering Shell.
    """

    name: str
    slave_handler: Callable[[AxiBurst], bytes]
    interposer: Optional[Callable[[AxiBurst], AxiBurst]] = None
    log: list = field(default_factory=list)
    record_traffic: bool = False

    def submit(self, burst: AxiBurst) -> bytes:
        """Issue a burst; returns read data (or ``b""`` for writes)."""
        if self.interposer is not None:
            burst = self.interposer(burst)
        if self.record_traffic:
            self.log.append(burst)
        return self.slave_handler(burst)

    def read(self, address: int, length: int, region_hint: Optional[str] = None) -> bytes:
        """Convenience wrapper for a read burst."""
        return self.submit(
            AxiBurst(BurstKind.READ, address, length, region_hint=region_hint)
        )

    def write(self, address: int, data: bytes, region_hint: Optional[str] = None) -> None:
        """Convenience wrapper for a write burst."""
        self.submit(
            AxiBurst(BurstKind.WRITE, address, len(data), bytes(data), region_hint)
        )

    # -- coalesced multi-span reads --------------------------------------------------

    @hot_path
    @scalar_reference("read")
    def read_many(
        self, spans: list, region_hint: Optional[str] = None
    ) -> list:
        """Read many ``(address, length)`` spans, coalescing DRAM traffic.

        Overlapping, duplicate, and back-to-back spans are merged into maximal
        contiguous runs, each run is fetched with bursts split at the AXI
        4 KiB boundary, and the requested spans are sliced back out in input
        order.  This is what lets :class:`~repro.core.engine_set.RegionPipeline`
        fetch a batch of chunks, and then their tags, in a handful of long
        bursts.
        """
        if not spans:
            return []
        for _, length in spans:
            if length <= 0:
                raise MemoryAccessError("read_many span length must be positive")
        runs: list[list[int]] = []  # [start, end) of each merged run
        for address, length in sorted(set(spans)):
            if runs and address <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], address + length)
            else:
                runs.append([address, address + length])
        data: dict[int, bytes] = {}
        for start, end in runs:
            pieces = AxiBurst(
                BurstKind.READ, start, end - start, region_hint=region_hint
            ).split_at_boundary()
            data[start] = b"".join(self.submit(piece) for piece in pieces)
        blobs = []
        for address, length in spans:
            for start, end in runs:
                if start <= address and address + length <= end:
                    offset = address - start
                    blobs.append(data[start][offset : offset + length])
                    break
        return blobs


def memory_backed_handler(memory) -> Callable[[AxiBurst], bytes]:
    """Build a slave handler that services bursts directly from a :class:`DeviceMemory`."""

    def handler(burst: AxiBurst) -> bytes:
        if burst.kind is BurstKind.READ:
            return memory.read(burst.address, burst.length_bytes)
        memory.write(burst.address, burst.data)
        return b""

    return handler
