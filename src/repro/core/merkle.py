"""Bonsai-Merkle-tree replay protection: the baseline ShEF argues against.

CPU secure processors protect against replay with Merkle trees over counters
(Rogers et al. [77] in the paper); only the root lives on-chip and every
access must fetch and verify a path of tree nodes from DRAM.  ShEF replaces
this with flat on-chip counters (:mod:`repro.core.counters`) because FPGAs
have abundant on-chip RAM and accelerators protect comparatively small
regions.  This module implements the Merkle baseline functionally -- counters
live in DRAM leaves, interior nodes hash their children, the root stays
on-chip -- so the ablation benchmark can quantify the extra DRAM traffic ShEF
avoids, and so tests can show both schemes detect replay.

Every walk goes node by node, one HMAC and one DRAM access per node: the
initial build, :meth:`~BonsaiMerkleCounterTree.read_counter` and
:meth:`~BonsaiMerkleCounterTree.increment_counter`.  :class:`MerkleStats`
counts those node accesses, which is what the replay-protection ablation
compares against ShEF's on-chip counters.  The ablation itself prices the
tree with the analytic :func:`merkle_extra_dram_bytes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.fasthash import hmac_sha256
from repro.errors import ReplayError, ShieldError
from repro.hw.axi import AxiPort

NODE_BYTES = 32
COUNTER_BYTES = 8


@dataclass
class MerkleStats:
    """DRAM traffic generated by Merkle verification."""

    node_reads: int = 0
    node_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        """Zero every counter (e.g. to measure steady state after the build)."""
        self.node_reads = 0
        self.node_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0


class BonsaiMerkleCounterTree:
    """A hash tree over per-chunk counters, with only the root held on-chip.

    Parameters
    ----------
    memory_port:
        AXI port used to reach DRAM (the same untrusted path the Shield uses).
    base_address:
        Where in DRAM the counter leaves and tree nodes are stored.
    num_chunks:
        Number of protected chunks (one counter per chunk).
    arity:
        Children per interior node.
    key:
        MAC key used for leaf-level counter authentication.
    """

    def __init__(
        self,
        memory_port: AxiPort,
        base_address: int,
        num_chunks: int,
        arity: int = 8,
        key: bytes = b"\x00" * 32,
    ):
        if num_chunks <= 0:
            raise ShieldError("Merkle tree needs at least one chunk")
        if arity < 2:
            raise ShieldError("Merkle tree arity must be at least 2")
        self._port = memory_port
        self.base_address = base_address
        self.num_chunks = num_chunks
        self.arity = arity
        self._key = key
        self.stats = MerkleStats()

        # Level 0 = leaves (counters); levels above hold hashes.
        self.levels: list[int] = [num_chunks]
        while self.levels[-1] > 1:
            self.levels.append(math.ceil(self.levels[-1] / arity))
        # The final level of size 1 is the root and is kept on-chip only
        # (for a single-chunk tree the one DRAM level doubles as the leaf,
        # and the root is the hash over it).
        self._root: bytes = b""
        self._level_offsets = self._compute_offsets()
        self._initialize()

    # -- layout -----------------------------------------------------------------

    def _compute_offsets(self) -> list[int]:
        offsets = []
        cursor = self.base_address
        for level_index, count in enumerate(self.levels):
            offsets.append(cursor)
            entry_size = COUNTER_BYTES if level_index == 0 else NODE_BYTES
            cursor += count * entry_size
        return offsets

    @property
    def dram_footprint_bytes(self) -> int:
        """Total DRAM consumed by leaves and interior nodes."""
        total = self.levels[0] * COUNTER_BYTES
        for count in self.levels[1:]:
            total += count * NODE_BYTES
        return total

    @property
    def depth(self) -> int:
        """Number of DRAM levels traversed per verification (leaves included)."""
        return len(self.levels)

    # -- DRAM helpers --------------------------------------------------------------

    def _entry_size(self, level: int) -> int:
        return COUNTER_BYTES if level == 0 else NODE_BYTES

    def _read_entry(self, level: int, index: int) -> bytes:
        size = self._entry_size(level)
        address = self._level_offsets[level] + index * size
        self.stats.node_reads += 1
        self.stats.bytes_read += size
        return self._port.read(address, size, region_hint="merkle")

    def _write_entry(self, level: int, index: int, data: bytes) -> None:
        size = self._entry_size(level)
        address = self._level_offsets[level] + index * size
        self.stats.node_writes += 1
        self.stats.bytes_written += size
        self._port.write(address, data, region_hint="merkle")

    # -- hashing --------------------------------------------------------------------

    def _group_range(self, level: int, parent_index: int) -> range:
        """Child indices at ``level`` hashed into node ``parent_index`` above."""
        first_child = parent_index * self.arity
        return range(first_child, min(first_child + self.arity, self.levels[level]))

    def _hash_children(self, level: int, parent_index: int) -> bytes:
        """Hash of the children of node ``parent_index`` at level ``level + 1``."""
        material = b""
        for child in self._group_range(level, parent_index):
            material += self._read_entry(level, child)
        return hmac_sha256(self._key, level.to_bytes(2, "big") + material)[:NODE_BYTES]

    def _initialize(self) -> None:
        """Write zero counters and build the initial tree bottom-up, node by node."""
        for index in range(self.levels[0]):
            self._write_entry(0, index, b"\x00" * COUNTER_BYTES)
        if len(self.levels) == 1:
            # Single-chunk tree: the root is the hash over the one leaf.
            self._root = self._hash_children(0, 0)
            return
        for level in range(1, len(self.levels)):
            for index in range(self.levels[level]):
                digest = self._hash_children(level - 1, index)
                if level == len(self.levels) - 1:
                    self._root = digest
                else:
                    self._write_entry(level, index, digest)

    # -- verification path -----------------------------------------------------------

    def _verify_path(self, chunk_index: int) -> None:
        """Recompute hashes along the path to the root and compare."""
        if len(self.levels) == 1:
            if self._hash_children(0, 0) != self._root:
                raise ReplayError("Merkle verification failed at the root")
            return
        index = chunk_index
        for level in range(1, len(self.levels)):
            parent_index = index // self.arity
            digest = self._hash_children(level - 1, parent_index)
            if level == len(self.levels) - 1:
                stored = self._root
            else:
                stored = self._read_entry(level, parent_index)
            if digest != stored:
                raise ReplayError(
                    f"Merkle verification failed at level {level} for chunk {chunk_index}"
                )
            index = parent_index

    def _update_path(self, chunk_index: int) -> None:
        """Recompute and store hashes along the path after a counter update."""
        if len(self.levels) == 1:
            self._root = self._hash_children(0, 0)
            return
        index = chunk_index
        for level in range(1, len(self.levels)):
            parent_index = index // self.arity
            digest = self._hash_children(level - 1, parent_index)
            if level == len(self.levels) - 1:
                self._root = digest
            else:
                self._write_entry(level, parent_index, digest)
            index = parent_index

    # -- public API --------------------------------------------------------------------

    def read_counter(self, chunk_index: int) -> int:
        """Fetch and verify the counter for a chunk, walking its path."""
        self._check_index(chunk_index)
        value = int.from_bytes(self._read_entry(0, chunk_index), "big")
        self._verify_path(chunk_index)
        return value

    def increment_counter(self, chunk_index: int) -> int:
        """Verify, increment, and re-hash the path for a chunk write."""
        value = self.read_counter(chunk_index) + 1
        self._write_entry(0, chunk_index, value.to_bytes(COUNTER_BYTES, "big"))
        self._update_path(chunk_index)
        return value

    def root(self) -> bytes:
        """The on-chip root value."""
        return self._root

    def _check_index(self, chunk_index: int) -> None:
        if not 0 <= chunk_index < self.num_chunks:
            raise ShieldError(
                f"chunk index {chunk_index} outside Merkle tree of {self.num_chunks}"
            )


def merkle_extra_dram_bytes(num_chunks: int, arity: int = 8, writes_fraction: float = 0.5) -> float:
    """Analytic per-access DRAM overhead (bytes) of the Merkle baseline.

    Models exactly what :class:`BonsaiMerkleCounterTree` moves, averaged over
    a uniform access to every chunk: a *read* fetches the leaf counter plus,
    per level, the full sibling group it hashes (8-byte counters at the leaf
    level, 32-byte nodes above) and the stored parent node it compares
    against (the root lives on-chip and costs nothing); a *write* adds the
    leaf write-back, a second walk of the sibling groups, and one node write
    per interior level.  ``tests/core/test_merkle_vector_equivalence.py``
    asserts this model matches the implementation's measured
    :class:`MerkleStats` bit-for-bit.
    Used by the replay-protection ablation benchmark to contrast with ShEF's
    counters, which add zero DRAM traffic.
    """
    if num_chunks <= 0:
        raise ShieldError("num_chunks must be positive")
    levels = [num_chunks]
    while levels[-1] > 1:
        levels.append(math.ceil(levels[-1] / arity))
    depth = len(levels)

    # Average bytes of sibling-group fetches along one path (weighted by how
    # many chunks live under each parent, so partial tail groups are exact).
    group_read_bytes = 0.0
    stored_node_bytes = 0.0
    span = 1  # leaves under one parent at the current level
    for level in range(1, depth):
        span *= arity
        child_count = levels[level - 1]
        entry_size = COUNTER_BYTES if level == 1 else NODE_BYTES
        total = 0
        for parent in range(levels[level]):
            group = min(arity, child_count - parent * arity)
            chunks_under = min(span, num_chunks - parent * span)
            total += group * entry_size * chunks_under
        group_read_bytes += total / num_chunks
        if level < depth - 1:
            stored_node_bytes += NODE_BYTES
    if depth == 1:
        # Single-chunk tree: verification re-reads the one leaf.
        group_read_bytes = float(COUNTER_BYTES)

    read_bytes = COUNTER_BYTES + group_read_bytes + stored_node_bytes
    write_bytes = (
        read_bytes                           # verify before the update
        + COUNTER_BYTES                      # leaf counter write-back
        + group_read_bytes                   # re-hash walk after the bump
        + max(depth - 2, 0) * NODE_BYTES     # interior node writes (root is on-chip)
    )
    return (1 - writes_fraction) * read_bytes + writes_fraction * write_bytes
