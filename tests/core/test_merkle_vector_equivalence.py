"""Merkle conformance: batched vs per-chunk calls, plus zero-copy seals.

The batched Merkle calls (multi-message HMAC per tree level, coalesced AXI
reads) must be indistinguishable from the per-chunk node-by-node walk in
everything a caller can observe: roots, counter values, tamper detection,
and the per-node :class:`~repro.core.merkle.MerkleStats` accounting that
feeds the replay-protection ablation.  The batched initial build is checked
against :func:`per_node_build`, the node-by-node build kept here as its
oracle.  The second half checks the zero-copy contract of the batched chunk
datapath: one shared ciphertext buffer per seal pass, no per-chunk ``bytes``
materialization.
"""

import pytest

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.merkle import (
    COUNTER_BYTES,
    BonsaiMerkleCounterTree,
    merkle_extra_dram_bytes,
)
from repro.core.sealing import RegionSealer
from repro.errors import ReplayError
from repro.hw.axi import AxiPort, memory_backed_handler
from repro.hw.memory import DeviceMemory
from tests.reference_sealer import ReferenceSealer

SHAPES = [(1, 8), (2, 2), (5, 3), (9, 8), (16, 4), (100, 8), (256, 8)]


def make_tree(num_chunks, arity):
    memory = DeviceMemory(1 << 22)
    port = AxiPort("merkle", memory_backed_handler(memory))
    tree = BonsaiMerkleCounterTree(
        port,
        base_address=0x10000,
        num_chunks=num_chunks,
        arity=arity,
        key=b"k" * 32,
    )
    return tree, memory


def stats_tuple(tree):
    s = tree.stats
    return (s.node_reads, s.node_writes, s.bytes_read, s.bytes_written)


def per_node_build(tree):
    """Oracle: rebuild ``tree`` node by node; returns the build's (root, stats).

    Writes every zero counter, then hashes each node from its children one
    HMAC at a time, bottom-up -- the build the batched level-wise pass must
    reproduce exactly.
    """
    tree.stats.reset()
    for index in range(tree.levels[0]):
        tree._write_entry(0, index, b"\x00" * COUNTER_BYTES)
    if len(tree.levels) == 1:
        return tree._hash_children(0, 0), stats_tuple(tree)
    for level in range(1, len(tree.levels)):
        for index in range(tree.levels[level]):
            digest = tree._hash_children(level - 1, index)
            if level == len(tree.levels) - 1:
                return digest, stats_tuple(tree)
            tree._write_entry(level, index, digest)


# ---------------------------------------------------------------------------
# Differential: roots, values, and stats of batched vs per-chunk calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_chunks,arity", SHAPES)
def test_batched_build_matches_per_node_oracle(num_chunks, arity):
    tree, _ = make_tree(num_chunks, arity)
    built = (tree.root(), stats_tuple(tree))
    assert per_node_build(make_tree(num_chunks, arity)[0]) == built


@pytest.mark.parametrize("num_chunks,arity", [(9, 8), (16, 4), (100, 8)])
def test_batched_reads_match_per_chunk_loop(num_chunks, arity):
    tree, _ = make_tree(num_chunks, arity)
    indices = [0, num_chunks - 1, num_chunks // 2, 0]  # includes a duplicate
    tree.stats.reset()
    batched = tree.read_counters(indices)
    batched_stats = stats_tuple(tree)
    tree.stats.reset()
    looped = [tree.read_counter(index) for index in indices]
    assert batched == looped == [0] * len(indices)
    assert batched_stats == stats_tuple(tree)


@pytest.mark.parametrize("num_chunks,arity", [(9, 8), (16, 4), (100, 8)])
def test_batched_increments_match_per_chunk_loop(num_chunks, arity):
    batched, _ = make_tree(num_chunks, arity)
    per_chunk, _ = make_tree(num_chunks, arity)
    # Duplicates in one batch must behave like sequential per-chunk
    # increments: every occurrence sees its own new version.
    indices = [3, 3, num_chunks - 1, 3, 0]
    indices = [index % num_chunks for index in indices]
    batched.stats.reset()
    per_chunk.stats.reset()
    values = batched.increment_counters(indices)
    looped = [per_chunk.increment_counter(index) for index in indices]
    assert values == looped
    assert batched.root() == per_chunk.root()
    assert stats_tuple(batched) == stats_tuple(per_chunk)
    assert batched.read_counters(list(range(num_chunks))) == [
        per_chunk.read_counter(i) for i in range(num_chunks)
    ]


def test_interleaved_workload_keeps_calls_in_lockstep():
    batched, _ = make_tree(64, 4)
    per_chunk, _ = make_tree(64, 4)
    for round_number in range(3):
        batch = [(round_number * 7 + k) % 64 for k in range(9)]
        assert batched.increment_counters(batch) == [
            per_chunk.increment_counter(index) for index in batch
        ]
        probe = [(round_number * 13 + k) % 64 for k in range(5)]
        assert batched.read_counters(probe) == [
            per_chunk.read_counter(index) for index in probe
        ]
        assert batched.root() == per_chunk.root()
        assert stats_tuple(batched) == stats_tuple(per_chunk)


def test_tampered_leaf_detected_by_batched_and_per_chunk_reads():
    tree, memory = make_tree(64, 4)
    tree.increment_counters([3, 4, 5])
    leaf_address = tree._level_offsets[0] + 3 * 8
    memory.tamper_write(leaf_address, (0).to_bytes(8, "big"))
    with pytest.raises(ReplayError):
        tree.read_counters([2, 3, 4])
    with pytest.raises(ReplayError):
        tree.read_counter(3)


def test_tampered_interior_node_detected_by_batched_and_per_chunk_reads():
    tree, memory = make_tree(64, 4)
    node_address = tree._level_offsets[1]
    original = memory.tamper_read(node_address, 32)
    memory.tamper_write(node_address, bytes(b ^ 0xFF for b in original))
    with pytest.raises(ReplayError):
        tree.read_counters([0, 1])
    with pytest.raises(ReplayError):
        tree.read_counter(0)


def test_stats_reset_zeroes_all_counters():
    tree, _ = make_tree(16, 4)
    tree.read_counter(0)
    assert stats_tuple(tree) != (0, 0, 0, 0)
    tree.stats.reset()
    assert stats_tuple(tree) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Analytic DRAM model vs measured traffic (per-chunk and one-chunk batches)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_chunks,arity", [(1, 8), (2, 2), (9, 8), (16, 4), (100, 8)])
@pytest.mark.parametrize("batched", [False, True])
def test_analytic_model_matches_measured_traffic(num_chunks, arity, batched):
    tree, _ = make_tree(num_chunks, arity)
    read = tree.read_counters if batched else tree.read_counter
    increment = tree.increment_counters if batched else tree.increment_counter

    def one(index):
        return [index] if batched else index

    tree.stats.reset()
    for index in range(num_chunks):
        read(one(index))
    measured_read = tree.stats.bytes_read / num_chunks
    assert tree.stats.bytes_written == 0
    assert merkle_extra_dram_bytes(
        num_chunks, arity, writes_fraction=0.0
    ) == pytest.approx(measured_read, abs=1e-9)

    tree.stats.reset()
    for index in range(num_chunks):
        increment(one(index))
    measured_write = (tree.stats.bytes_read + tree.stats.bytes_written) / num_chunks
    assert merkle_extra_dram_bytes(
        num_chunks, arity, writes_fraction=1.0
    ) == pytest.approx(measured_write, abs=1e-9)

    blended = merkle_extra_dram_bytes(num_chunks, arity, writes_fraction=0.25)
    assert blended == pytest.approx(0.75 * measured_read + 0.25 * measured_write)


# ---------------------------------------------------------------------------
# Zero-copy chunk datapath
# ---------------------------------------------------------------------------


ZEROCOPY_REGION = RegionConfig(
    name="zerocopy",
    base_address=0x4000,
    size_bytes=64 * 256,
    chunk_size=256,
    engine_set="es",
)


def make_sealer():
    return RegionSealer(b"\x42" * 32, ZEROCOPY_REGION, EngineSetConfig(name="es"))


def make_reference():
    return ReferenceSealer(b"\x42" * 32, ZEROCOPY_REGION, EngineSetConfig(name="es"))


def test_batched_seal_shares_one_ciphertext_buffer():
    sealer = make_sealer()
    data = bytes((i * 31 + 7) % 256 for i in range(256 * 12 + 100))
    chunks = sealer.seal_region_data(data)
    assert len(chunks) == 13
    # Every ciphertext is a memoryview row of one shared backing buffer: the
    # whole seal pass made exactly one ciphertext allocation, with no
    # per-chunk slicing, padding, or bytes concatenation.
    assert all(isinstance(c.ciphertext, memoryview) for c in chunks)
    assert len({id(c.ciphertext.obj) for c in chunks}) == 1
    assert all(len(c.ciphertext) == 256 for c in chunks)
    # Tags stay bytes (hashable, protocol-compatible).
    assert all(isinstance(c.tag, bytes) and len(c.tag) == 16 for c in chunks)
    # The shared-buffer ciphertext matches the reference byte for byte.
    reference = make_reference().seal_region(data)
    assert [bytes(c.ciphertext) for c in chunks] == [c.ciphertext for c in reference]
    assert [c.tag for c in chunks] == [c.tag for c in reference]


def test_batched_unseal_chunks_shares_one_plaintext_buffer():
    sealer = make_sealer()
    data = bytes((i * 11 + 5) % 256 for i in range(256 * 6))
    chunks = sealer.seal_region_data(data)
    plaintexts = sealer.unseal_chunks(
        [c.chunk_index for c in chunks],
        [c.ciphertext for c in chunks],
        [c.tag for c in chunks],
    )
    assert all(isinstance(p, memoryview) for p in plaintexts)
    assert len({id(p.obj) for p in plaintexts}) == 1
    assert b"".join(plaintexts) == data


def test_unseal_region_data_round_trips_shared_buffers():
    sealer = make_sealer()
    reference = make_reference()
    data = bytes((i * 3 + 1) % 256 for i in range(256 * 5 + 17))
    chunks = sealer.seal_region_data(data)
    # The reference accepts memoryview ciphertexts, the sealer bytes ones.
    assert reference.unseal_region(chunks, length=len(data)) == data
    assert sealer.unseal_region_data(reference.seal_region(data), length=len(data)) == data
    assert sealer.unseal_region_data(chunks, length=len(data)) == data
