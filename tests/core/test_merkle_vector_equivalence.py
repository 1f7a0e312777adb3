"""Merkle build and traffic pins, plus the zero-copy chunk seals.

The Bonsai Merkle baseline walks every path node by node.  Its initial
build is pinned by golden roots and per-node
:class:`~repro.core.merkle.MerkleStats` for a spread of tree shapes (values
recorded from the level-by-level build this node-by-node build replaced, so
both produce the same tree), its tamper detection by rolled-back leaves and
corrupted interior nodes, and its measured traffic by the analytic
:func:`~repro.core.merkle.merkle_extra_dram_bytes` model that feeds the
replay-protection ablation.  The second half checks the zero-copy contract
of the batched chunk datapath: one shared ciphertext buffer per seal pass,
no per-chunk ``bytes`` materialization.
"""

import pytest

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.merkle import BonsaiMerkleCounterTree, merkle_extra_dram_bytes
from repro.core.sealing import RegionSealer
from repro.errors import ReplayError
from repro.hw.axi import AxiPort, memory_backed_handler
from repro.hw.memory import DeviceMemory
from tests.reference_sealer import ReferenceSealer

SHAPES = [(1, 8), (2, 2), (5, 3), (9, 8), (16, 4), (100, 8), (256, 8)]

#: (num_chunks, arity) -> (root hex, (node_reads, node_writes, bytes_read,
#: bytes_written)) of a fresh tree keyed with b"k" * 32.
GOLDEN_BUILDS = {
    (1, 8): ("b96ec9a34ba44e47ee9273b73a376234ea1e47f24cc3ebf46a9acc3af306c419", (1, 1, 8, 8)),
    (2, 2): ("35d08ad17fac5957068a2eabc3098f96a9f4084fa4bb70619628ec159117ae11", (2, 2, 16, 16)),
    (5, 3): ("05d09020092d00ce1229ad4540e3db427e93734315e4f1790d2d30c313a89ce8", (7, 7, 104, 104)),
    (9, 8): ("255bd97a58d6c0ca30f08bdc5a4f15b2183d96996f5922229a493a7f8dbdff4a", (11, 11, 136, 136)),
    (16, 4): ("e3e162b0bf14a8e04176a035a7ed43046a509c96e9a1e1c7d0059edf4d33219a", (20, 20, 256, 256)),
    (100, 8): ("4807f59344c59378b83e550afbef8f23ed615e7930e3c5af336dd0d3ebb5eb86", (115, 115, 1280, 1280)),
    (256, 8): ("d44624a370dd900894ecb605601190d0d87512c37fc6fa6a8ac6da6a9cc2f0b0", (292, 292, 3200, 3200)),
}


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


# ---------------------------------------------------------------------------
# Build, tamper detection, stats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_chunks,arity", SHAPES)
def test_build_matches_golden_root_and_stats(num_chunks, arity):
    tree, _ = make_tree(num_chunks, arity)
    assert (tree.root().hex(), stats_tuple(tree)) == GOLDEN_BUILDS[(num_chunks, arity)]


def test_tampered_leaf_detected_by_read_counter():
    tree, memory = make_tree(64, 4)
    for index in (3, 4, 5):
        tree.increment_counter(index)
    leaf_address = tree._level_offsets[0] + 3 * 8
    memory.tamper_write(leaf_address, (0).to_bytes(8, "big"))
    with pytest.raises(ReplayError):
        tree.read_counter(3)


def test_tampered_interior_node_detected_by_read_counter():
    tree, memory = make_tree(64, 4)
    node_address = tree._level_offsets[1]
    original = memory.tamper_read(node_address, 32)
    memory.tamper_write(node_address, bytes(b ^ 0xFF for b in original))
    with pytest.raises(ReplayError):
        tree.read_counter(0)


def test_stats_reset_zeroes_all_counters():
    tree, _ = make_tree(16, 4)
    tree.read_counter(0)
    assert stats_tuple(tree) != (0, 0, 0, 0)
    tree.stats.reset()
    assert stats_tuple(tree) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Analytic DRAM model vs measured traffic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_chunks,arity", [(1, 8), (2, 2), (9, 8), (16, 4), (100, 8)])
def test_analytic_model_matches_measured_traffic(num_chunks, arity):
    tree, _ = make_tree(num_chunks, arity)

    tree.stats.reset()
    for index in range(num_chunks):
        tree.read_counter(index)
    measured_read = tree.stats.bytes_read / num_chunks
    assert tree.stats.bytes_written == 0
    assert merkle_extra_dram_bytes(
        num_chunks, arity, writes_fraction=0.0
    ) == pytest.approx(measured_read, abs=1e-9)

    tree.stats.reset()
    for index in range(num_chunks):
        tree.increment_counter(index)
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
