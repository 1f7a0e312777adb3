"""The vectorized AES engine vs the scalar reference on a 1 MiB round-trip.

Acceptance gate for the AES datapath: encrypting and decrypting a full
1 MiB region chunk-by-chunk through :class:`~repro.core.engines.AesEngine`
must be at least 5x faster than the same loop over the from-scratch
reference :func:`repro.crypto.modes.ctr_transform` (in practice the gap is
well over an order of magnitude), while producing byte-identical
ciphertext.  The reference is timed over a single pass -- it is the slow
path by definition -- so this module stays out of pytest-benchmark's repeat
machinery.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import random_bytes, record_bench
from repro.core.engines import AesEngine
from repro.crypto.aes import AES
from repro.crypto.modes import ctr_transform

REGION_BYTES = 1 << 20
CHUNK_BYTES = 4096
MIN_SPEEDUP = 5.0


def _chunks():
    data = random_bytes(0, REGION_BYTES)
    ivs = [
        random_bytes(1000 + index, 12)
        for index in range(REGION_BYTES // CHUNK_BYTES)
    ]
    chunks = [
        data[offset : offset + CHUNK_BYTES]
        for offset in range(0, REGION_BYTES, CHUNK_BYTES)
    ]
    return ivs, chunks


def _round_trip(encrypt, decrypt, ivs, chunks) -> tuple:
    start = time.perf_counter()
    ciphertexts = [encrypt(iv, chunk) for iv, chunk in zip(ivs, chunks)]
    plaintexts = [decrypt(iv, ct) for iv, ct in zip(ivs, ciphertexts)]
    elapsed = time.perf_counter() - start
    return elapsed, ciphertexts, plaintexts


def test_vectorized_round_trip_is_5x_faster_and_identical():
    key = random_bytes(2, 16)
    ivs, chunks = _chunks()

    cipher = AES(key)

    def reference(iv, data):
        return ctr_transform(cipher, iv, data)

    engine = AesEngine(key)
    engine.encrypt(ivs[0], chunks[0])  # warm up outside the timing

    reference_seconds, reference_cts, reference_pts = _round_trip(
        reference, reference, ivs, chunks
    )
    # The engine pass is sub-second, so one scheduling hiccup on a loaded CI
    # runner could dominate it; take the best of two passes for a stable ratio.
    engine_seconds, engine_cts, engine_pts = _round_trip(
        engine.encrypt, engine.decrypt, ivs, chunks
    )
    engine_seconds = min(
        engine_seconds, _round_trip(engine.encrypt, engine.decrypt, ivs, chunks)[0]
    )

    assert reference_cts == engine_cts, "the engine must be byte-identical"
    assert reference_pts == engine_pts == chunks, "round-trip must restore plaintext"

    speedup = reference_seconds / engine_seconds
    print(
        f"\n1 MiB round-trip: reference {reference_seconds:.2f}s, "
        f"engine {engine_seconds:.3f}s, speedup {speedup:.0f}x"
    )
    record_bench(
        "fastpath",
        "aes_ctr_1mib_round_trip",
        speedup=round(speedup, 2),
        reference_seconds=round(reference_seconds, 3),
        engine_seconds=round(engine_seconds, 4),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized path only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
    )


def test_batched_seal_matches_per_chunk_on_large_region():
    """The whole-region batch API is identical to chunk-at-a-time sealing."""
    from repro.core.config import EngineSetConfig, RegionConfig
    from repro.core.sealing import RegionSealer

    region = RegionConfig(
        name="bulk", base_address=0, size_bytes=256 * 1024, chunk_size=CHUNK_BYTES,
        engine_set="es",
    )
    sealer = RegionSealer(b"\x42" * 32, region, EngineSetConfig(name="es"))
    plaintext = random_bytes(3, 256 * 1024)
    sealed = sealer.seal_region_data(plaintext)
    assert len(sealed) == region.num_chunks
    per_chunk = [
        sealer.seal_chunk(index, plaintext[index * CHUNK_BYTES : (index + 1) * CHUNK_BYTES])
        for index in range(region.num_chunks)
    ]
    assert [c.ciphertext for c in sealed] == [c.ciphertext for c in per_chunk]
    assert [c.tag for c in sealed] == [c.tag for c in per_chunk]
    assert sealer.unseal_region_data(sealed) == plaintext


@pytest.mark.parametrize("chunk_bytes", [512, 4096])
def test_fast_chunk_seal_throughput(benchmark, chunk_bytes):
    """pytest-benchmark view of one engine chunk encryption (for trend tracking)."""
    key = random_bytes(4, 16)
    engine = AesEngine(key)
    iv = random_bytes(5, 12)
    chunk = random_bytes(6, chunk_bytes)
    engine.encrypt(iv, chunk)  # warm up outside the timing
    result = benchmark(engine.encrypt, iv, chunk)
    assert len(result) == chunk_bytes
