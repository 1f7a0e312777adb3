"""The batched sealer and MAC engines vs the scalar references.

Acceptance gate for the batched authentication path: sealing and unsealing a
full 1 MiB region -- AES-CTR *and* the per-chunk MAC tags -- must be at least
5x faster through :class:`~repro.core.sealing.RegionSealer` than through the
chunk-at-a-time reference sealer (``tests/reference_sealer.py``), while
producing byte-identical ciphertext and tags.  A second measurement isolates
the MAC engines themselves
(:meth:`~repro.core.engines.MacEngine.tag_many_array` over one region's
worth of chunk-MAC messages, stacked as one ``(n, length)`` array, against a
loop of the reference :func:`~repro.crypto.mac.compute_mac`), since a
per-chunk MAC over
the pure-Python SHA-256 dominates the scalar reference's cost.  Both
speedups land in ``BENCH_fastpath.json`` for the CI artifact.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs_api
from benchmarks.conftest import crypto_percentiles, random_bytes, record_bench
from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import MacEngine
from repro.core.sealing import RegionSealer
from repro.crypto.mac import compute_mac
from tests.reference_sealer import ReferenceSealer

REGION_BYTES = 1 << 20
CHUNK_BYTES = 4096
MIN_ROUND_TRIP_SPEEDUP = 5.0
MIN_MAC_SPEEDUP = 2.0


REGION = RegionConfig(
    name="bench", base_address=0, size_bytes=REGION_BYTES, chunk_size=CHUNK_BYTES,
    engine_set="es",
)


def test_region_seal_unseal_with_macs_is_5x_faster_and_identical():
    plaintext = random_bytes(10, REGION_BYTES)

    # A live metrics registry so the sealer's own seal/unseal histograms
    # capture stage timings for the BENCH artifact.
    obs = obs_api.Observability(metrics=obs_api.MetricsRegistry())
    reference = ReferenceSealer(b"\x24" * 32, REGION, EngineSetConfig(name="es"))
    sealer = RegionSealer(b"\x24" * 32, REGION, EngineSetConfig(name="es"), obs=obs)
    # Warm the vectorized key schedules so setup cost is not in the timing.
    sealer.seal_chunk(0, plaintext[:CHUNK_BYTES])

    start = time.perf_counter()
    reference_sealed = reference.seal_region(plaintext)
    reference_plain = reference.unseal_region(reference_sealed, REGION_BYTES)
    reference_seconds = time.perf_counter() - start

    def sealer_round_trip():
        start = time.perf_counter()
        sealed = sealer.seal_region_data(plaintext)
        plain = sealer.unseal_region_data(sealed, REGION_BYTES)
        return time.perf_counter() - start, sealed, plain

    # The batched pass is sub-second; best of two absorbs CI scheduling noise.
    sealer_seconds, sealed, plain = sealer_round_trip()
    sealer_seconds = min(sealer_seconds, sealer_round_trip()[0])

    assert [c.ciphertext for c in reference_sealed] == [bytes(c.ciphertext) for c in sealed]
    assert [c.tag for c in reference_sealed] == [c.tag for c in sealed]
    assert reference_plain == plain == plaintext

    speedup = reference_seconds / sealer_seconds
    print(
        f"\n1 MiB seal+unseal (AES + MAC tags): reference {reference_seconds:.2f}s, "
        f"sealer {sealer_seconds:.3f}s, speedup {speedup:.0f}x"
    )
    record_bench(
        "fastpath",
        "region_seal_unseal_1mib_with_macs",
        speedup=round(speedup, 2),
        reference_seconds=round(reference_seconds, 3),
        sealer_seconds=round(sealer_seconds, 4),
        stages=crypto_percentiles(obs.metrics),
    )
    assert speedup >= MIN_ROUND_TRIP_SPEEDUP, (
        f"batched seal+unseal only {speedup:.1f}x faster "
        f"(need >= {MIN_ROUND_TRIP_SPEEDUP}x)"
    )


def _mac_messages() -> list:
    # One region's worth of chunk-MAC messages: 22-byte context + chunk ciphertext.
    data = random_bytes(11, REGION_BYTES)
    context = b"shef-chunk" + bytes(12)
    return [
        context + data[offset : offset + CHUNK_BYTES]
        for offset in range(0, REGION_BYTES, CHUNK_BYTES)
    ]


def _stack(messages: list) -> np.ndarray:
    """Equal-length messages as the engines' one batch shape, ``(n, length)``."""
    return np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(len(messages), -1)


def _reference_tags(algorithm: str, key: bytes, messages: list) -> tuple:
    """Time the from-scratch MAC loop the engine's batch must match."""
    start = time.perf_counter()
    tags = [compute_mac(algorithm, key, message)[:16] for message in messages]
    return time.perf_counter() - start, tags


def test_batched_hmac_engine_is_faster_and_identical():
    key = random_bytes(12, 32)
    messages = _mac_messages()
    engine = MacEngine(key, "HMAC")

    reference_seconds, reference_tags = _reference_tags("HMAC", key, messages)

    batch = _stack(messages)
    start = time.perf_counter()
    engine_tags = [tag.tobytes() for tag in engine.tag_many_array(batch)]
    engine_seconds = time.perf_counter() - start
    start = time.perf_counter()
    engine.tag_many_array(batch)
    engine_seconds = min(engine_seconds, time.perf_counter() - start)

    assert reference_tags == engine_tags, "batched HMAC must be byte-identical"
    speedup = reference_seconds / engine_seconds
    print(
        f"\n1 MiB of chunk MACs (HMAC): reference {reference_seconds:.2f}s, "
        f"engine {engine_seconds:.3f}s, speedup {speedup:.0f}x"
    )
    record_bench(
        "fastpath",
        "hmac_tag_many_1mib",
        speedup=round(speedup, 2),
        reference_seconds=round(reference_seconds, 3),
        engine_seconds=round(engine_seconds, 4),
    )
    assert speedup >= MIN_MAC_SPEEDUP, (
        f"batched HMAC only {speedup:.1f}x faster (need >= {MIN_MAC_SPEEDUP}x)"
    )


def test_batched_pmac_engine_is_faster_and_identical():
    # PMAC's scalar reference encrypts block-at-a-time in pure Python, so a
    # quarter region keeps the baseline measurement affordable.
    key = random_bytes(13, 32)
    messages = _mac_messages()[:64]
    engine = MacEngine(key, "PMAC")

    # PMAC engines key with the first 16 bytes of the 32-byte engine key.
    reference_seconds, reference_tags = _reference_tags("PMAC", key[:16], messages)

    batch = _stack(messages)
    start = time.perf_counter()
    engine_tags = [tag.tobytes() for tag in engine.tag_many_array(batch)]
    engine_seconds = time.perf_counter() - start

    assert reference_tags == engine_tags, "batched PMAC must be byte-identical"
    speedup = reference_seconds / engine_seconds
    print(
        f"\n256 KiB of chunk MACs (PMAC): reference {reference_seconds:.2f}s, "
        f"engine {engine_seconds:.3f}s, speedup {speedup:.0f}x"
    )
    record_bench(
        "fastpath",
        "pmac_tag_many_256kib",
        speedup=round(speedup, 2),
        reference_seconds=round(reference_seconds, 3),
        engine_seconds=round(engine_seconds, 4),
    )
    assert speedup >= MIN_MAC_SPEEDUP, (
        f"batched PMAC only {speedup:.1f}x faster (need >= {MIN_MAC_SPEEDUP}x)"
    )
