"""Engine models and chunk-sealing format tests."""

import pytest

import repro.obs as obs_api
from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import (
    AesEngine,
    MacEngine,
    build_engines,
    engine_set_authentication_rate,
    engine_set_crypto_rate,
    engine_set_encryption_rate,
)
from repro.core.sealing import (
    RegionSealer,
    SealedChunk,
    chunk_iv,
    chunk_mac_context,
    region_key,
)
from repro.crypto.hashes import sha256
from repro.errors import IntegrityError, ShieldError

DATA_KEY = b"\x2a" * 32


@pytest.fixture()
def region():
    return RegionConfig("weights", 0x1000, 4096, 512, "es0")


@pytest.fixture()
def engine_config():
    return EngineSetConfig(name="es0", sbox_parallelism=4, aes_key_bits=128)


def test_aes_engine_roundtrip_and_stats():
    engine = AesEngine(b"k" * 16, sbox_parallelism=4, key_bits=128)
    ciphertext = engine.encrypt(b"\x00" * 12, b"payload bytes")
    assert ciphertext != b"payload bytes"
    assert engine.decrypt(b"\x00" * 12, ciphertext) == b"payload bytes"
    assert engine.stats.bytes_encrypted == 13
    assert engine.stats.bytes_decrypted == 13


def test_aes_engine_key_size_mismatch():
    with pytest.raises(ShieldError):
        AesEngine(b"k" * 16, key_bits=256)


def test_aes_engine_throughput_scales_with_sbox():
    slow = AesEngine(b"k" * 16, sbox_parallelism=4)
    fast = AesEngine(b"k" * 16, sbox_parallelism=16)
    assert fast.bytes_per_cycle == pytest.approx(4 * slow.bytes_per_cycle)
    aes256 = AesEngine(b"k" * 32, sbox_parallelism=16, key_bits=256)
    assert aes256.bytes_per_cycle < fast.bytes_per_cycle


def test_mac_engine_tag_and_verify():
    engine = MacEngine(b"m" * 32, "HMAC")
    tag = engine.tag(b"chunk data")
    assert len(tag) == 16
    engine.verify(b"chunk data", tag)
    with pytest.raises(IntegrityError):
        engine.verify(b"chunk data!", tag)


def test_mac_engine_parallelizability_flag():
    assert MacEngine(b"m" * 32, "PMAC").parallelizable
    assert not MacEngine(b"m" * 32, "HMAC").parallelizable
    with pytest.raises(ShieldError):
        MacEngine(b"m" * 32, "GCM")


def test_engine_set_rate_model():
    hmac_set = EngineSetConfig(name="a", num_aes_engines=4, sbox_parallelism=16, mac_algorithm="HMAC")
    pmac_set = EngineSetConfig(
        name="b", num_aes_engines=4, sbox_parallelism=16, mac_algorithm="PMAC", num_mac_engines=4
    )
    # More AES engines increase encryption rate.
    assert engine_set_encryption_rate(hmac_set) == pytest.approx(64.0)
    # HMAC does not scale with engine count; PMAC does.
    more_hmac = EngineSetConfig(name="c", mac_algorithm="HMAC", num_mac_engines=8)
    assert engine_set_authentication_rate(more_hmac) == engine_set_authentication_rate(hmac_set)
    assert engine_set_authentication_rate(pmac_set) == pytest.approx(
        4 * engine_set_authentication_rate(
            EngineSetConfig(name="d", mac_algorithm="PMAC", num_mac_engines=1)
        )
    )
    # The sustainable rate is the minimum of the two.
    assert engine_set_crypto_rate(hmac_set) == engine_set_authentication_rate(hmac_set)
    # AES-256 lowers the encryption rate.
    aes256 = EngineSetConfig(name="e", num_aes_engines=1, sbox_parallelism=16, aes_key_bits=256)
    assert engine_set_encryption_rate(aes256) < 16.0


def test_build_engines_derive_distinct_keys(engine_config):
    aes_a, mac_a = build_engines(engine_config, b"\x01" * 32)
    aes_b, mac_b = build_engines(engine_config, b"\x02" * 32)
    assert aes_a.encrypt(b"\x00" * 12, b"x" * 16) != aes_b.encrypt(b"\x00" * 12, b"x" * 16)
    assert mac_a.tag(b"x") != mac_b.tag(b"x")


def test_region_key_separation():
    assert region_key(DATA_KEY, "weights") != region_key(DATA_KEY, "feature_maps")


def test_chunk_iv_uniqueness(region):
    ivs = {chunk_iv(region, index, version) for index in range(4) for version in range(3)}
    assert len(ivs) == 12
    other = RegionConfig("other", 0, 4096, 512, "es0")
    assert chunk_iv(region, 0, 0) != chunk_iv(other, 0, 0)


def test_region_name_is_hashed_once_for_its_iv_seed(engine_config, monkeypatch):
    """The IV seed depends only on the region name, so repeated seals and
    unseals of one region -- across sealers and keys -- hash it at most once."""
    import repro.core.sealing as sealing

    calls = []

    def counting_sha256(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(sealing, "sha256", counting_sha256)
    region = RegionConfig("iv-seed-once", 0x2000, 2048, 512, "es0")
    for key in (DATA_KEY, b"\x17" * 32):
        sealer = RegionSealer(key, region, engine_config)
        for version in range(3):
            sealed = sealer.seal_chunk(1, b"\x05" * 512, version=version)
            assert sealer.unseal_chunk(1, sealed.ciphertext, sealed.tag, version=version) == b"\x05" * 512
            chunks = sealer.seal_region_data(b"r" * 1500)
            assert sealer.unseal_region_data(chunks, length=1500) == b"r" * 1500
    assert chunk_iv(region, 3, 2) == sha256(b"iv-seed-once")[:4] + bytes([0, 0, 0, 3, 0, 0, 0, 2])
    assert len(calls) <= 1


def test_chunk_mac_context_binds_address_and_version(region):
    assert chunk_mac_context(region, 0, 0) != chunk_mac_context(region, 1, 0)
    assert chunk_mac_context(region, 0, 0) != chunk_mac_context(region, 0, 1)


def test_sealer_roundtrip(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    plaintext = bytes((i * 3) % 256 for i in range(512))
    sealed = sealer.seal_chunk(2, plaintext)
    assert sealed.ciphertext != plaintext
    assert sealer.unseal_chunk(2, sealed.ciphertext, sealed.tag) == plaintext


def test_sealer_rejects_wrong_chunk_index(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    sealed = sealer.seal_chunk(2, b"\x00" * 512)
    with pytest.raises(IntegrityError):
        sealer.unseal_chunk(3, sealed.ciphertext, sealed.tag)


def test_sealer_rejects_wrong_version(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    sealed = sealer.seal_chunk(0, b"\x11" * 512, version=4)
    assert sealer.unseal_chunk(0, sealed.ciphertext, sealed.tag, version=4) == b"\x11" * 512
    with pytest.raises(IntegrityError):
        sealer.unseal_chunk(0, sealed.ciphertext, sealed.tag, version=5)


def test_sealer_requires_exact_chunk_size(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    with pytest.raises(ShieldError):
        sealer.seal_chunk(0, b"short")


def test_seal_region_data_pads_and_bounds(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    chunks = sealer.seal_region_data(b"z" * 700)
    assert len(chunks) == 2
    assert sealer.unseal_region_data(chunks, length=700) == b"z" * 700
    with pytest.raises(ShieldError):
        sealer.seal_region_data(b"z" * 5000)


def test_sealer_mac_algorithm_variants(region):
    for algorithm in ("HMAC", "PMAC", "CMAC"):
        config = EngineSetConfig(name="es0", mac_algorithm=algorithm)
        sealer = RegionSealer(DATA_KEY, region, config)
        sealed = sealer.seal_chunk(1, b"\x22" * 512)
        assert sealer.unseal_chunk(1, sealed.ciphertext, sealed.tag) == b"\x22" * 512


# ---------------------------------------------------------------------------
# A chunk that is not exactly one chunk long is tampering
# ---------------------------------------------------------------------------


def _unseal_batch(sealer, chunks):
    return sealer.unseal_chunks(
        [c.chunk_index for c in chunks], [c.ciphertext for c in chunks], [c.tag for c in chunks]
    )


UNSEAL_ENTRY_POINTS = {
    "unseal_chunks": _unseal_batch,
    "unseal_region_data": lambda sealer, chunks: sealer.unseal_region_data(chunks),
    "unseal_chunk": lambda sealer, chunks: sealer.unseal_chunk(
        chunks[-1].chunk_index, chunks[-1].ciphertext, chunks[-1].tag
    ),
}


@pytest.mark.parametrize("entry_point", sorted(UNSEAL_ENTRY_POINTS))
@pytest.mark.parametrize("length", [100, 0, 600], ids=["short", "empty", "long"])
@pytest.mark.parametrize("valid_tag", [False, True], ids=["stored-tag", "valid-tag"])
def test_partial_chunk_is_rejected_as_tampering(region, engine_config, entry_point, length, valid_tag):
    obs = obs_api.Observability(tracer=obs_api.Tracer())
    sealer = RegionSealer(DATA_KEY, region, engine_config, obs=obs)
    chunks = sealer.seal_region_data(bytes(range(256)) * 4)
    whole = bytes(chunks[1].ciphertext)
    ciphertext = (whole + bytes(length))[:length]
    # A valid tag over the partial ciphertext is what only a forger holding
    # the key could make: sealing takes whole chunks only.
    tag = (
        sealer.mac_engine.tag(chunk_mac_context(region, 1, 0) + ciphertext)
        if valid_tag
        else chunks[1].tag
    )
    chunks[1] = SealedChunk(chunk_index=1, ciphertext=ciphertext, tag=tag)
    macs, ciphers = sealer.mac_engine.stats.operations, sealer.aes_engine.stats.operations

    with pytest.raises(IntegrityError, match="^HMAC tag mismatch$"):
        UNSEAL_ENTRY_POINTS[entry_point](sealer, chunks)

    failures = obs.tracer.security_events("mac_failure")
    assert len(failures) == 1
    assert failures[0].attrs["region"] == region.name
    # Rejected before any MAC or decrypt ran.
    assert sealer.mac_engine.stats.operations == macs
    assert sealer.aes_engine.stats.operations == ciphers


def test_empty_batches_unseal_to_nothing(region, engine_config):
    sealer = RegionSealer(DATA_KEY, region, engine_config)
    assert sealer.unseal_chunks([], [], []) == []
    assert sealer.unseal_region_data([]) == b""
    assert sealer.unseal_region_data([], length=10) == b""
