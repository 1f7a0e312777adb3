"""Conformance tests pinning every batched entry point to its scalar reference.

The fast/scalar parity checker (``repro.analysis``, checker ``fast-parity``)
requires each public ``*_many`` / ``*_array`` function to carry a
``@scalar_reference`` decorator *and* to appear in the test corpus.  This
module is that corpus entry for the array-native entry points: every test
drives a batched call and asserts byte-for-byte agreement with the
from-scratch references (:func:`~repro.crypto.modes.ctr_transform`,
:func:`~repro.crypto.mac.compute_mac` and the reference sealer).
"""

import numpy as np
import pytest

from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.engines import AesEngine, MacEngine
from repro.core.sealing import RegionSealer
from repro.crypto.fastaes import VectorAes
from repro.crypto.fasthash import BatchedMac, sha256_many_array
from repro.crypto.hashes import sha256
from repro.crypto.mac import compute_mac
from repro.crypto.modes import ctr_transform
from repro.crypto.aes import AES
from repro.errors import IntegrityError
from repro.hw.axi import AxiPort, memory_backed_handler
from repro.hw.memory import DeviceMemory
from tests.reference_sealer import ReferenceSealer


def _rows(n, length, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, length), dtype=np.uint8)


def _ivs(n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, 12), dtype=np.uint8)


KEY = bytes(range(16))


class TestAesEngineArrayParity:
    def test_encrypt_many_array_matches_ctr_transform(self):
        ivs, plaintexts = _ivs(5), _rows(5, 64)
        out = AesEngine(KEY).encrypt_many_array(ivs, plaintexts)
        for row in range(5):
            assert out[row].tobytes() == ctr_transform(
                AES(KEY), ivs[row].tobytes(), plaintexts[row].tobytes()
            )

    def test_decrypt_many_array_matches_ctr_transform(self):
        ivs, ciphertexts = _ivs(4, seed=3), _rows(4, 48, seed=4)
        out = AesEngine(KEY).decrypt_many_array(ivs, ciphertexts)
        for row in range(4):
            assert out[row].tobytes() == ctr_transform(
                AES(KEY), ivs[row].tobytes(), ciphertexts[row].tobytes()
            )


def _reference_tag(algorithm, message):
    key = KEY * 2 if algorithm == "HMAC" else KEY
    return compute_mac(algorithm, key, message)[:16]


class TestMacEngineArrayParity:
    @pytest.mark.parametrize("algorithm", ["HMAC", "PMAC", "CMAC"])
    def test_tag_many_array_matches_compute_mac(self, algorithm):
        messages = _rows(6, 80)
        tags = MacEngine(KEY * 2, algorithm).tag_many_array(messages)
        for row in range(6):
            assert tags[row].tobytes() == _reference_tag(
                algorithm, messages[row].tobytes()
            )

    def test_verify_many_array_accepts_reference_tags(self):
        messages = _rows(3, 40, seed=9)
        tags = [_reference_tag("HMAC", messages[row].tobytes()) for row in range(3)]
        MacEngine(KEY * 2, "HMAC").verify_many_array(messages, tags)  # must not raise

    def test_verify_many_array_rejects_tampering(self):
        engine = MacEngine(KEY * 2, "HMAC")
        messages = _rows(3, 40, seed=10)
        tags = [t.tobytes() for t in engine.tag_many_array(messages)]
        tags[1] = bytes(16)
        with pytest.raises(IntegrityError):
            engine.verify_many_array(messages, tags)


class TestCryptoArrayParity:
    def test_sha256_many_array_matches_sha256(self):
        messages = _rows(7, 55, seed=21)
        digests = sha256_many_array(messages)
        for row in range(7):
            assert digests[row].tobytes() == sha256(messages[row].tobytes())

    def test_ctr_transform_array_matches_ctr_transform(self):
        cipher = AES(KEY)
        vector = VectorAes(cipher)
        ivs, data = _ivs(5, seed=31), _rows(5, 100, seed=32)
        out = vector.ctr_transform_array(ivs, data)
        for row in range(5):
            assert out[row].tobytes() == ctr_transform(
                cipher, ivs[row].tobytes(), data[row].tobytes()
            )

    def test_batched_mac_tag_many_array_matches_compute_mac(self):
        batched = BatchedMac("PMAC", KEY)
        messages = _rows(5, 33, seed=41)
        tags = batched.tag_many_array(messages)
        for row in range(5):
            assert tags[row].tobytes() == compute_mac(
                "PMAC", KEY, messages[row].tobytes()
            )


class TestSealerArrayParity:
    REGION = RegionConfig(
        name="r0", base_address=0, size_bytes=512, chunk_size=64, engine_set="es"
    )

    def _sealers(self):
        config = EngineSetConfig(name="es")
        return (
            RegionSealer(b"\x42" * 32, self.REGION, config),
            ReferenceSealer(b"\x42" * 32, self.REGION, config),
        )

    def test_seal_chunks_array_matches_reference(self):
        sealer, reference = self._sealers()
        plaintexts = _rows(4, 64, seed=51)
        versions = [0, 3, 1, 7]
        sealed = sealer.seal_chunks_array([0, 1, 2, 3], plaintexts, versions)
        for row, chunk in enumerate(sealed):
            expected = reference.seal(row, plaintexts[row].tobytes(), versions[row])
            assert bytes(chunk.ciphertext) == expected.ciphertext
            assert chunk.tag == expected.tag

    def test_unseal_chunks_matches_reference(self):
        sealer, reference = self._sealers()
        plaintexts = _rows(4, 64, seed=52)
        expected = [reference.seal(row, plaintexts[row].tobytes()) for row in range(4)]
        out = sealer.unseal_chunks(
            [c.chunk_index for c in expected],
            [c.ciphertext for c in expected],
            [c.tag for c in expected],
        )
        for row, plain in enumerate(out):
            assert bytes(plain) == plaintexts[row].tobytes() == reference.unseal(
                row, expected[row].ciphertext, expected[row].tag
            )


class TestAxiPortManyParity:
    def _port(self):
        memory = DeviceMemory(size_bytes=1 << 16)
        return AxiPort(name="test", slave_handler=memory_backed_handler(memory))

    def test_read_many_matches_scalar_read(self):
        port = self._port()
        port.write(0, bytes(range(256)))
        spans = [(5, 10), (0, 4), (5, 10), (100, 56)]
        assert port.read_many(spans) == [
            port.read(address, length) for address, length in spans
        ]


def test_measure_many_matches_measure():
    # measure_many frames each component by length; a single component is
    # the framed hash, not measure(data) itself -- assert the documented
    # framing against the scalar measure() primitive.
    from repro.boot.measurement import measure, measure_many

    parts = [b"alpha", b"beta"]
    framed = b"".join(len(p).to_bytes(8, "big") + p for p in parts)
    assert measure_many(*parts) == measure(framed)
