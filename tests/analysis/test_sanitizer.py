"""Runtime sanitizer tests: aliasing freeze and thread ownership.

These are the dynamic twins of the static checkers: with the sanitizer
enabled, a write to a shared backing array raises, and a cross-thread call
to a ``@loop_owned`` method raises.
"""

import threading

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.annotations import loop_owned
from repro.core.config import EngineSetConfig, RegionConfig
from repro.core.sealing import RegionSealer


@pytest.fixture
def sanitize():
    sanitizer.enable()
    yield
    sanitizer.disable()


def _sealer():
    region = RegionConfig(
        name="r0", base_address=0, size_bytes=512, chunk_size=64, engine_set="es"
    )
    return RegionSealer(b"\x42" * 32, region, EngineSetConfig(name="es"))


def _chunk_rows(n=4, length=64, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, length), dtype=np.uint8)


class TestAliasingFreeze:
    def test_seeded_aliasing_write_is_caught(self, sanitize):
        """Writing through a live SealedChunk row's backing buffer must raise."""
        sealer = _sealer()
        sealed = sealer.seal_chunks_array([0, 1, 2, 3], _chunk_rows())
        assert isinstance(sealed[0].ciphertext, memoryview)
        with pytest.raises(TypeError):
            sealed[0].ciphertext[0] = 0

    def test_unseal_rows_are_frozen(self, sanitize):
        sealer = _sealer()
        sealed = sealer.seal_chunks_array([0, 1, 2, 3], _chunk_rows(seed=6))
        plaintexts = sealer.unseal_chunks(
            [c.chunk_index for c in sealed],
            [c.ciphertext for c in sealed],
            [c.tag for c in sealed],
        )
        with pytest.raises(TypeError):
            plaintexts[0][0] = 0

    def test_rows_still_readable_and_correct(self, sanitize):
        sealer = _sealer()
        rows = _chunk_rows(seed=7)
        sealed = sealer.seal_chunks_array([0, 1, 2, 3], rows)
        plaintexts = sealer.unseal_chunks(
            [c.chunk_index for c in sealed],
            [c.ciphertext for c in sealed],
            [c.tag for c in sealed],
        )
        for row in range(4):
            assert bytes(plaintexts[row]) == rows[row].tobytes()

    def test_rows_stay_writable_when_disabled(self):
        sealer = _sealer()
        sealed = sealer.seal_chunks_array([0, 1], _chunk_rows(n=2, seed=8))
        sealed[0].ciphertext[0] = 0  # no sanitizer: buffer untouched, still writable
        array = np.zeros(4, dtype=np.uint8)
        sanitizer.freeze(array)
        array[0] = 1  # freeze() is a no-op when disabled


class LoopOwnedProbe:
    def __init__(self):
        self.calls = 0

    @loop_owned
    def touch(self):
        self.calls += 1


class TestThreadOwnership:
    def test_same_thread_calls_pass(self, sanitize):
        probe = LoopOwnedProbe()
        probe.touch()
        probe.touch()
        assert probe.calls == 2

    def test_cross_thread_call_raises(self, sanitize):
        probe = LoopOwnedProbe()
        probe.touch()  # binds ownership to this thread
        failures = []

        def cross_call():
            try:
                probe.touch()
            except sanitizer.SanitizerError as exc:
                failures.append(exc)

        thread = threading.Thread(target=cross_call)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "touch" in str(failures[0])

    def test_disabled_sanitizer_allows_cross_thread(self):
        probe = LoopOwnedProbe()
        probe.touch()
        thread = threading.Thread(target=probe.touch)
        thread.start()
        thread.join()
        assert probe.calls == 2

    def test_release_owner_rebinds(self, sanitize):
        probe = LoopOwnedProbe()
        probe.touch()
        sanitizer.release_owner(probe)
        done = []
        thread = threading.Thread(target=lambda: (probe.touch(), done.append(True)))
        thread.start()
        thread.join()
        assert done == [True]
