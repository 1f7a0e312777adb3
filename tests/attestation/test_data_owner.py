"""Data Owner tests: key generation, Load-Key wrapping, data sealing."""

from dataclasses import replace

import pytest

from repro.attestation.data_owner import DataOwner
from repro.crypto.rsa import rsa_decrypt
from repro.errors import AttestationError, IntegrityError
from tests.conftest import make_small_shield_config
from tests.reference_sealer import ReferenceSealer


@pytest.fixture()
def owner():
    return DataOwner("owner", seed=13)


@pytest.fixture()
def config():
    return make_small_shield_config("owner-shield")


def test_generate_and_lookup_data_key(owner):
    key = owner.generate_data_key("shield-a")
    assert owner.data_key("shield-a") is key
    assert key.bits == 256
    with pytest.raises(AttestationError):
        owner.data_key("shield-b")


def test_distinct_shields_get_distinct_keys(owner):
    a = owner.generate_data_key("shield-a")
    b = owner.generate_data_key("shield-b")
    assert a.material != b.material


def test_wrap_load_key_unwraps_to_data_key(owner, rsa_key):
    owner.generate_data_key("shield-a")
    delivery = owner.wrap_load_key(rsa_key.public_key.encode(), "shield-a")
    assert delivery.shield_id == "shield-a"
    assert rsa_decrypt(rsa_key, delivery.wrapped_key) == owner.data_key("shield-a").material


def test_wrap_load_key_not_decryptable_by_other_key(owner, rsa_key, small_rsa_key):
    owner.generate_data_key("shield-a")
    delivery = owner.wrap_load_key(rsa_key.public_key.encode(), "shield-a")
    with pytest.raises(Exception):
        rsa_decrypt(small_rsa_key, delivery.wrapped_key)


@pytest.mark.parametrize("key_bits", [128, 256])
@pytest.mark.parametrize("mac_algorithm", ["HMAC", "PMAC", "CMAC"])
def test_sealed_format_matches_reference_sealer(owner, mac_algorithm, key_bits):
    config = make_small_shield_config("format-shield", mac_algorithm=mac_algorithm)
    config.engine_sets = [
        replace(engine_set, aes_key_bits=key_bits) for engine_set in config.engine_sets
    ]
    key = owner.generate_data_key(config.shield_id).material
    plaintext = bytes((7 * i + 3) % 256 for i in range(3 * 256 + 100))  # padded tail

    staged = owner.seal_input(config, "input", plaintext, shield_id=config.shield_id)
    expected = ReferenceSealer(
        key, config.region("input"), config.engine_set("es-in")
    ).seal_region(plaintext)
    assert [bytes(c.ciphertext) for c in staged.sealed_chunks] == [
        c.ciphertext for c in expected
    ]
    assert staged.tags() == [c.tag for c in expected]

    versions = [5, 1, 0, 9]
    reference = ReferenceSealer(key, config.region("output"), config.engine_set("es-out"))
    sealed = reference.seal_region(plaintext, versions=versions)
    recovered = owner.unseal_output_with_versions(
        config, "output", sealed, versions, length=len(plaintext),
        shield_id=config.shield_id,
    )
    assert recovered == reference.unseal_region(sealed, len(plaintext), versions)
    assert recovered == plaintext
    with pytest.raises(IntegrityError):
        owner.unseal_output_with_versions(
            config, "output", sealed, [v + 1 for v in versions],
            shield_id=config.shield_id,
        )


def test_seal_and_unseal_region_data(owner, config):
    owner.generate_data_key(config.shield_id)
    plaintext = bytes(range(256)) * 5
    staged = owner.seal_input(config, "input", plaintext, shield_id=config.shield_id)
    assert staged.plaintext_length == len(plaintext)
    assert plaintext not in staged.flat_ciphertext()
    recovered = owner.unseal_output(
        config, "input", staged.sealed_chunks, length=len(plaintext), shield_id=config.shield_id
    )
    assert recovered == plaintext


def test_unseal_detects_tampered_chunk(owner, config):
    owner.generate_data_key(config.shield_id)
    staged = owner.seal_input(config, "input", b"q" * 600, shield_id=config.shield_id)
    staged.sealed_chunks[0].ciphertext = b"\x00" * len(staged.sealed_chunks[0].ciphertext)
    with pytest.raises(IntegrityError):
        owner.unseal_output(config, "input", staged.sealed_chunks, shield_id=config.shield_id)


def test_sealed_chunks_from_device_reconstruction(owner, config):
    owner.generate_data_key(config.shield_id)
    plaintext = b"reconstruct me please" * 30
    staged = owner.seal_input(config, "input", plaintext, shield_id=config.shield_id)
    rebuilt = DataOwner.sealed_chunks_from_device(
        config, "input", staged.flat_ciphertext(), staged.tags()
    )
    assert owner.unseal_output(
        config, "input", rebuilt, length=len(plaintext), shield_id=config.shield_id
    ) == plaintext


def test_register_channel_uses_shield_key(owner, config):
    owner.generate_data_key(config.shield_id)
    client = owner.register_channel(config, shield_id=config.shield_id)
    blob = client.seal_write(2, b"\x00\x00\x00\x2a")
    assert isinstance(blob, bytes) and len(blob) > 40
