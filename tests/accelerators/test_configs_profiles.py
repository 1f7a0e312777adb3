"""Per-accelerator Shield configurations and analytical profiles."""

import pytest

from repro.accelerators import ALL_ACCELERATORS
from repro.accelerators.affine import AffineTransformAccelerator
from repro.accelerators.bitcoin import BitcoinAccelerator
from repro.accelerators.convolution import ConvolutionAccelerator
from repro.accelerators.digit_recognition import DigitRecognitionAccelerator
from repro.accelerators.dnnweaver import DnnWeaverAccelerator
from repro.accelerators.sdp import SdpStorageNodeAccelerator
from repro.accelerators.vector_add import VectorAddAccelerator
from repro.errors import SimulationError


@pytest.mark.parametrize("name,accelerator_cls", sorted(ALL_ACCELERATORS.items()))
def test_default_configs_validate(name, accelerator_cls):
    accelerator = accelerator_cls()
    config = accelerator.build_shield_config()
    config.validate()
    assert config.shield_id
    assert accelerator.describe()["name"] == accelerator.name


@pytest.mark.parametrize("name,accelerator_cls", sorted(ALL_ACCELERATORS.items()))
def test_configs_validate_across_aes_variants(name, accelerator_cls):
    accelerator = accelerator_cls()
    for key_bits in (128, 256):
        for sbox in (4, 16):
            accelerator.build_shield_config(aes_key_bits=key_bits, sbox_parallelism=sbox).validate()


@pytest.mark.parametrize("name,accelerator_cls", sorted(ALL_ACCELERATORS.items()))
def test_profiles_have_positive_baseline(name, accelerator_cls):
    from repro.core.timing import TimingModel

    accelerator = accelerator_cls()
    profile = accelerator.profile()
    assert TimingModel().baseline(profile).total_cycles > 0


def test_paper_scale_configs_validate():
    ConvolutionAccelerator().paper_shield_config().validate()
    AffineTransformAccelerator().paper_shield_config().validate()


@pytest.mark.parametrize("name,accelerator_cls", sorted(ALL_ACCELERATORS.items()))
def test_paper_config_defaults_to_the_functional_config(name, accelerator_cls):
    """Only the workloads scaled down from the paper override the paper-scale
    config; every other one falls back to ``build_shield_config``."""
    accelerator = accelerator_cls()
    paper = accelerator.paper_shield_config(sbox_parallelism=4).to_dict()
    functional = accelerator.build_shield_config(sbox_parallelism=4).to_dict()
    overridden = accelerator_cls in (ConvolutionAccelerator, AffineTransformAccelerator)
    assert (paper != functional) == overridden


def test_vector_add_layout_and_partitioning():
    accelerator = VectorAddAccelerator(vector_bytes=16384)
    config = accelerator.build_shield_config()
    assert len(config.engine_sets) == 8
    assert len(config.regions) == 12
    assert accelerator.region_base("a0") == 0
    assert accelerator.region_base("c0") > accelerator.region_base("b3")
    with pytest.raises(SimulationError):
        VectorAddAccelerator(vector_bytes=1000)  # not partitionable


def test_vector_add_profile_scales_with_size():
    accelerator = VectorAddAccelerator()
    small = accelerator.profile(vector_bytes=8 * 1024)
    large = accelerator.profile(vector_bytes=8 * 1024 * 1024)
    assert large.total_bytes == 1024 * small.total_bytes


def test_dnnweaver_paper_config_matches_section_624():
    config = DnnWeaverAccelerator().build_shield_config()
    weights = config.engine_set("weights")
    fmaps = config.engine_set("fmaps")
    assert weights.num_aes_engines == 4 and weights.buffer_bytes == 128 * 1024
    assert fmaps.buffer_bytes == 64 * 1024
    assert config.region("weights").chunk_size == 4096
    assert config.region("feature_maps").chunk_size == 64
    assert config.region("feature_maps").replay_protected
    assert not config.region("weights").replay_protected


def test_dnnweaver_pmac_variant():
    config = DnnWeaverAccelerator().build_shield_config(pmac_weights=True)
    assert config.engine_set("weights").mac_algorithm == "PMAC"
    assert config.engine_set("weights").num_mac_engines == 4
    assert config.engine_set("fmaps").mac_algorithm == "HMAC"


def test_digit_recognition_config_buffers():
    config = DigitRecognitionAccelerator().build_shield_config()
    # Section 6.2.4: 24 KB of input buffer and 12 KB of output buffer in total.
    input_buffer = sum(
        config.engine_set(name).buffer_bytes for name in ("in0", "in1")
    )
    assert input_buffer == 24 * 1024
    assert config.engine_set("out0").buffer_bytes == 12 * 1024


def test_affine_uses_64_byte_chunks():
    config = AffineTransformAccelerator().build_shield_config()
    assert all(region.chunk_size == 64 for region in config.regions)


def test_bitcoin_is_register_only():
    config = BitcoinAccelerator().build_shield_config()
    assert config.regions == []
    assert config.engine_sets == []
    assert config.register_interface.encrypt_addresses
    profile = BitcoinAccelerator().profile()
    assert profile.regions == ()
    assert profile.compute_cycles > 0


def test_sdp_table2_variants_validate():
    accelerator = SdpStorageNodeAccelerator()
    for engines, sbox, mac, mac_engines in (
        (4, 4, "HMAC", 1), (4, 16, "HMAC", 1), (4, 16, "PMAC", 4),
        (8, 16, "PMAC", 8), (16, 16, "PMAC", 16),
    ):
        config = accelerator.build_shield_config(
            num_aes_engines=engines, sbox_parallelism=sbox,
            mac_algorithm=mac, num_mac_engines=mac_engines,
        )
        config.validate()
        assert config.engine_set("storage").num_aes_engines == engines
        assert config.engine_set("tls").mac_algorithm == mac
