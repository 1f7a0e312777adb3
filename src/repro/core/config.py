"""Shield configuration: the knobs an IP Vendor turns to build a bespoke TEE.

Section 5.2.2 of the paper enumerates the configuration space: one or more
engine sets, each with configurable AES engines (count, S-box parallelism,
key size), configurable authentication engines (HMAC or PMAC, count), a chunk
size ``C_mem`` per memory region, optional on-chip plaintext buffers, and
optional integrity counters for replay protection.  The register interface can
additionally encrypt register addresses.  These dataclasses capture that
space, validate it, and serialize into the bitstream container so the exact
configuration travels with the design.  Every field is a hardware parameter:
how the simulator computes the crypto is not configurable (the engines have
one functional datapath, see :mod:`repro.core.engines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

VALID_SBOX_PARALLELISM = (1, 2, 4, 8, 16)
VALID_AES_KEY_BITS = (128, 256)
VALID_MAC_ALGORITHMS = ("HMAC", "PMAC", "CMAC")
MAC_TAG_BYTES = 16  # tags stored in DRAM are 16 bytes (HMAC tags truncated)


@dataclass(frozen=True)
class EngineSetConfig:
    """Configuration of one engine set (crypto engines + buffer + counters)."""

    name: str
    num_aes_engines: int = 1
    sbox_parallelism: int = 4
    aes_key_bits: int = 128
    mac_algorithm: str = "HMAC"
    num_mac_engines: int = 1
    buffer_bytes: int = 0

    def validate(self) -> None:
        if self.num_aes_engines < 1:
            raise ConfigurationError(f"engine set {self.name!r} needs >= 1 AES engine")
        if self.sbox_parallelism not in VALID_SBOX_PARALLELISM:
            raise ConfigurationError(
                f"engine set {self.name!r}: S-box parallelism must be one of "
                f"{VALID_SBOX_PARALLELISM}, got {self.sbox_parallelism}"
            )
        if self.aes_key_bits not in VALID_AES_KEY_BITS:
            raise ConfigurationError(
                f"engine set {self.name!r}: AES key must be 128 or 256 bits"
            )
        if self.mac_algorithm not in VALID_MAC_ALGORITHMS:
            raise ConfigurationError(
                f"engine set {self.name!r}: MAC must be one of {VALID_MAC_ALGORITHMS}"
            )
        if self.num_mac_engines < 1:
            raise ConfigurationError(f"engine set {self.name!r} needs >= 1 MAC engine")
        if self.buffer_bytes < 0:
            raise ConfigurationError(f"engine set {self.name!r}: negative buffer size")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_aes_engines": self.num_aes_engines,
            "sbox_parallelism": self.sbox_parallelism,
            "aes_key_bits": self.aes_key_bits,
            "mac_algorithm": self.mac_algorithm,
            "num_mac_engines": self.num_mac_engines,
            "buffer_bytes": self.buffer_bytes,
        }

    @staticmethod
    def from_dict(data: dict) -> "EngineSetConfig":
        return EngineSetConfig(**data)


@dataclass(frozen=True)
class RegionConfig:
    """One protected memory region, served by exactly one engine set.

    ``chunk_size`` is the paper's C_mem: the granularity of authenticated
    encryption.  ``replay_protected`` enables on-chip integrity counters.
    ``streaming_write_only`` marks regions that are written once and never
    read back by the accelerator, letting the Shield zero-fill buffer lines
    instead of fetching them (Section 5.2.2, "On-chip buffers").
    """

    name: str
    base_address: int
    size_bytes: int
    chunk_size: int
    engine_set: str
    replay_protected: bool = False
    streaming_write_only: bool = False
    access_pattern: str = "streaming"  # "streaming" | "random" (documentation + timing hint)

    def validate(self) -> None:
        if self.base_address < 0:
            raise ConfigurationError(f"region {self.name!r}: negative base address")
        if self.size_bytes <= 0:
            raise ConfigurationError(f"region {self.name!r}: size must be positive")
        if self.chunk_size <= 0:
            raise ConfigurationError(f"region {self.name!r}: chunk size must be positive")
        if self.chunk_size > self.size_bytes:
            raise ConfigurationError(
                f"region {self.name!r}: chunk size {self.chunk_size} exceeds region size"
            )
        if self.size_bytes % self.chunk_size != 0:
            raise ConfigurationError(
                f"region {self.name!r}: size must be a multiple of the chunk size"
            )
        if self.access_pattern not in ("streaming", "random"):
            raise ConfigurationError(
                f"region {self.name!r}: access pattern must be 'streaming' or 'random'"
            )

    @property
    def end_address(self) -> int:
        return self.base_address + self.size_bytes

    @property
    def num_chunks(self) -> int:
        return self.size_bytes // self.chunk_size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base_address <= address and address + length <= self.end_address

    def chunk_index(self, address: int) -> int:
        """Index of the chunk containing ``address`` (region-relative)."""
        if not self.contains(address):
            raise ConfigurationError(
                f"address {address:#x} not inside region {self.name!r}"
            )
        return (address - self.base_address) // self.chunk_size

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base_address": self.base_address,
            "size_bytes": self.size_bytes,
            "chunk_size": self.chunk_size,
            "engine_set": self.engine_set,
            "replay_protected": self.replay_protected,
            "streaming_write_only": self.streaming_write_only,
            "access_pattern": self.access_pattern,
        }

    @staticmethod
    def from_dict(data: dict) -> "RegionConfig":
        return RegionConfig(**data)


@dataclass(frozen=True)
class RegisterInterfaceConfig:
    """Configuration of the AXI4-Lite register shield."""

    num_registers: int = 32
    encrypt_addresses: bool = False
    aes_key_bits: int = 128
    sbox_parallelism: int = 4
    mac_algorithm: str = "HMAC"

    def validate(self) -> None:
        if self.num_registers < 1:
            raise ConfigurationError("register interface needs at least one register")
        if self.aes_key_bits not in VALID_AES_KEY_BITS:
            raise ConfigurationError("register interface: AES key must be 128 or 256 bits")
        if self.sbox_parallelism not in VALID_SBOX_PARALLELISM:
            raise ConfigurationError("register interface: invalid S-box parallelism")
        if self.mac_algorithm not in VALID_MAC_ALGORITHMS:
            raise ConfigurationError("register interface: invalid MAC algorithm")

    def to_dict(self) -> dict:
        return {
            "num_registers": self.num_registers,
            "encrypt_addresses": self.encrypt_addresses,
            "aes_key_bits": self.aes_key_bits,
            "sbox_parallelism": self.sbox_parallelism,
            "mac_algorithm": self.mac_algorithm,
        }

    @staticmethod
    def from_dict(data: dict) -> "RegisterInterfaceConfig":
        return RegisterInterfaceConfig(**data)


@dataclass
class ShieldConfig:
    """The complete configuration of one Shield instance."""

    shield_id: str
    engine_sets: list = field(default_factory=list)
    regions: list = field(default_factory=list)
    register_interface: RegisterInterfaceConfig = field(
        default_factory=RegisterInterfaceConfig
    )
    tag_base_address: int | None = None

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises :class:`ConfigurationError`."""
        if not self.shield_id:
            raise ConfigurationError("shield_id must be a non-empty string")
        names = [e.name for e in self.engine_sets]
        if len(names) != len(set(names)):
            raise ConfigurationError("engine set names must be unique")
        for engine_set in self.engine_sets:
            engine_set.validate()
        self.register_interface.validate()

        region_names = [r.name for r in self.regions]
        if len(region_names) != len(set(region_names)):
            raise ConfigurationError("region names must be unique")
        for region in self.regions:
            region.validate()
            if region.engine_set not in names:
                raise ConfigurationError(
                    f"region {region.name!r} references unknown engine set "
                    f"{region.engine_set!r}"
                )
        ordered = sorted(self.regions, key=lambda r: r.base_address)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end_address > later.base_address:
                raise ConfigurationError(
                    f"regions {earlier.name!r} and {later.name!r} overlap"
                )
        if self.regions:
            tag_base = self.effective_tag_base()
            for region in self.regions:
                if region.base_address < tag_base + self.total_tag_bytes() and region.end_address > tag_base:
                    raise ConfigurationError(
                        f"region {region.name!r} overlaps the MAC tag area"
                    )

    # -- lookups ----------------------------------------------------------------

    def engine_set(self, name: str) -> EngineSetConfig:
        for engine_set in self.engine_sets:
            if engine_set.name == name:
                return engine_set
        raise ConfigurationError(f"no engine set named {name!r}")

    def region(self, name: str) -> RegionConfig:
        for region in self.regions:
            if region.name == name:
                return region
        raise ConfigurationError(f"no region named {name!r}")

    def region_for_address(self, address: int, length: int = 1) -> RegionConfig:
        for region in self.regions:
            if region.contains(address, length):
                return region
        raise ConfigurationError(
            f"address range [{address:#x}, {address + length:#x}) is not mapped "
            "to any protected region"
        )

    def regions_for_engine_set(self, name: str) -> list:
        return [r for r in self.regions if r.engine_set == name]

    # -- tag area layout ----------------------------------------------------------

    def effective_tag_base(self) -> int:
        """Base DRAM address of the MAC tag area (after the last region by default)."""
        if self.tag_base_address is not None:
            return self.tag_base_address
        if not self.regions:
            return 0
        highest = max(r.end_address for r in self.regions)
        # Align up to 4 KiB.
        return (highest + 4095) // 4096 * 4096

    def total_tag_bytes(self) -> int:
        return sum(r.num_chunks * MAC_TAG_BYTES for r in self.regions)

    def tag_address(self, region: RegionConfig, chunk_index: int) -> int:
        """DRAM address of the MAC tag for ``chunk_index`` of ``region``."""
        offset = 0
        for candidate in self.regions:
            if candidate.name == region.name:
                return self.effective_tag_base() + offset + chunk_index * MAC_TAG_BYTES
            offset += candidate.num_chunks * MAC_TAG_BYTES
        raise ConfigurationError(f"region {region.name!r} is not part of this Shield")

    # -- counter storage ------------------------------------------------------------

    def counter_bytes_required(self) -> int:
        """On-chip bytes needed by integrity counters (4 bytes per protected chunk)."""
        return sum(4 * r.num_chunks for r in self.regions if r.replay_protected)

    def buffer_bytes_required(self) -> int:
        """On-chip bytes needed by all engine-set buffers."""
        return sum(e.buffer_bytes for e in self.engine_sets)

    def on_chip_bytes_required(self) -> int:
        return self.counter_bytes_required() + self.buffer_bytes_required()

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "shield_id": self.shield_id,
            "engine_sets": [e.to_dict() for e in self.engine_sets],
            "regions": [r.to_dict() for r in self.regions],
            "register_interface": self.register_interface.to_dict(),
            "tag_base_address": self.tag_base_address,
        }

    @staticmethod
    def from_dict(data: dict) -> "ShieldConfig":
        return ShieldConfig(
            shield_id=data["shield_id"],
            engine_sets=[EngineSetConfig.from_dict(e) for e in data.get("engine_sets", [])],
            regions=[RegionConfig.from_dict(r) for r in data.get("regions", [])],
            register_interface=RegisterInterfaceConfig.from_dict(
                data.get("register_interface", RegisterInterfaceConfig().to_dict())
            ),
            tag_base_address=data.get("tag_base_address"),
        )
