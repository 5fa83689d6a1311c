"""MachineConfig and platform personality validation."""

import pytest

from repro.sim.config import (
    KIB,
    MIB,
    DiskSpec,
    MachineConfig,
    PLATFORMS,
    linux22,
    netbsd15,
    solaris7,
)


class TestMachineConfig:
    def test_defaults_model_the_paper_machine(self):
        config = MachineConfig()
        assert config.memory_bytes == 896 * MIB
        # The paper's MAC experiments find 830 MB available (§4.3.3).
        assert config.available_bytes == 830 * MIB

    def test_available_pages(self):
        config = MachineConfig(
            page_size=4 * KIB, memory_bytes=40 * MIB, kernel_reserved_bytes=8 * MIB
        )
        assert config.available_pages == 32 * MIB // (4 * KIB)

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ValueError):
            MachineConfig(page_size=3000)

    def test_rejects_zero_page(self):
        with pytest.raises(ValueError):
            MachineConfig(page_size=0)

    def test_rejects_reserve_exceeding_memory(self):
        with pytest.raises(ValueError):
            MachineConfig(memory_bytes=8 * MIB, kernel_reserved_bytes=8 * MIB)

    def test_rejects_zero_data_disks(self):
        with pytest.raises(ValueError):
            MachineConfig(data_disks=0)

    def test_page_copy_cost_is_linear(self):
        config = MachineConfig()
        assert config.page_copy_ns(2000) == 2 * config.page_copy_ns(1000)

    def test_scaled_overrides_one_field(self):
        config = MachineConfig().scaled(page_size=64 * KIB)
        assert config.page_size == 64 * KIB
        assert config.memory_bytes == MachineConfig().memory_bytes

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            MachineConfig().page_size = 123  # type: ignore[misc]


class TestDiskSpec:
    def test_capacity_is_geometry_product(self):
        spec = DiskSpec()
        assert (
            spec.capacity_bytes
            == spec.sector_bytes * spec.sectors_per_track * spec.heads * spec.cylinders
        )

    def test_rotation_matches_rpm(self):
        spec = DiskSpec(rpm=10_000)
        assert spec.rotation_ns == 6_000_000  # 6 ms per revolution

    def test_track_bytes(self):
        spec = DiskSpec()
        assert spec.track_bytes == spec.sector_bytes * spec.sectors_per_track


class TestPlatforms:
    def test_three_personalities_registered(self):
        assert set(PLATFORMS) == {"linux22", "netbsd15", "solaris7"}

    def test_linux_is_unified_clock(self):
        assert linux22.make_pools(MachineConfig()).unified
        assert linux22.cache_policy == "clock"
        assert linux22.fixed_file_cache_bytes is None

    def test_netbsd_has_fixed_64mb_buffer_cache(self):
        assert netbsd15.fixed_file_cache_bytes == 64 * MIB
        assert not netbsd15.make_pools(MachineConfig()).unified
        assert netbsd15.cache_policy == "lru"

    def test_solaris_holds_pages_and_packs_loosely(self):
        assert solaris7.cache_policy == "segmap"
        assert solaris7.ffs_alloc_gap > 0
