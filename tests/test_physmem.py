"""MemoryManager: pools, faults, reclaim, swap accounting."""

import pytest

from repro.sim.cache.base import AnonKey, FileKey, MetaKey
from repro.sim.config import MachineConfig, linux22, netbsd15
from repro.sim.errors import OutOfMemory
from repro.sim.vm.physmem import FaultKind, MemoryManager

KIB = 1024
MIB = 1024 * 1024


def make_mm(platform=linux22, available_mb: int = 1, page=4 * KIB) -> MemoryManager:
    config = MachineConfig(
        page_size=page,
        memory_bytes=(available_mb + 1) * MIB,
        kernel_reserved_bytes=1 * MIB,
        reclaim_batch_pages=4,
    )
    return MemoryManager(config, platform, swap_capacity_pages=10_000)


def fkey(i: int) -> FileKey:
    return FileKey(0, 1, i)


class TestUnifiedPools:
    def test_unified_flag(self):
        assert make_mm(linux22).unified
        assert not make_mm(netbsd15, available_mb=96).unified

    def test_file_and_anon_share_capacity_when_unified(self):
        mm = make_mm(linux22)
        assert mm.file_capacity_pages == mm.config.available_pages

    def test_netbsd_file_pool_is_fixed_64mb(self):
        mm = make_mm(netbsd15, available_mb=96)
        assert mm.file_capacity_pages == 64 * MIB // mm.config.page_size

    def test_netbsd_fixed_cache_must_fit(self):
        with pytest.raises(ValueError):
            make_mm(netbsd15, available_mb=32)  # 64 MB cache > 32 MB available


class TestFilePages:
    def test_insert_and_lookup(self):
        mm = make_mm()
        assert not mm.file_cached(fkey(0))
        mm.touch_file(fkey(0))
        assert mm.file_cached(fkey(0))

    def test_eviction_when_pool_full(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        victims = []
        for i in range(cap + 1):
            victims.extend(mm.touch_file(fkey(i)))
        assert victims  # something was reclaimed
        assert mm.file_pool_used() <= cap

    def test_reclaim_batches_at_least_configured_size(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        for i in range(cap):
            mm.touch_file(fkey(i))
        victims = mm.touch_file(fkey(cap))
        assert len(victims) >= mm.config.reclaim_batch_pages

    def test_dirty_counter_tracks_transitions(self):
        mm = make_mm()
        assert mm.dirty_file_pages == 0
        mm.touch_file(fkey(0), dirty=True)
        mm.touch_file(fkey(0), dirty=True)  # no double count
        assert mm.dirty_file_pages == 1
        mm.mark_file_clean(fkey(0))
        assert mm.dirty_file_pages == 0

    def test_drop_dirty_page_decrements_counter(self):
        mm = make_mm()
        mm.touch_file(fkey(0), dirty=True)
        mm.drop_file_page(fkey(0))
        assert mm.dirty_file_pages == 0

    def test_flush_takes_oldest_dirty_in_order(self):
        mm = make_mm()
        mm.touch_file(fkey(0), dirty=True)
        mm.touch_file(fkey(1))
        mm.touch_file(fkey(2), dirty=True)
        assert mm.flush_oldest_dirty(5) == [fkey(0), fkey(2)]

    def test_flush_cleans_and_demotes(self):
        mm = make_mm()
        for i in range(3):
            mm.touch_file(fkey(i), dirty=(i != 1))
        assert mm.flush_oldest_dirty(1) == [fkey(0)]
        assert mm.dirty_file_pages == 1
        assert not mm.file_page_dirty(fkey(0))
        assert mm.file_page_dirty(fkey(2))
        assert mm.flush_oldest_dirty(1) == [fkey(2)]
        assert mm.dirty_file_pages == 0
        # Each flushed page moved to the eviction front, latest first.
        assert list(mm.file_keys()) == [fkey(2), fkey(0), fkey(1)]
        assert mm.file_pool_stats().demotions == 2

    def test_clean_file_pages_is_per_file_and_bounded(self):
        mm = make_mm()
        for i in (3, 0, 5):
            mm.touch_file(fkey(i), dirty=True)
        mm.touch_file(FileKey(0, 2, 0), dirty=True)
        assert mm.clean_file_pages(0, 1, 5) == [0, 3]
        assert mm.file_page_dirty(fkey(5))  # at or past the bound
        assert mm.file_page_dirty(FileKey(0, 2, 0))  # another file
        assert mm.dirty_file_pages == 2
        assert mm.clean_file_pages(0, 1, 5) == []

    def test_meta_keys_live_in_file_pool(self):
        mm = make_mm()
        mm.touch_file(MetaKey(0, 3), dirty=True)
        assert mm.file_cached(MetaKey(0, 3))
        assert mm.dirty_file_pages == 1


class TestAnonFaults:
    def test_first_touch_zero_fills(self):
        mm = make_mm()
        fault = mm.anon_fault(AnonKey(1, 0), touched_before=False)
        assert fault.kind is FaultKind.ZERO_FILL

    def test_second_touch_is_resident(self):
        mm = make_mm()
        mm.anon_fault(AnonKey(1, 0), touched_before=False)
        fault = mm.anon_fault(AnonKey(1, 0), touched_before=True)
        assert fault.kind is FaultKind.RESIDENT

    def test_resident_counter(self):
        mm = make_mm()
        for i in range(5):
            mm.anon_fault(AnonKey(1, i), touched_before=False)
        assert mm.resident_anon_pages(1) == 5
        assert mm.resident_anon_pages(2) == 0

    def test_evicted_anon_page_swaps_in_on_return(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        first = AnonKey(1, 0)
        mm.anon_fault(first, touched_before=False)
        # Fill the rest of memory with anon pages to force the first out.
        for i in range(1, cap + mm.config.reclaim_batch_pages + 1):
            mm.anon_fault(AnonKey(1, i), touched_before=False)
        assert not mm.anon_resident(first)
        assert mm.swap.slot_of(first) is not None
        fault = mm.anon_fault(first, touched_before=True)
        assert fault.kind is FaultKind.SWAP_IN
        assert fault.swapin_slot is not None
        assert mm.swap.slot_of(first) is None  # slot released on swap-in

    def test_file_pages_evicted_before_anon_in_unified_pool(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        for i in range(cap // 2):
            mm.anon_fault(AnonKey(1, i), touched_before=False)
        victims = []
        for i in range(cap):
            victims.extend(mm.touch_file(fkey(i)))
        assert victims
        assert all(not isinstance(v.key, AnonKey) for v in victims)

    def test_free_anon_pages_releases_residency_and_swap(self):
        mm = make_mm()
        keys = [AnonKey(1, i) for i in range(4)]
        for key in keys:
            mm.anon_fault(key, touched_before=False)
        freed = mm.free_anon_pages(1, keys)
        assert freed == 4
        assert mm.resident_anon_pages(1) == 0

    def test_release_process_clears_everything(self):
        mm = make_mm()
        keys = [AnonKey(7, i) for i in range(3)]
        for key in keys:
            mm.anon_fault(key, touched_before=False)
        mm.release_process(7, keys)
        assert mm.resident_anon_pages(7) == 0
        assert all(not mm.anon_resident(k) for k in keys)


class TestDaemonStats:
    def test_activation_and_counter_accounting(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        for i in range(cap + 1):
            mm.touch_file(fkey(i), dirty=(i % 2 == 0))
        stats = mm.daemon_stats
        assert stats.activations >= 1
        assert stats.pages_reclaimed >= mm.config.reclaim_batch_pages
        assert stats.file_pages_written + stats.file_pages_dropped == stats.pages_reclaimed

    def test_snapshot_delta(self):
        mm = make_mm()
        cap = mm.file_capacity_pages
        for i in range(cap + 1):
            mm.touch_file(fkey(i))
        before = mm.daemon_stats.snapshot()
        for i in range(cap + 1, cap + 200):
            mm.touch_file(fkey(i))
        delta = mm.daemon_stats.delta(before)
        assert delta.pages_reclaimed > 0
        assert delta.pages_reclaimed <= mm.daemon_stats.pages_reclaimed


class TestOutOfMemory:
    def test_oom_when_nothing_reclaimable(self):
        config = MachineConfig(
            page_size=4 * KIB,
            memory_bytes=2 * MIB,
            kernel_reserved_bytes=1 * MIB,
        )
        mm = MemoryManager(config, linux22, swap_capacity_pages=4)
        cap = config.available_pages
        with pytest.raises(OutOfMemory):
            # Swap has only 4 slots; filling memory with anon twice over
            # must eventually exhaust it.
            for i in range(3 * cap):
                mm.anon_fault(AnonKey(1, i), touched_before=False)
