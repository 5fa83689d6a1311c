"""Name-lookup cache (dcache): unit behaviour and twin equivalence.

The dcache is a host-side memoization of fully resolved path walks; it
must never change anything simulated.  The unit tests pin the cache's
own contract (generation invalidation, lazy expiry, FIFO bound,
accounting); the integration tests run the same probe sequences on twin
kernels built with ``name_cache=True`` and ``name_cache=False`` and
require byte-identical results, elapsed times, cache fingerprints, and
clocks — through residency loss, namespace churn, and metadata
mutation.
"""

from __future__ import annotations

import pytest

from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.errors import FileNotFound
from repro.sim.fs.dcache import NameCache, NameCacheStats, WalkEntry

KIB = 1024
MIB = 1024 * 1024
PAGE = 4 * KIB


def small_config() -> MachineConfig:
    return MachineConfig(
        page_size=PAGE,
        memory_bytes=40 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )


# ======================================================================
# Unit: the cache structure itself
# ======================================================================
class _FakeFS:
    def __init__(self, fs_id: int) -> None:
        self.fs_id = fs_id


class _FakeInode:
    def __init__(self, ino: int) -> None:
        self.ino = ino


def _store(cache: NameCache, path: str, fs_id: int = 0, ino: int = 7) -> WalkEntry:
    return cache.store(
        path, _FakeFS(fs_id), object(), _FakeInode(ino), (), 100, 3100
    )


class TestNameCacheUnit:
    def test_lookup_miss_counts(self):
        cache = NameCache()
        assert cache.lookup("/mnt0/ghost") is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_store_then_lookup_hit(self):
        cache = NameCache()
        entry = _store(cache, "/mnt0/f")
        assert cache.lookup("/mnt0/f") is entry
        assert entry.ino == 7
        assert entry.fs_id == 0
        assert (cache.hits, cache.misses, cache.stale) == (1, 0, 0)

    def test_invalidate_expires_lazily(self):
        cache = NameCache()
        _store(cache, "/mnt0/f")
        cache.invalidate(0)
        assert cache.invalidations == 1
        assert len(cache) == 1  # expiry is lazy...
        assert cache.lookup("/mnt0/f") is None
        assert len(cache) == 0  # ...the stale lookup deletes it
        assert (cache.hits, cache.misses, cache.stale) == (0, 1, 1)

    def test_invalidate_other_fs_keeps_entry(self):
        cache = NameCache()
        _store(cache, "/mnt0/f", fs_id=0)
        cache.invalidate(1)
        assert cache.lookup("/mnt0/f") is not None

    def test_generation_stamped_at_store_time(self):
        cache = NameCache()
        cache.invalidate(0)
        cache.invalidate(0)
        entry = _store(cache, "/mnt0/f")
        assert entry.generation == cache.generation_of(0) == 2
        assert cache.lookup("/mnt0/f") is entry

    def test_fifo_capacity_evicts_oldest(self):
        cache = NameCache(capacity=3)
        for i in range(4):
            _store(cache, f"/mnt0/f{i}")
        assert len(cache) == 3
        assert cache.lookup("/mnt0/f0") is None  # oldest out
        assert cache.lookup("/mnt0/f3") is not None

    def test_restore_of_present_path_does_not_evict(self):
        cache = NameCache(capacity=2)
        _store(cache, "/mnt0/a")
        _store(cache, "/mnt0/b")
        _store(cache, "/mnt0/a", ino=9)  # overwrite, not insert
        assert len(cache) == 2
        assert cache.lookup("/mnt0/b") is not None
        assert cache.lookup("/mnt0/a").ino == 9

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            NameCache(capacity=0)

    def test_clear(self):
        cache = NameCache()
        _store(cache, "/mnt0/f")
        cache.clear()
        assert len(cache) == 0

    def test_stats_snapshot_mirrors_live_counters(self):
        cache = NameCache()
        _store(cache, "/mnt0/f")
        cache.lookup("/mnt0/f")
        cache.lookup("/mnt0/ghost")
        cache.invalidate(0)
        cache.lookup("/mnt0/f")
        assert cache.stats == NameCacheStats(
            hits=1, misses=2, stale=1, invalidations=1
        )

    def test_hot_view_matches_lookup_semantics(self):
        """The fused-loop contract: same currency test as ``lookup``."""
        cache = NameCache()
        entry = _store(cache, "/mnt0/f")
        entries, entries_get, gen_get = cache.hot_view()
        got = entries_get("/mnt0/f")
        assert got is entry
        assert got.generation == gen_get(got.fs_id, 0)
        cache.invalidate(0)
        assert got.generation != gen_get(got.fs_id, 0)
        del entries["/mnt0/f"]  # the caller's stale-delete duty
        assert len(cache) == 0


# ======================================================================
# Integration: twin kernels, dcache on vs off
# ======================================================================
PATHS = [f"/mnt0/dir/f{i}" for i in range(8)]


def _populate(kernel: Kernel) -> None:
    def build():
        yield sc.mkdir("/mnt0/dir")
        for path in PATHS:
            fd = (yield sc.create(path)).value
            yield sc.write(fd, 700)
            yield sc.close(fd)
    kernel.run_process(build(), "setup")
    kernel.oracle.flush_file_cache()


def _twin(script_factory):
    """Run the same script on dcache-on and dcache-off kernels and
    demand identical return values, pool fingerprints, and clocks."""
    results = {}
    for on in (True, False):
        kernel = Kernel(small_config(), name_cache=on)
        _populate(kernel)
        value = kernel.run_process(script_factory(), f"dc{on}")
        stats = kernel.oracle.cache_stats()
        results[on] = (
            value,
            kernel.clock.now,
            kernel.oracle.file_pool_used_pages(),
            stats.hits,
            stats.misses,
            stats.evictions,
        )
    assert results[True] == results[False]
    return results[True][0]


class TestDcacheTwinEquivalence:
    def test_cold_then_warm_sweeps(self):
        def script():
            out = []
            for _ in range(3):
                for path in PATHS:
                    result = yield sc.stat(path)
                    out.append((result.value, result.elapsed_ns))
            return out
        out = _twin(script)
        cold, warm = out[: len(PATHS)], out[len(PATHS):]
        # Later cold probes share warmed directory/inode-table pages, so
        # only the first probe and the sweep total are strictly ordered.
        assert cold[0][1] > warm[0][1]
        assert sum(e for _s, e in cold) > sum(e for _s, e in warm)

    def test_batched_sweeps(self):
        def script():
            out = []
            for _ in range(3):
                result = yield sc.stat_batch(PATHS)
                out.extend((p.stat, p.elapsed_ns) for p in result.value)
            return out
        _twin(script)

    def test_namespace_churn_between_sweeps(self):
        """rename/unlink/create between sweeps: the dcache must expire,
        not serve the old namespace."""
        def script():
            out = []
            out.append((yield sc.stat_batch(PATHS)).value)
            yield sc.rename(PATHS[0], "/mnt0/dir/moved")
            yield sc.unlink(PATHS[1])
            fd = (yield sc.create(PATHS[1])).value  # fresh inode, old name
            yield sc.close(fd)
            survivors = ["/mnt0/dir/moved"] + PATHS[1:]
            for _ in range(2):
                out.append((yield sc.stat_batch(survivors)).value)
            return out
        _twin(script)

    def test_metadata_mutation_between_stats(self):
        """write/utimes between stats: memoized StatResults must not
        outlive the mutation (the stat-epoch tier)."""
        def script():
            path = PATHS[0]
            first = (yield sc.stat(path)).value
            fd = (yield sc.open(path)).value
            yield sc.write(fd, 3 * PAGE)
            yield sc.close(fd)
            second = (yield sc.stat(path)).value
            yield sc.utimes(path, 111, 222)
            third = (yield sc.stat(path)).value
            return first, second, third
        first, second, third = _twin(script)
        assert second.size == 3 * PAGE
        assert second.size != first.size
        assert (third.atime, third.mtime) == (111, 222)
        assert third.ctime >= second.ctime

    def test_residency_loss_mid_sequence(self):
        """flush_file_cache between sweeps: the memoized cells are dead,
        the fallback walk must recharge full miss costs."""
        results = {}
        for on in (True, False):
            kernel = Kernel(small_config(), name_cache=on)
            _populate(kernel)

            def sweep():
                result = yield sc.stat_batch(PATHS)
                return [(p.stat, p.elapsed_ns) for p in result.value]
            warm1 = kernel.run_process(sweep(), "w1")
            warm2 = kernel.run_process(sweep(), "w2")
            kernel.oracle.flush_file_cache()
            cold = kernel.run_process(sweep(), "cold")
            warm3 = kernel.run_process(sweep(), "w3")
            results[on] = (warm1, warm2, cold, warm3, kernel.clock.now)
        assert results[True] == results[False]
        _w1, warm2, cold, _w3, _now = results[True]
        assert cold[0][1] > warm2[0][1]
        assert sum(e for _s, e in cold) > sum(e for _s, e in warm2)


class TestDcacheKernelAccounting:
    """White-box: the cache's own counters (host-side, not simulated)."""

    def _kernel(self):
        kernel = Kernel(small_config())
        _populate(kernel)
        return kernel, kernel.vfs.dcache

    def test_warm_sweeps_hit(self):
        kernel, dcache = self._kernel()

        def sweep():
            yield sc.stat_batch(PATHS)
        kernel.run_process(sweep(), "s1")
        assert dcache.stats.hits == 0
        assert dcache.stats.misses == len(PATHS)
        kernel.run_process(sweep(), "s2")
        assert dcache.stats.hits == len(PATHS)

    def test_rename_expires_exactly_the_mutated_fs(self):
        kernel, dcache = self._kernel()

        def probe():
            yield sc.stat(PATHS[0])
        kernel.run_process(probe(), "p1")
        kernel.run_process(probe(), "p2")
        assert dcache.stats.hits == 1
        before = dcache.stats.invalidations

        def mutate():
            yield sc.rename(PATHS[0], "/mnt0/dir/new")
        kernel.run_process(mutate(), "mv")
        assert dcache.stats.invalidations > before

        def stat_old():
            yield sc.stat(PATHS[0])
        with pytest.raises(FileNotFound):
            kernel.run_process(stat_old(), "old")
        assert dcache.stats.stale >= 1

    def test_residency_loss_falls_back_without_counting_a_miss(self):
        """flush empties the pool: the lookup still *hits* (the walk is
        memoized and current), only the cell lookup falls back."""
        kernel, dcache = self._kernel()

        def probe():
            yield sc.stat(PATHS[0])
        kernel.run_process(probe(), "p1")
        kernel.oracle.flush_file_cache()
        kernel.run_process(probe(), "p2")
        assert dcache.stats.hits == 1
        kernel.run_process(probe(), "p3")
        assert dcache.stats.hits == 2

    def test_disabled_kernel_has_no_dcache(self):
        kernel = Kernel(small_config(), name_cache=False)
        _populate(kernel)
        assert kernel.vfs.dcache is None

        def probe():
            result = yield sc.stat(PATHS[0])
            return result.value.ino
        assert kernel.run_process(probe(), "p") > 0
