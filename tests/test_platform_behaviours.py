"""Platform-personality behaviours the paper observed, at unit scale."""

from repro.sim import Kernel, linux22, netbsd15, solaris7
from repro.sim import syscalls as sc
from repro.workloads.files import make_file
from tests.conftest import KIB, MIB, small_config


def scan(kernel, path, unit=1 * MIB):
    def app():
        t0 = (yield sc.gettime()).value
        fd = (yield sc.open(path)).value
        while not (yield sc.read(fd, unit)).value.eof:
            pass
        yield sc.close(fd)
        return (yield sc.gettime()).value - t0
    return kernel.run_process(app(), "scan")


class TestLinux22:
    def test_repeated_overcache_scan_is_lru_worst_case(self):
        kernel = Kernel(small_config(memory_bytes=24 * MIB, kernel_reserved_bytes=8 * MIB))
        kernel.run_process(make_file("/mnt0/f", 24 * MIB), "setup")
        kernel.oracle.flush_file_cache()
        first = scan(kernel, "/mnt0/f")
        second = scan(kernel, "/mnt0/f")
        # Warm run is no faster: every page was evicted before reuse.
        assert second > 0.9 * first

    def test_file_fitting_cache_stays_hot(self):
        kernel = Kernel(small_config())
        kernel.run_process(make_file("/mnt0/f", 4 * MIB), "setup")
        kernel.oracle.flush_file_cache()
        first = scan(kernel, "/mnt0/f")
        second = scan(kernel, "/mnt0/f")
        assert second < first / 10


class TestNetbsd15:
    def _kernel(self):
        return Kernel(
            small_config(memory_bytes=96 * MIB, kernel_reserved_bytes=8 * MIB),
            platform=netbsd15,
        )

    def test_file_cache_capped_at_64mb(self):
        kernel = self._kernel()
        kernel.run_process(make_file("/mnt0/f", 80 * MIB), "setup")
        used = kernel.oracle.file_pool_used_pages() * kernel.config.page_size
        assert used <= 64 * MIB

    def test_file_within_fixed_cache_is_hot(self):
        kernel = self._kernel()
        kernel.run_process(make_file("/mnt0/f", 32 * MIB), "setup")
        kernel.oracle.flush_file_cache()
        first = scan(kernel, "/mnt0/f")
        second = scan(kernel, "/mnt0/f")
        assert second < first / 10

    def test_anon_memory_does_not_shrink_file_cache(self):
        kernel = self._kernel()
        kernel.run_process(make_file("/mnt0/f", 32 * MIB), "setup")
        cached_before = kernel.oracle.cached_fraction("/mnt0/f")

        def hog():
            pages = 20 * MIB // kernel.config.page_size
            region = (yield sc.vm_alloc(20 * MIB)).value
            yield sc.touch_range(region, 0, pages)
        kernel.run_process(hog(), "hog")
        # Split pools: the heap cannot evict file pages.
        assert kernel.oracle.cached_fraction("/mnt0/f") == cached_before


class TestSolaris7:
    def _kernel(self, memory_mb=40):
        return Kernel(
            small_config(memory_bytes=memory_mb * MIB, kernel_reserved_bytes=8 * MIB),
            platform=solaris7,
        )

    def test_first_file_portion_is_hard_to_dislodge(self):
        """§4.1.3: 'once a file is placed in the Solaris file cache, it
        is quite difficult to dislodge, even under repeated scans of
        different files.'"""
        kernel = self._kernel()
        kernel.run_process(make_file("/mnt0/first", 16 * MIB), "setup")
        kernel.oracle.flush_file_cache()
        scan(kernel, "/mnt0/first")
        held_before = kernel.oracle.cached_fraction("/mnt0/first")
        for i in range(3):
            kernel.run_process(make_file(f"/mnt0/later{i}", 24 * MIB), "setup")
            scan(kernel, f"/mnt0/later{i}")
        assert kernel.oracle.cached_fraction("/mnt0/first") >= 0.9 * held_before

    def test_oversized_scan_keeps_a_prefix_resident(self):
        """The cache keeps 'a single portion of the file' so repeated
        scans hit — unlike the LRU worst case."""
        kernel = self._kernel()
        kernel.run_process(make_file("/mnt0/big", 48 * MIB), "setup")
        kernel.oracle.flush_file_cache()
        first = scan(kernel, "/mnt0/big")
        cached = kernel.oracle.cached_file_pages("/mnt0/big")
        assert cached  # a contiguous prefix survived
        assert 0 in cached
        second = scan(kernel, "/mnt0/big")
        assert second < 0.8 * first

    def test_small_files_packed_loosely(self):
        kernel = self._kernel()
        tight = Kernel(small_config(), platform=linux22)
        for k in (kernel, tight):
            def setup():
                yield sc.mkdir("/mnt0/d")
                for i in range(10):
                    yield from make_file(f"/mnt0/d/f{i}", 8 * KIB, sync=False)
            k.run_process(setup(), "setup")
        span = lambda k: (
            max(b for i in range(10) for b in k.oracle.file_blocks(f"/mnt0/d/f{i}"))
            - min(b for i in range(10) for b in k.oracle.file_blocks(f"/mnt0/d/f{i}"))
        )
        assert span(kernel) > span(tight)
