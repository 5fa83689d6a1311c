"""Kernel memory syscalls: faults, timing, pressure, swap."""

from repro.sim import Kernel, syscalls as sc
from repro.sim.errors import InvalidArgument
from tests.conftest import KIB, MIB, small_config


def run(kernel, gen):
    return kernel.run_process(gen, "test")


class TestTouchTiming:
    def test_first_touch_zero_fills_then_resident(self, kernel):
        def app():
            region = (yield sc.vm_alloc(16 * KIB)).value
            first = (yield sc.touch(region, 0)).elapsed_ns
            second = (yield sc.touch(region, 0)).elapsed_ns
            return first, second
        first, second = run(kernel, app())
        assert first >= kernel.config.page_zero_ns
        assert second == kernel.config.mem_touch_ns
        assert first > 5 * second

    def test_touch_range_returns_per_page_times(self, kernel):
        def app():
            region = (yield sc.vm_alloc(8 * 4 * KIB)).value
            result = yield sc.touch_range(region, 0, 8)
            return result.value, result.elapsed_ns
        times, total = run(kernel, app())
        assert len(times) == 8
        assert sum(times) == total

    def test_touch_outside_region_rejected(self, kernel):
        def app():
            region = (yield sc.vm_alloc(4 * KIB)).value
            try:
                yield sc.touch(region, 5)
            except InvalidArgument:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_touch_unknown_region_rejected(self, kernel):
        def app():
            try:
                yield sc.touch(42, 0)
            except InvalidArgument:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_vm_alloc_rejects_nonpositive(self, kernel):
        def app():
            try:
                yield sc.vm_alloc(0)
            except InvalidArgument:
                return "caught"
        assert run(kernel, app()) == "caught"


class TestPressure:
    def test_overcommit_swaps_and_swapin_is_slow(self):
        kernel = Kernel(small_config())
        available = kernel.config.available_pages

        def app():
            region = (yield sc.vm_alloc((available + 200) * 4 * KIB)).value
            yield sc.touch_range(region, 0, available + 200)
            # Page 0 was evicted long ago; touching it swaps in.
            result = yield sc.touch(region, 0)
            return result.elapsed_ns
        swapin_ns = run(kernel, app())
        # A disk access (>=100us), not a memory touch (~150ns/3us).
        assert swapin_ns > 100_000
        assert kernel.oracle.daemon_stats().anon_pages_swapped > 0

    def test_memory_pressure_produces_slow_points_in_succession(self):
        """The MAC signal: past the pool, slow touches recur regularly."""
        kernel = Kernel(small_config())
        available = kernel.config.available_pages

        def app():
            region = (yield sc.vm_alloc((available + 300) * 4 * KIB)).value
            times = (yield sc.touch_range(region, 0, available + 300)).value
            return times
        times = run(kernel, app())
        tail = times[-256:]
        slow = [t for t in tail if t > 100_000]
        assert len(slow) >= 2

    def test_vm_free_returns_memory(self, kernel):
        def app():
            pid = (yield sc.getpid()).value
            region = (yield sc.vm_alloc(64 * 4 * KIB)).value
            yield sc.touch_range(region, 0, 64)
            yield sc.vm_free(region)
            return pid
        pid = run(kernel, app())
        assert kernel.oracle.resident_anon_pages(pid) == 0

    def test_exit_releases_process_memory(self, kernel):
        def app():
            region = (yield sc.vm_alloc(64 * 4 * KIB)).value
            yield sc.touch_range(region, 0, 64)
            return (yield sc.getpid()).value
        pid = run(kernel, app())
        assert kernel.oracle.resident_anon_pages(pid) == 0

    def test_file_cache_yields_to_anon_allocation(self):
        """Unified pool: a growing heap steals from the file cache."""
        kernel = Kernel(small_config())

        def setup():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 16 * MIB)
            yield sc.fsync(fd)
            yield sc.close(fd)
        run(kernel, setup())
        cached_before = kernel.oracle.cached_fraction("/mnt0/f")

        def hog():
            pages = 24 * MIB // (4 * KIB)
            region = (yield sc.vm_alloc(pages * 4 * KIB)).value
            yield sc.touch_range(region, 0, pages)
        run(kernel, hog())
        assert kernel.oracle.cached_fraction("/mnt0/f") < cached_before

    def test_anon_pages_resist_file_streaming(self):
        """File-first reclaim: streaming reads never swap idle heaps."""
        kernel = Kernel(small_config())

        def holder():
            pages = 8 * MIB // (4 * KIB)
            region = (yield sc.vm_alloc(pages * 4 * KIB)).value
            yield sc.touch_range(region, 0, pages)
            # Stay alive (idle) while the streamer runs.
            yield sc.sleep(60_000_000_000)
            return (yield sc.getpid()).value

        def streamer():
            fd = (yield sc.create("/mnt0/big")).value
            yield sc.write(fd, 48 * MIB)
            yield sc.close(fd)
            fd = (yield sc.open("/mnt0/big")).value
            while not (yield sc.read(fd, MIB)).value.eof:
                pass
            yield sc.close(fd)

        holder_proc = kernel.spawn(holder(), "holder")
        kernel.spawn(streamer(), "streamer")
        kernel.run()
        assert kernel.oracle.daemon_stats().anon_pages_swapped == 0
        assert holder_proc.result is not None
