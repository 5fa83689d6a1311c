"""Kernel corner cases not covered elsewhere."""

from repro.sim import Kernel, syscalls as sc
from repro.sim.errors import InvalidArgument
from tests.conftest import KIB, MIB, small_config


def run(kernel, gen):
    return kernel.run_process(gen, "test")


class TestReadModifyWrite:
    def test_partial_overwrite_of_cold_page_reads_it_first(self, kernel):
        def setup():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 8 * KIB)
            yield sc.fsync(fd)
            yield sc.close(fd)
        run(kernel, setup())
        kernel.oracle.flush_file_cache()
        stats = kernel.oracle.disk_stats(0)
        before = stats.sectors_read

        def partial_write():
            fd = (yield sc.open("/mnt0/f")).value
            yield sc.pwrite(fd, 100, 50)  # middle of page 0
            yield sc.close(fd)
        run(kernel, partial_write())
        assert stats.sectors_read > before  # RMW read happened

    def test_full_page_overwrite_skips_the_read(self, kernel):
        page = kernel.config.page_size

        def setup():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 4 * page)
            yield sc.fsync(fd)
            yield sc.close(fd)
        run(kernel, setup())
        kernel.oracle.flush_file_cache()
        stats = kernel.oracle.disk_stats(0)
        marks = {}

        def full_write():
            fd = (yield sc.open("/mnt0/f")).value  # resolve reads metadata
            marks["before"] = stats.sectors_read
            yield sc.pwrite(fd, 0, page)  # exactly page 0
            marks["after"] = stats.sectors_read
            yield sc.close(fd)
        run(kernel, full_write())
        assert marks["after"] == marks["before"]  # no RMW read needed


class TestSparseAndZero:
    def test_write_far_past_eof_creates_hole_pages(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.pwrite(fd, 64 * KIB, 10)
            st = (yield sc.fstat(fd)).value
            data = (yield sc.pread(fd, 0, 10)).value
            yield sc.close(fd)
            return st.size, data.nbytes
        size, readable = run(kernel, app())
        assert size == 64 * KIB + 10
        assert readable == 10  # hole region reads as data (zeroes)

    def test_zero_length_write_is_noop(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            wrote = (yield sc.write(fd, 0)).value
            st = (yield sc.fstat(fd)).value
            yield sc.close(fd)
            return wrote, st.size
        assert run(kernel, app()) == (0, 0)

    def test_read_of_empty_file_is_eof(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            result = (yield sc.read(fd, 100)).value
            yield sc.close(fd)
            return result.eof
        assert run(kernel, app()) is True


class TestMetadataCaching:
    def test_repeated_stats_hit_the_inode_cache(self, kernel):
        def setup():
            yield sc.mkdir("/mnt0/d")
            for i in range(8):
                fd = (yield sc.create(f"/mnt0/d/f{i}")).value
                yield sc.close(fd)
        run(kernel, setup())
        kernel.oracle.flush_file_cache()

        def stat_twice():
            first = (yield sc.stat("/mnt0/d/f3")).elapsed_ns
            second = (yield sc.stat("/mnt0/d/f3")).elapsed_ns
            return first, second
        first, second = run(kernel, stat_twice())
        assert first > 20 * second  # cold resolve vs cached metadata

    def test_stats_of_neighbouring_files_share_inode_blocks(self, kernel):
        """The §4.2.2 observation: stat of one file makes its neighbours'
        stats cheap because 32 inodes share a table block."""
        def setup():
            yield sc.mkdir("/mnt0/d")
            for i in range(8):
                fd = (yield sc.create(f"/mnt0/d/f{i}")).value
                yield sc.close(fd)
        run(kernel, setup())
        kernel.oracle.flush_file_cache()

        def stat_all():
            times = []
            for i in range(8):
                times.append((yield sc.stat(f"/mnt0/d/f{i}")).elapsed_ns)
            return times
        times = run(kernel, stat_all())
        assert min(times[1:]) < times[0] / 10


class TestComputeAndSleep:
    def test_negative_arguments_rejected(self, kernel):
        for syscall in (sc.compute(-1), sc.sleep(-1)):
            def app(syscall=syscall):
                try:
                    yield syscall
                except InvalidArgument:
                    return "caught"
            assert run(kernel, app()) == "caught"

    def test_compute_zero_is_fine(self, kernel):
        def app():
            result = yield sc.compute(0)
            return result.elapsed_ns
        assert run(kernel, app()) >= 0


class TestMultiDisk:
    def test_mounts_map_to_distinct_disks(self):
        kernel = Kernel(small_config(data_disks=3))

        def app():
            for i in range(3):
                fd = (yield sc.create(f"/mnt{i}/f")).value
                yield sc.write(fd, MIB)
                yield sc.fsync(fd)
                yield sc.close(fd)
        kernel.run_process(app(), "app")
        for i in range(3):
            assert kernel.oracle.disk_stats(i).sectors_written > 0

    def test_parallel_io_on_distinct_disks_overlaps(self):
        kernel = Kernel(small_config(data_disks=2))

        def setup(i):
            fd = (yield sc.create(f"/mnt{i}/f")).value
            yield sc.write(fd, 8 * MIB)
            yield sc.fsync(fd)
            yield sc.close(fd)
        for i in range(2):
            kernel.run_process(setup(i), f"s{i}")
        kernel.oracle.flush_file_cache()

        def reader(i):
            fd = (yield sc.open(f"/mnt{i}/f")).value
            while not (yield sc.read(fd, MIB)).value.eof:
                pass
            yield sc.close(fd)
        start = kernel.clock.now
        kernel.spawn(reader(0), "r0")
        kernel.spawn(reader(1), "r1")
        kernel.run()
        both = kernel.clock.now - start

        kernel2 = Kernel(small_config(data_disks=2))
        for i in range(2):
            kernel2.run_process(setup(i), f"s{i}")
        kernel2.oracle.flush_file_cache()
        start = kernel2.clock.now
        kernel2.run_process(reader(0), "r0")
        kernel2.run_process(reader(1), "r1")
        serial = kernel2.clock.now - start
        assert both < 0.75 * serial  # true overlap across spindles
