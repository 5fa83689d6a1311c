"""Kernel file syscalls: semantics and timing behaviour."""

import pytest

from repro.sim import Kernel, syscalls as sc
from repro.sim.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from tests.conftest import MIB, small_config


def run(kernel, gen):
    return kernel.run_process(gen, "test")


class TestCreateReadWrite:
    def test_round_trip_real_content(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, b"hello world")
            yield sc.close(fd)
            fd = (yield sc.open("/mnt0/f")).value
            data = (yield sc.pread(fd, 0, 11)).value.data
            yield sc.close(fd)
            return data
        assert run(kernel, app()) == b"hello world"

    def test_synthetic_content_reports_lengths_only(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 5000)
            yield sc.close(fd)
            fd = (yield sc.open("/mnt0/f")).value
            result = (yield sc.pread(fd, 0, 10_000)).value
            yield sc.close(fd)
            return result
        result = run(kernel, app())
        assert result.nbytes == 5000
        assert result.data is None

    def test_sequential_read_moves_position(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, b"abcdef")
            yield sc.seek(fd, 0)
            first = (yield sc.read(fd, 3)).value.data
            second = (yield sc.read(fd, 3)).value.data
            eof = (yield sc.read(fd, 3)).value
            yield sc.close(fd)
            return first, second, eof.eof
        first, second, at_eof = run(kernel, app())
        assert (first, second, at_eof) == (b"abc", b"def", True)

    def test_pread_does_not_move_position(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, b"abcdef")
            yield sc.seek(fd, 0)
            yield sc.pread(fd, 3, 3)
            data = (yield sc.read(fd, 3)).value.data
            yield sc.close(fd)
            return data
        assert run(kernel, app()) == b"abc"

    def test_read_past_eof_truncates(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 100)
            result = (yield sc.pread(fd, 90, 50)).value
            yield sc.close(fd)
            return result.nbytes
        assert run(kernel, app()) == 10

    def test_overwrite_middle_of_file(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, b"aaaaaaaa")
            yield sc.pwrite(fd, 2, b"XY")
            data = (yield sc.pread(fd, 0, 8)).value.data
            yield sc.close(fd)
            return data
        assert run(kernel, app()) == b"aaXYaaaa"

    def test_write_extends_size(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.pwrite(fd, 10_000, 100)
            st = (yield sc.fstat(fd)).value
            yield sc.close(fd)
            return st.size
        assert run(kernel, app()) == 10_100

    def test_negative_offset_rejected(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 10)
            try:
                yield sc.pread(fd, -1, 5)
            except InvalidArgument:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_open_missing_file_raises_into_process(self, kernel):
        def app():
            try:
                yield sc.open("/mnt0/ghost")
            except FileNotFound:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_open_directory_rejected(self, kernel):
        def app():
            yield sc.mkdir("/mnt0/d")
            try:
                yield sc.open("/mnt0/d")
            except IsADirectory:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_create_duplicate_rejected(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            try:
                yield sc.create("/mnt0/f")
            except FileExists:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_bad_fd_rejected(self, kernel):
        def app():
            try:
                yield sc.read(99, 10)
            except BadFileDescriptor:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_file_through_non_directory_component(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            try:
                yield sc.open("/mnt0/f/inner")
            except NotADirectory:
                return "caught"
        assert run(kernel, app()) == "caught"


class TestTiming:
    def test_warm_read_is_orders_of_magnitude_faster_than_cold(self, kernel):
        def setup():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 4 * MIB)
            yield sc.fsync(fd)
            yield sc.close(fd)
        run(kernel, setup())
        kernel.oracle.flush_file_cache()

        def probe():
            fd = (yield sc.open("/mnt0/f")).value
            cold = (yield sc.pread(fd, 2 * MIB, 1)).elapsed_ns
            warm = (yield sc.pread(fd, 2 * MIB, 1)).elapsed_ns
            yield sc.close(fd)
            return cold, warm
        cold, warm = run(kernel, probe())
        assert cold > 100 * warm

    def test_elapsed_time_matches_clock_progress(self, kernel):
        def app():
            before = (yield sc.gettime()).value
            result = yield sc.sleep(1_000_000)
            after = (yield sc.gettime()).value
            return before, result.elapsed_ns, after
        before, elapsed, after = run(kernel, app())
        assert elapsed == 1_000_000
        assert after >= before + 1_000_000

    def test_larger_reads_cost_more_copy_time(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 2 * MIB)
            small = (yield sc.pread(fd, 0, 4096)).elapsed_ns
            large = (yield sc.pread(fd, 0, MIB)).elapsed_ns
            yield sc.close(fd)
            return small, large
        small, large = run(kernel, app())
        assert large > 10 * small


class TestMetadata:
    def test_stat_reports_identity_and_size(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 12345)
            yield sc.close(fd)
            return (yield sc.stat("/mnt0/f")).value
        st = run(kernel, app())
        assert st.size == 12345
        assert st.ino > 1
        assert st.kind.name == "FILE"

    def test_stat_inumbers_follow_creation_order(self, kernel):
        def app():
            inos = []
            for i in range(5):
                fd = (yield sc.create(f"/mnt0/f{i}")).value
                yield sc.close(fd)
            for i in range(5):
                inos.append((yield sc.stat(f"/mnt0/f{i}")).value.ino)
            return inos
        inos = run(kernel, app())
        assert inos == sorted(inos)

    def test_inode_times_have_second_resolution(self, kernel):
        """The paper's point: ctime cannot order rapid creations (§4.2.1)."""
        def app():
            ctimes = []
            for i in range(3):
                fd = (yield sc.create(f"/mnt0/f{i}")).value
                yield sc.close(fd)
                ctimes.append((yield sc.stat(f"/mnt0/f{i}")).value.ctime)
            return ctimes
        ctimes = run(kernel, app())
        assert len(set(ctimes)) == 1  # all within the same second

    def test_utimes_sets_times(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            yield sc.utimes("/mnt0/f", 111, 222)
            return (yield sc.stat("/mnt0/f")).value
        st = run(kernel, app())
        assert (st.atime, st.mtime) == (111, 222)

    def test_readdir_returns_creation_order(self, kernel):
        def app():
            yield sc.mkdir("/mnt0/d")
            for name in ("z", "m", "a"):
                fd = (yield sc.create(f"/mnt0/d/{name}")).value
                yield sc.close(fd)
            return (yield sc.readdir("/mnt0/d")).value
        assert run(kernel, app()) == ["z", "m", "a"]

    def test_readdir_of_file_rejected(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            try:
                yield sc.readdir("/mnt0/f")
            except NotADirectory:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_unlink_open_file_rejected(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            try:
                yield sc.unlink("/mnt0/f")
            except InvalidArgument:
                yield sc.close(fd)
                yield sc.unlink("/mnt0/f")
                return "unlinked-after-close"
        assert run(kernel, app()) == "unlinked-after-close"

    def test_unlink_drops_cached_pages(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, MIB)
            yield sc.close(fd)
        run(kernel, app())
        assert kernel.oracle.cached_fraction("/mnt0/f") > 0
        def unlink():
            yield sc.unlink("/mnt0/f")
        run(kernel, unlink())
        with pytest.raises(FileNotFound):
            kernel.oracle.inode_of("/mnt0/f")

    def test_rename_preserves_content(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/old")).value
            yield sc.write(fd, b"payload")
            yield sc.close(fd)
            yield sc.rename("/mnt0/old", "/mnt0/new")
            fd = (yield sc.open("/mnt0/new")).value
            data = (yield sc.pread(fd, 0, 7)).value.data
            yield sc.close(fd)
            return data
        assert run(kernel, app()) == b"payload"

    def test_rename_into_own_subtree_rejected(self, kernel):
        """mv /mnt0/a /mnt0/a/b/c at the syscall layer: InvalidArgument,
        and the tree is untouched afterwards."""
        def app():
            yield sc.mkdir("/mnt0/a")
            yield sc.mkdir("/mnt0/a/b")
            try:
                yield sc.rename("/mnt0/a", "/mnt0/a/b/c")
            except InvalidArgument:
                pass
            else:
                raise AssertionError("cycle-creating rename was accepted")
            # Both directories still resolve through their old paths.
            a = (yield sc.stat("/mnt0/a")).value
            b = (yield sc.stat("/mnt0/a/b")).value
            return a.kind.name, b.kind.name
        assert run(kernel, app()) == ("DIRECTORY", "DIRECTORY")

    def test_utimes_updates_ctime(self, kernel):
        """utimes sets atime/mtime from its arguments but must stamp
        ctime from *now* — the inode change itself is a change."""
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            yield sc.sleep(3 * 10**9)  # move the clock past second 0
            yield sc.utimes("/mnt0/f", 111, 222)
            now_s = (yield sc.gettime()).value // 10**9
            st = (yield sc.stat("/mnt0/f")).value
            return st, now_s
        st, now_s = run(kernel, app())
        assert (st.atime, st.mtime) == (111, 222)
        assert st.ctime == now_s  # not 0 (creation), not 111/222 (args)

    def test_rename_across_mounts_rejected(self):
        kernel = Kernel(small_config(data_disks=2))
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.close(fd)
            try:
                yield sc.rename("/mnt0/f", "/mnt1/f")
            except InvalidArgument:
                return "caught"
        assert run(kernel, app()) == "caught"

    def test_fsync_writes_back_dirty_pages(self, kernel):
        page = kernel.config.page_size

        def app():
            other = (yield sc.create("/mnt0/g")).value
            yield sc.write(other, 64 * page)
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, MIB)
            flushed_once = (yield sc.fsync(fd)).value
            flushed_again = (yield sc.fsync(fd)).value
            flushed_other = (yield sc.fsync(other)).value
            yield sc.close(fd)
            yield sc.close(other)
            return flushed_once, flushed_again, flushed_other
        first, second, other = run(kernel, app())
        assert first == MIB // page
        assert second == 0
        # The first file's fsync left the other file's pages dirty.
        assert other == 64


class TestDirtyThrottle:
    def test_streaming_writer_recycles_its_own_pages(self):
        """A big streaming write must not purge another file's cache."""
        kernel = Kernel(small_config())
        def setup():
            fd = (yield sc.create("/mnt0/hot")).value
            yield sc.write(fd, 4 * MIB)
            yield sc.fsync(fd)
            yield sc.close(fd)
            fd = (yield sc.open("/mnt0/hot")).value  # re-read: hot & clean
            while not (yield sc.read(fd, MIB)).value.eof:
                pass
            yield sc.close(fd)
        kernel.run_process(setup(), "setup")
        assert kernel.oracle.cached_fraction("/mnt0/hot") == 1.0

        def stream():
            fd = (yield sc.create("/mnt0/stream")).value
            for _ in range(20):
                yield sc.write(fd, MIB)
            yield sc.close(fd)
        kernel.run_process(stream(), "stream")
        assert kernel.oracle.cached_fraction("/mnt0/hot") > 0.5
