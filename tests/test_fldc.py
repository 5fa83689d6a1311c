"""FLDC: layout detection via i-numbers and the directory refresh."""

import random

import pytest

from repro.icl.fldc import FLDC
from repro.sim import syscalls as sc
from repro.workloads.files import age_directory, create_files, make_file
from tests.conftest import KIB


@pytest.fixture
def fldc():
    return FLDC()


def populate(kernel, directory, count, size, names=None):
    def setup():
        yield sc.mkdir(directory)
        return (yield from create_files(directory, count, size, names=names))
    return kernel.run_process(setup(), "setup")


def read_all(kernel, order):
    def run():
        t0 = (yield sc.gettime()).value
        for path in order:
            fd = (yield sc.open(path)).value
            while not (yield sc.read(fd, 64 * KIB)).value.eof:
                pass
            yield sc.close(fd)
        return (yield sc.gettime()).value - t0
    return kernel.run_process(run(), "read")


class TestDetection:
    def test_layout_order_matches_true_block_order(self, kernel, fldc):
        paths = populate(kernel, "/mnt0/d", 20, 8 * KIB)
        shuffled = list(paths)
        random.Random(3).shuffle(shuffled)

        def order():
            return (yield from fldc.layout_order(shuffled))
        ordered, stats = kernel.run_process(order(), "order")
        true_order = sorted(paths, key=lambda p: kernel.oracle.file_blocks(p)[0])
        assert ordered == true_order

    def test_stat_results_expose_inumbers_only(self, kernel, fldc):
        paths = populate(kernel, "/mnt0/d", 3, 8 * KIB)

        def order():
            return (yield from fldc.stat_files(paths))
        stats = kernel.run_process(order(), "order")
        for path in paths:
            assert stats[path].ino > 0
            assert not hasattr(stats[path], "blocks")  # no layout leak

    def test_directory_order_groups_by_directory(self, fldc):
        paths = [
            "/mnt0/b/x", "/mnt0/a/z", "/mnt0/b/a", "/mnt0/a/q",
        ]
        ordered = FLDC.directory_order(paths)
        assert ordered == ["/mnt0/a/q", "/mnt0/a/z", "/mnt0/b/a", "/mnt0/b/x"]

    def test_inumber_order_beats_random_on_fresh_directory(self, kernel, fldc):
        names = [f"n{i * 37 % 50:02d}" for i in range(50)]
        paths = populate(kernel, "/mnt0/d", 50, 8 * KIB, names=names)
        rng = random.Random(5)
        shuffled = list(paths)
        rng.shuffle(shuffled)
        kernel.oracle.flush_file_cache()
        random_ns = read_all(kernel, shuffled)
        kernel.oracle.flush_file_cache()

        def ordered_run():
            order, _stats = yield from fldc.layout_order(shuffled)
            return order
        order = kernel.run_process(ordered_run(), "o")
        kernel.oracle.flush_file_cache()
        inumber_ns = read_all(kernel, order)
        assert random_ns > 2.5 * inumber_ns


class TestRefresh:
    def test_refresh_preserves_names_content_and_times(self, kernel, fldc):
        def setup():
            yield sc.mkdir("/mnt0/d")
            yield from make_file("/mnt0/d/a", b"alpha-content")
            yield from make_file("/mnt0/d/b", b"beta")
            yield sc.utimes("/mnt0/d/a", 100, 200)
        kernel.run_process(setup(), "setup")

        def refresh():
            return (yield from fldc.refresh_directory("/mnt0/d"))
        report = kernel.run_process(refresh(), "refresh")
        assert report.files_moved == 2
        assert report.bytes_copied == len(b"alpha-content") + len(b"beta")

        def verify():
            names = (yield sc.readdir("/mnt0/d")).value
            # stat before reading: a read would update atime, as on UNIX.
            st = (yield sc.stat("/mnt0/d/a")).value
            fd = (yield sc.open("/mnt0/d/a")).value
            data = (yield sc.pread(fd, 0, 100)).value.data
            yield sc.close(fd)
            return names, data, st
        names, data, st = kernel.run_process(verify(), "verify")
        assert sorted(names) == ["a", "b"]
        assert data == b"alpha-content"
        assert (st.atime, st.mtime) == (100, 200)  # make(1) still works

    def test_refresh_orders_small_files_first(self, kernel, fldc):
        def setup():
            yield sc.mkdir("/mnt0/d")
            yield from make_file("/mnt0/d/big", 64 * KIB)
            yield from make_file("/mnt0/d/small", 4 * KIB)
            yield from make_file("/mnt0/d/mid", 16 * KIB)
        kernel.run_process(setup(), "setup")

        def refresh():
            return (yield from fldc.refresh_directory("/mnt0/d"))
        report = kernel.run_process(refresh(), "refresh")
        assert report.order == ["small", "mid", "big"]

        def stat_all():
            stats = {}
            for name in ("small", "mid", "big"):
                stats[name] = (yield sc.stat(f"/mnt0/d/{name}")).value.ino
            return stats
        inos = kernel.run_process(stat_all(), "stat")
        assert inos["small"] < inos["mid"] < inos["big"]

    def test_refresh_with_explicit_order(self, kernel, fldc):
        populate(kernel, "/mnt0/d", 3, 8 * KIB)

        def refresh():
            return (
                yield from fldc.refresh_directory(
                    "/mnt0/d", order=["f0002", "f0000", "f0001"]
                )
            )
        report = kernel.run_process(refresh(), "refresh")
        assert report.order == ["f0002", "f0000", "f0001"]

    def test_explicit_order_must_cover_directory(self, kernel, fldc):
        populate(kernel, "/mnt0/d", 3, 8 * KIB)

        def refresh():
            try:
                yield from fldc.refresh_directory("/mnt0/d", order=["f0000"])
            except ValueError:
                return "caught"
        assert kernel.run_process(refresh(), "refresh") == "caught"

    def test_refresh_rejects_subdirectories(self, kernel, fldc):
        def setup():
            yield sc.mkdir("/mnt0/d")
            yield sc.mkdir("/mnt0/d/sub")
        kernel.run_process(setup(), "setup")

        def refresh():
            try:
                yield from fldc.refresh_directory("/mnt0/d")
            except ValueError:
                return "caught"
        assert kernel.run_process(refresh(), "refresh") == "caught"

    def test_refresh_restores_aged_performance(self, kernel, fldc):
        """The Figure 6 story, end to end, asserted on simulated time."""
        paths = populate(kernel, "/mnt0/d", 40, 8 * KIB)
        rng = random.Random(11)

        def ordered_time():
            kernel_names = None

            def run():
                names = (yield sc.readdir("/mnt0/d")).value
                order, _stats = yield from fldc.layout_order(
                    [f"/mnt0/d/{n}" for n in names]
                )
                t0 = (yield sc.gettime()).value
                for path in order:
                    fd = (yield sc.open(path)).value
                    while not (yield sc.read(fd, 64 * KIB)).value.eof:
                        pass
                    yield sc.close(fd)
                return (yield sc.gettime()).value - t0
            kernel.oracle.flush_file_cache()
            return kernel.run_process(run(), "run")

        fresh_ns = ordered_time()
        kernel.run_process(
            age_directory("/mnt0/d", 20, rng, create_size=8 * KIB), "age"
        )
        aged_ns = ordered_time()
        assert aged_ns > 1.5 * fresh_ns

        def refresh():
            yield from fldc.refresh_directory("/mnt0/d")
        kernel.run_process(refresh(), "refresh")
        restored_ns = ordered_time()
        assert restored_ns < 1.3 * fresh_ns
