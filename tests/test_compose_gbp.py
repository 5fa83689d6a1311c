"""FCCD∘FLDC composition and the gbp utility."""

import random

import pytest

from repro.icl import gbp
from repro.icl.compose import compose_order
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.sim import syscalls as sc
from repro.workloads.files import create_files
from tests.conftest import KIB, MIB


def make_layers():
    return (
        FCCD(rng=random.Random(5), access_unit_bytes=2 * MIB,
             prediction_unit_bytes=512 * KIB),
        FLDC(),
    )


def populate(kernel, directory, count, size):
    def setup():
        yield sc.mkdir(directory)
        return (yield from create_files(directory, count, size))
    return kernel.run_process(setup(), "setup")


def warm(kernel, path):
    def app():
        fd = (yield sc.open(path)).value
        while not (yield sc.read(fd, MIB)).value.eof:
            pass
        yield sc.close(fd)
    kernel.run_process(app(), "warm")


class TestCompose:
    def test_cached_group_first_each_group_by_inumber(self, kernel):
        fccd, fldc = make_layers()
        paths = populate(kernel, "/mnt0/d", 8, 128 * KIB)
        kernel.oracle.flush_file_cache()
        for path in (paths[5], paths[2]):
            warm(kernel, path)

        def app():
            return (yield from compose_order(fccd, fldc, paths))
        result = kernel.run_process(app(), "compose")
        assert result.split_detected
        assert result.predicted_cached == [paths[2], paths[5]]  # i-number order
        assert result.order[:2] == [paths[2], paths[5]]
        # The on-disk group is also in i-number (creation) order.
        expected_disk = [p for p in paths if p not in (paths[2], paths[5])]
        assert result.predicted_on_disk == expected_disk

    def test_all_cold_collapses_to_inumber_order(self, kernel):
        fccd, fldc = make_layers()
        paths = populate(kernel, "/mnt0/d", 6, 128 * KIB)
        kernel.oracle.flush_file_cache()
        shuffled = list(paths)
        random.Random(9).shuffle(shuffled)

        def app():
            return (yield from compose_order(fccd, fldc, shuffled))
        result = kernel.run_process(app(), "compose")
        assert not result.split_detected
        assert result.order == paths  # creation order == i-number order

    def test_empty_and_single_inputs(self, kernel):
        fccd, fldc = make_layers()

        def app_empty():
            return (yield from compose_order(fccd, fldc, []))
        assert kernel.run_process(app_empty(), "c").order == []

        paths = populate(kernel, "/mnt0/d", 1, 128 * KIB)

        def app_single():
            return (yield from compose_order(fccd, fldc, paths))
        assert kernel.run_process(app_single(), "c").order == paths


class TestGbp:
    def test_mem_mode_orders_cached_first(self, kernel):
        fccd, _ = make_layers()
        paths = populate(kernel, "/mnt0/d", 5, 256 * KIB)
        kernel.oracle.flush_file_cache()
        warm(kernel, paths[3])

        def app():
            return (yield from gbp.order_paths(paths, mode="mem", fccd=fccd))
        ordered = kernel.run_process(app(), "gbp")
        assert ordered[0] == paths[3]
        assert set(ordered) == set(paths)

    def test_file_mode_orders_by_inumber(self, kernel):
        _, fldc = make_layers()
        paths = populate(kernel, "/mnt0/d", 5, 8 * KIB)
        shuffled = list(paths)
        random.Random(2).shuffle(shuffled)

        def app():
            return (yield from gbp.order_paths(shuffled, mode="file", fldc=fldc))
        assert kernel.run_process(app(), "gbp") == paths

    def test_compose_mode(self, kernel):
        fccd, fldc = make_layers()
        paths = populate(kernel, "/mnt0/d", 4, 128 * KIB)

        def app():
            return (
                yield from gbp.order_paths(paths, mode="compose", fccd=fccd, fldc=fldc)
            )
        ordered = kernel.run_process(app(), "gbp")
        assert set(ordered) == set(paths)

    def test_unknown_mode_rejected(self, kernel):
        def app():
            yield from gbp.order_paths(["/mnt0/x"], mode="bogus")
        with pytest.raises(ValueError):
            kernel.run_process(app(), "gbp")

    def test_gbp_charges_process_startup(self, kernel):
        paths = populate(kernel, "/mnt0/d", 2, 128 * KIB)
        fccd, _ = make_layers()

        def app():
            t0 = (yield sc.gettime()).value
            yield from gbp.order_paths(paths, mode="mem", fccd=fccd)
            return (yield sc.gettime()).value - t0
        elapsed = kernel.run_process(app(), "gbp")
        assert elapsed >= gbp.STARTUP_COMPUTE_NS

    def test_stream_file_delivers_whole_file_through_pipe(self, kernel):
        fccd, _ = make_layers()
        size = 3 * MIB

        def setup():
            fd = (yield sc.create("/mnt0/data")).value
            yield sc.write(fd, size)
            yield sc.close(fd)
        kernel.run_process(setup(), "setup")

        def consumer(r_fd):
            got = 0
            while True:
                result = (yield sc.read(r_fd, 256 * KIB)).value
                if result.eof:
                    break
                got += result.nbytes
            yield sc.close(r_fd)
            return got

        pipe = kernel.make_pipe()
        producer = kernel.spawn_with_pipe_ends(
            lambda w: gbp.stream_file("/mnt0/data", w, fccd),
            [(pipe, "pipe_w")],
            "gbp",
        )
        consumer_proc = kernel.spawn_with_pipe_ends(
            lambda r: consumer(r), [(pipe, "pipe_r")], "app"
        )
        kernel.run()
        assert producer.result == size
        assert consumer_proc.result == size

    def test_stream_file_sends_cached_segments_first(self, kernel):
        fccd, _ = make_layers()
        size = 6 * MIB

        def setup():
            fd = (yield sc.create("/mnt0/data")).value
            yield sc.write(fd, size)
            yield sc.close(fd)
        kernel.run_process(setup(), "setup")
        kernel.oracle.flush_file_cache()
        # Warm only the tail.
        def warm_tail():
            fd = (yield sc.open("/mnt0/data")).value
            yield sc.pread(fd, 4 * MIB, 2 * MIB)
            yield sc.close(fd)
        kernel.run_process(warm_tail(), "warm")

        timeline = []

        def consumer(r_fd):
            while True:
                result = (yield sc.read(r_fd, 512 * KIB)).value
                if result.eof:
                    break
                timeline.append(((yield sc.gettime()).value, result.nbytes))
            yield sc.close(r_fd)

        pipe = kernel.make_pipe()
        kernel.spawn_with_pipe_ends(
            lambda w: gbp.stream_file("/mnt0/data", w, fccd),
            [(pipe, "pipe_r" == "x" and "pipe_r" or "pipe_w")],
            "gbp",
        )
        kernel.spawn_with_pipe_ends(lambda r: consumer(r), [(pipe, "pipe_r")], "app")
        kernel.run()
        total = sum(n for _t, n in timeline)
        assert total == size
        # The first third of the bytes should arrive much faster than the
        # last third (cached segments streamed first).
        first_t = timeline[len(timeline) // 3][0]
        duration = timeline[-1][0] - timeline[0][0]
        assert first_t - timeline[0][0] < duration / 2
