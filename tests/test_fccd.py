"""FCCD: probe-based cache-content detection validated against the oracle."""

import random

import pytest

from repro.icl.fccd import (
    DEFAULT_ACCESS_UNIT,
    FAKE_HIGH_PROBE_NS,
    FCCD,
    SAFE_PROBE_MIN_BYTES,
)
from repro.sim import Kernel, syscalls as sc
from repro.toolbox.repository import ParameterRepository
from repro.workloads.files import make_file
from tests.conftest import KIB, MIB


@pytest.fixture
def fccd():
    return FCCD(
        rng=random.Random(7), access_unit_bytes=2 * MIB, prediction_unit_bytes=512 * KIB
    )


def build_file(kernel, path, nbytes):
    kernel.run_process(make_file(path, nbytes), "setup")


def warm_range(kernel, path, offset, nbytes):
    def warm():
        fd = (yield sc.open(path)).value
        yield sc.pread(fd, offset, nbytes)
        yield sc.close(fd)
    kernel.run_process(warm(), "warm")


class TestConfiguration:
    def test_defaults_from_paper(self):
        layer = FCCD()
        assert layer.access_unit_bytes == DEFAULT_ACCESS_UNIT  # 20 MB
        assert layer.prediction_unit_bytes == 5 * MIB

    def test_access_unit_from_repository(self):
        repo = ParameterRepository()
        repo.set("fccd.access_unit_bytes", 8 * MIB)
        assert FCCD(repository=repo).access_unit_bytes == 8 * MIB

    def test_prediction_unit_cannot_exceed_access_unit(self):
        with pytest.raises(ValueError):
            FCCD(access_unit_bytes=MIB, prediction_unit_bytes=2 * MIB)

    def test_nonpositive_units_rejected(self):
        with pytest.raises(ValueError):
            FCCD(access_unit_bytes=0)


class TestSegmentGeometry:
    def test_segments_cover_file_exactly(self, fccd):
        size = 7 * MIB + 123
        segments = fccd.segments_of(size)
        assert segments[0][0] == 0
        assert sum(length for _o, length in segments) == size
        for (o1, l1), (o2, _l2) in zip(segments, segments[1:]):
            assert o1 + l1 == o2

    def test_alignment_respected(self, fccd):
        segments = fccd.segments_of(5 * MIB, align=100)
        for offset, length in segments[:-1]:
            assert offset % 100 == 0
            assert length % 100 == 0

    def test_small_file_single_segment(self, fccd):
        assert fccd.segments_of(100) == [(0, 100)]

    def test_bad_alignment_rejected(self, fccd):
        with pytest.raises(ValueError):
            fccd.segments_of(MIB, align=0)


class TestProbing:
    def test_detects_cached_prefix(self, config, fccd):
        kernel = Kernel(config)
        build_file(kernel, "/mnt0/f", 16 * MIB)
        kernel.oracle.flush_file_cache()
        warm_range(kernel, "/mnt0/f", 0, 6 * MIB)

        def probe():
            return (yield from fccd.plan_file("/mnt0/f"))
        plan = kernel.run_process(probe(), "probe")
        ordered = plan.ordered_segments()
        fast = [s.offset for s in ordered[:3]]
        assert set(fast) == {0, 2 * MIB, 4 * MIB}
        assert ordered[-1].probe_ns > 100 * ordered[0].probe_ns

    def test_ordered_ranges_cover_whole_file(self, config, fccd):
        kernel = Kernel(config)
        build_file(kernel, "/mnt0/f", 9 * MIB)

        def probe():
            return (yield from fccd.best_ranges("/mnt0/f"))
        ranges = kernel.run_process(probe(), "probe")
        assert sum(length for _o, length in ranges) == 9 * MIB
        assert sorted(o for o, _l in ranges) == [
            i * 2 * MIB for i in range(len(ranges))
        ]

    def test_sub_page_file_not_probed(self, config, fccd):
        """The Heisenberg guard: tiny files report a fake high time."""
        kernel = Kernel(config)
        build_file(kernel, "/mnt0/tiny", SAFE_PROBE_MIN_BYTES - 1)
        kernel.oracle.flush_file_cache()

        def probe():
            return (yield from fccd.plan_file("/mnt0/tiny"))
        plan = kernel.run_process(probe(), "probe")
        assert plan.segments[0].probe_ns == FAKE_HIGH_PROBE_NS
        assert plan.segments[0].probes == 0
        # Probing must not have pulled the file into the cache.
        assert kernel.oracle.cached_fraction("/mnt0/tiny") == 0.0

    def test_probe_is_cheap_relative_to_reading(self, config, fccd):
        kernel = Kernel(config)
        build_file(kernel, "/mnt0/f", 16 * MIB)

        def probe():
            t0 = (yield sc.gettime()).value
            yield from fccd.plan_file("/mnt0/f")
            return (yield sc.gettime()).value - t0
        probe_ns = kernel.run_process(probe(), "probe")
        # Warm probes of a 16 MB file: a handful of microsecond reads.
        assert probe_ns < 1_000_000

    def test_random_probe_placement_varies(self, config):
        layer_a = FCCD(rng=random.Random(1), access_unit_bytes=2 * MIB)
        layer_b = FCCD(rng=random.Random(2), access_unit_bytes=2 * MIB)
        points_a = layer_a._probe_points(0, 2 * MIB, 2 * MIB)
        points_b = layer_b._probe_points(0, 2 * MIB, 2 * MIB)
        assert points_a != points_b


class TestFileOrdering:
    def test_cached_files_ordered_first(self, config, fccd):
        kernel = Kernel(config)
        paths = [f"/mnt0/f{i}" for i in range(6)]
        for path in paths:
            build_file(kernel, path, 2 * MIB)
        kernel.oracle.flush_file_cache()
        for path in (paths[4], paths[1]):
            warm_range(kernel, path, 0, 2 * MIB)

        def order():
            return (yield from fccd.order_files(paths))
        ordered, plans = kernel.run_process(order(), "order")
        assert set(ordered[:2]) == {paths[1], paths[4]}
        assert set(ordered) == set(paths)

    def test_ties_preserve_command_line_order(self, config, fccd):
        kernel = Kernel(config)
        paths = [f"/mnt0/f{i}" for i in range(4)]
        for path in paths:
            build_file(kernel, path, 2 * MIB)
        # Everything cached: every probe is a memory hit, i.e. a tie.
        for path in paths:
            warm_range(kernel, path, 0, 2 * MIB)

        def order():
            return (yield from fccd.order_files(paths))
        ordered, _plans = kernel.run_process(order(), "order")
        assert ordered == paths  # ties keep the command-line order

    def test_positive_feedback_stabilizes_ordering(self, config, fccd):
        """Repeated gray-box access keeps the same files cached (§2.2)."""
        kernel = Kernel(config.scaled(memory_bytes=12 * MIB, kernel_reserved_bytes=4 * MIB))
        paths = [f"/mnt0/f{i}" for i in range(8)]
        for path in paths:
            build_file(kernel, path, 2 * MIB)
        kernel.oracle.flush_file_cache()

        def gray_pass():
            t0 = (yield sc.gettime()).value
            ordered, _ = yield from fccd.order_files(paths)
            for path in ordered:
                fd = (yield sc.open(path)).value
                while not (yield sc.read(fd, MIB)).value.eof:
                    pass
                yield sc.close(fd)
            return (yield sc.gettime()).value - t0
        first = kernel.run_process(gray_pass(), "p1")
        later = [kernel.run_process(gray_pass(), f"p{i}") for i in range(2, 6)]
        # Warm gray-box passes are faster than the cold one, and their
        # times settle (feedback keeps the cache contents predictable).
        assert max(later) < first
        assert max(later) < 1.5 * min(later)
