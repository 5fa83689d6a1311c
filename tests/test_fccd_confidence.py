"""Repeated probing for confidence under timing noise (§4.1.2)."""

import random

from repro.icl.fccd import FCCD
from repro.sim import syscalls as sc
from repro.workloads.files import make_file
from tests.conftest import KIB, MIB


def make_layer(seed):
    return FCCD(
        rng=random.Random(seed),
        access_unit_bytes=2 * MIB,
        prediction_unit_bytes=512 * KIB,
    )


class TestRepeatedProbing:
    def test_rounds_must_be_positive(self, kernel):
        kernel.run_process(make_file("/mnt0/f", 4 * MIB), "setup")
        layer = make_layer(1)

        def app():
            fd = (yield sc.open("/mnt0/f")).value
            try:
                yield from layer.probe_fd_repeated(fd, 4 * MIB, rounds=0)
            except ValueError:
                return "caught"
            finally:
                yield sc.close(fd)
        assert kernel.run_process(app(), "app") == "caught"

    def test_merged_segments_cover_file_and_count_probes(self, kernel):
        kernel.run_process(make_file("/mnt0/f", 6 * MIB), "setup")
        layer = make_layer(2)

        def app():
            return (yield from layer.plan_file("/mnt0/f", rounds=3))
        plan = kernel.run_process(app(), "app")
        assert sum(s.length for s in plan.segments) == 6 * MIB
        # 3 rounds x 4 windows per 2 MiB segment.
        assert all(s.probes == 12 for s in plan.segments)

    def test_single_round_plan_unchanged(self, kernel):
        kernel.run_process(make_file("/mnt0/f", 4 * MIB), "setup")
        layer = make_layer(3)

        def app():
            return (yield from layer.plan_file("/mnt0/f", rounds=1))
        plan = kernel.run_process(app(), "app")
        assert all(s.probes == 4 for s in plan.segments)

    def test_median_rejects_a_lucky_cold_hit(self, kernel):
        """A cold unit with exactly one cached page can fool one probe
        round; the median over three rounds almost never is."""
        kernel.run_process(make_file("/mnt0/f", 2 * MIB), "setup")
        kernel.oracle.flush_file_cache()

        # Pull in exactly one page of the otherwise-cold file.
        def leak():
            fd = (yield sc.open("/mnt0/f")).value
            yield sc.pread(fd, 256 * KIB, 1)
            yield sc.close(fd)
        kernel.run_process(leak(), "leak")

        fooled_once = 0
        fooled_median = 0
        trials = 30
        for trial in range(trials):
            layer = make_layer(100 + trial)

            def single():
                return (yield from layer.plan_file("/mnt0/f", rounds=1))
            def tripled():
                return (yield from layer.plan_file("/mnt0/f", rounds=3))
            one = kernel.run_process(single(), "one")
            three = kernel.run_process(tripled(), "three")
            if min(s.probe_ns for s in one.segments) < 1_000_000:
                fooled_once += 1
            if min(s.probe_ns for s in three.segments) < 1_000_000:
                fooled_median += 1
        # Single probes get fooled sometimes; the median rarely.
        assert fooled_median <= fooled_once
        assert fooled_median <= trials // 10

    def test_repeated_probing_consistent_on_warm_file(self, kernel):
        kernel.run_process(make_file("/mnt0/f", 4 * MIB), "setup")
        layer = make_layer(5)

        def app():
            return (yield from layer.plan_file("/mnt0/f", rounds=5))
        plan = kernel.run_process(app(), "app")
        assert all(s.probe_ns < 100_000 for s in plan.segments)
