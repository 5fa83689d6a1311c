"""Configuration options added for the ablation studies."""

import random

import pytest

from repro.icl.fccd import FCCD
from repro.icl.mac import MAC
from repro.sim import syscalls as sc
from repro.workloads.files import make_file
from tests.conftest import KIB, MIB


class TestProbePlacement:
    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            FCCD(probe_placement="chaotic")

    def test_fixed_placement_is_deterministic(self):
        a = FCCD(rng=random.Random(1), probe_placement="fixed",
                 access_unit_bytes=4 * MIB, prediction_unit_bytes=MIB)
        b = FCCD(rng=random.Random(2), probe_placement="fixed",
                 access_unit_bytes=4 * MIB, prediction_unit_bytes=MIB)
        assert a._probe_points(0, 4 * MIB, 4 * MIB) == b._probe_points(
            0, 4 * MIB, 4 * MIB
        )

    def test_fixed_points_sit_mid_window(self):
        layer = FCCD(probe_placement="fixed", access_unit_bytes=4 * MIB,
                     prediction_unit_bytes=MIB)
        points = layer._probe_points(0, 4 * MIB, 4 * MIB)
        assert points == [i * MIB + MIB // 2 for i in range(4)]

    def test_both_placements_detect_cached_prefix(self, kernel):
        kernel.run_process(make_file("/mnt0/f", 8 * MIB), "setup")
        kernel.oracle.flush_file_cache()

        def warm():
            fd = (yield sc.open("/mnt0/f")).value
            yield sc.pread(fd, 0, 4 * MIB)
            yield sc.close(fd)
        kernel.run_process(warm(), "warm")
        for placement in ("random", "fixed"):
            layer = FCCD(rng=random.Random(3), probe_placement=placement,
                         access_unit_bytes=2 * MIB, prediction_unit_bytes=512 * KIB)

            def probe():
                return (yield from layer.plan_file("/mnt0/f"))
            plan = kernel.run_process(probe(), "probe")
            fast = {s.offset for s in plan.segments if s.mean_probe_ns < 1_000_000}
            assert fast == {0, 2 * MIB}, placement


class TestIncrementPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MAC(increment_policy="warp")

    @pytest.mark.parametrize("policy", ["paper", "fixed", "aggressive"])
    def test_all_policies_grant_on_idle_machine(self, kernel, policy):
        mac = MAC(page_size=kernel.config.page_size,
                  initial_increment_bytes=MIB, max_increment_bytes=4 * MIB,
                  increment_policy=policy)

        def app():
            allocation = yield from mac.gb_alloc(2 * MIB, 10 * MIB, MIB)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted
        assert kernel.run_process(app(), "mac") == 10 * MIB

    def test_fixed_policy_uses_many_small_chunks(self, kernel):
        def grants_with(policy):
            mac = MAC(page_size=kernel.config.page_size,
                      initial_increment_bytes=MIB, max_increment_bytes=8 * MIB,
                      increment_policy=policy)

            def app():
                allocation = yield from mac.gb_alloc(2 * MIB, 16 * MIB, MIB)
                chunks = len(allocation.regions)
                yield from mac.gb_free(allocation)
                return chunks
            return kernel.run_process(app(), "mac")
        assert grants_with("fixed") > grants_with("paper")

    def test_settle_can_be_disabled(self, kernel):
        mac = MAC(page_size=kernel.config.page_size,
                  initial_increment_bytes=MIB, max_increment_bytes=4 * MIB,
                  settle_ns=0)

        def app():
            t0 = (yield sc.gettime()).value
            allocation = yield from mac.gb_alloc(MIB, 4 * MIB, MIB)
            elapsed = (yield sc.gettime()).value - t0
            yield from mac.gb_free(allocation)
            return elapsed
        fast_elapsed = kernel.run_process(app(), "mac")
        assert fast_elapsed < 20_000_000  # no settle sleeps at all

    def test_negative_settle_rejected_at_construction(self):
        # Accepted, it would fail mid-gb_alloc as a negative sleep.
        with pytest.raises(ValueError, match="settle_ns"):
            MAC(settle_ns=-1)
