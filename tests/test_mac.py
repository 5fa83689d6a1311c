"""MAC: admission control and available-memory inference."""

import pytest

from repro.icl.mac import MAC, GbAllocation
from repro.sim import Kernel, syscalls as sc
from repro.toolbox.repository import ParameterRepository
from tests.conftest import KIB, MIB, small_config


def make_mac(kernel, **overrides):
    params = dict(
        page_size=kernel.config.page_size,
        initial_increment_bytes=1 * MIB,
        max_increment_bytes=4 * MIB,
    )
    params.update(overrides)
    return MAC(**params)


class TestValidation:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            MAC(page_size=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MAC(slow_count=5, slow_window_touches=2)

    def test_rejects_min_above_max(self, kernel):
        mac = make_mac(kernel)

        def app():
            yield from mac.gb_alloc(10 * MIB, 5 * MIB)
        with pytest.raises(ValueError):
            kernel.run_process(app(), "mac")

    def test_rejects_unaligned_minimum(self, kernel):
        mac = make_mac(kernel)

        def app():
            yield from mac.gb_alloc(MIB + 1, 2 * MIB, multiple_bytes=MIB)
        with pytest.raises(ValueError):
            kernel.run_process(app(), "mac")


class TestThreshold:
    def test_repository_values_preferred(self, kernel):
        repo = ParameterRepository()
        repo.set("mem.page_zero_ns", 4_000)
        repo.set("disk.random_access_ns", 9_000_000)
        mac = MAC(repository=repo, page_size=kernel.config.page_size)

        def app():
            return (yield from mac.slow_threshold_ns())
        threshold = kernel.run_process(app(), "mac")
        assert threshold == int((4_000 * 9_000_000) ** 0.5)

    def test_self_calibration_between_memory_and_disk(self, kernel):
        mac = make_mac(kernel)

        def app():
            return (yield from mac.slow_threshold_ns())
        threshold = kernel.run_process(app(), "mac")
        assert kernel.config.page_zero_ns < threshold < 5_000_000

    def test_threshold_cached_after_first_call(self, kernel):
        mac = make_mac(kernel)

        def app():
            first = yield from mac.slow_threshold_ns()
            second = yield from mac.slow_threshold_ns()
            return first, second
        first, second = kernel.run_process(app(), "mac")
        assert first == second


class TestGbAlloc:
    def test_grant_on_idle_machine_is_most_of_memory(self, kernel):
        mac = make_mac(kernel)
        available = kernel.config.available_bytes

        def app():
            allocation = yield from mac.gb_alloc(MIB, available, MIB)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted
        granted = kernel.run_process(app(), "mac")
        assert granted >= 0.85 * available
        assert granted <= available

    def test_grant_is_multiple_of_requested_unit(self, kernel):
        mac = make_mac(kernel)

        def app():
            allocation = yield from mac.gb_alloc(700, 5 * MIB, multiple_bytes=700)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted
        granted = kernel.run_process(app(), "mac")
        assert granted % 700 == 0

    def test_grant_never_exceeds_maximum(self, kernel):
        mac = make_mac(kernel)

        def app():
            allocation = yield from mac.gb_alloc(MIB, 3 * MIB, MIB)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted
        assert kernel.run_process(app(), "mac") == 3 * MIB

    def test_granted_pages_are_resident(self, kernel):
        mac = make_mac(kernel)
        results = {}

        def app():
            allocation = yield from mac.gb_alloc(MIB, 4 * MIB, MIB)
            results["pid"] = (yield sc.getpid()).value
            results["pages"] = allocation.total_pages
            # Hold the allocation while the host checks residency.
            yield sc.sleep(1)
            resident = kernel.oracle.resident_anon_pages(results["pid"])
            yield from mac.gb_free(allocation)
            return resident
        resident = kernel.run_process(app(), "mac")
        assert resident >= results["pages"]

    def test_denied_when_minimum_unavailable(self, kernel):
        available = kernel.config.available_bytes
        mac = make_mac(kernel)
        hog_pages = int(available * 0.8) // kernel.config.page_size

        def hog():
            region = (yield sc.vm_alloc(hog_pages * kernel.config.page_size)).value
            yield sc.touch_range(region, 0, hog_pages)
            while True:
                yield sc.touch_range(region, 0, hog_pages)
                yield sc.sleep(20_000_000)
                if (yield sc.gettime()).value > 20_000_000_000:
                    return None

        def mac_app():
            yield sc.sleep(300_000_000)
            allocation = yield from mac.gb_alloc(
                int(available * 0.5), available, MIB
            )
            return allocation
        kernel.spawn(hog(), "hog")
        proc = kernel.spawn(mac_app(), "mac")
        kernel.run()
        assert proc.result is None
        assert mac.stats.denials == 1

    def test_grant_tracks_available_minus_competitor(self):
        kernel = Kernel(small_config(memory_bytes=72 * MIB, kernel_reserved_bytes=8 * MIB))
        available = kernel.config.available_bytes
        x = 24 * MIB
        mac = make_mac(kernel, max_increment_bytes=8 * MIB)
        pages = x // kernel.config.page_size

        def competitor():
            region = (yield sc.vm_alloc(x)).value
            yield sc.touch_range(region, 0, pages)
            t0 = (yield sc.gettime()).value
            while (yield sc.gettime()).value - t0 < 60_000_000_000:
                yield sc.touch_range(region, 0, pages)
                yield sc.sleep(30_000_000)

        def mac_app():
            yield sc.sleep(500_000_000)
            allocation = yield from mac.gb_alloc(MIB, available, MIB)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted

        kernel.spawn(competitor(), "competitor")
        proc = kernel.spawn(mac_app(), "mac")
        kernel.run()
        expected = available - x
        assert 0.7 * expected <= proc.result <= expected

    def test_gb_free_releases_memory(self, kernel):
        mac = make_mac(kernel)

        def app():
            pid = (yield sc.getpid()).value
            allocation = yield from mac.gb_alloc(MIB, 4 * MIB, MIB)
            yield from mac.gb_free(allocation)
            yield sc.sleep(1)
            return kernel.oracle.resident_anon_pages(pid)
        assert kernel.run_process(app(), "mac") == 0

    def test_two_processes_split_memory_without_deadlock(self, kernel):
        """Paired gb_alloc/gb_free cannot deadlock (§4.3.2)."""
        available = kernel.config.available_bytes
        grants = []

        def worker(tag):
            mac = make_mac(kernel)
            allocation = yield from mac.gb_alloc_wait(
                2 * MIB, available, MIB, retry_ns=50_000_000
            )
            grants.append((tag, allocation.granted_bytes))
            yield sc.sleep(100_000_000)  # hold it briefly
            yield from mac.gb_free(allocation)
            return tag
        kernel.spawn(worker("a"), "a")
        kernel.spawn(worker("b"), "b")
        kernel.run()
        assert {tag for tag, _g in grants} == {"a", "b"}
        assert all(g >= 2 * MIB for _t, g in grants)

    def test_wait_times_out_loudly(self, kernel):
        available = kernel.config.available_bytes

        def hog():
            pages = int(available * 0.9) // kernel.config.page_size
            region = (yield sc.vm_alloc(pages * kernel.config.page_size)).value
            yield sc.touch_range(region, 0, pages)
            t0 = (yield sc.gettime()).value
            while (yield sc.gettime()).value - t0 < 30_000_000_000:
                yield sc.touch_range(region, 0, pages)
                yield sc.sleep(10_000_000)

        def mac_app():
            yield sc.sleep(200_000_000)
            mac = make_mac(kernel)
            try:
                yield from mac.gb_alloc_wait(
                    (int(available * 0.8) // MIB) * MIB,
                    available,
                    MIB,
                    retry_ns=100_000_000,
                    max_wait_ns=2_000_000_000,
                )
            except TimeoutError:
                return "timed-out"
        kernel.spawn(hog(), "hog")
        proc = kernel.spawn(mac_app(), "mac")
        kernel.run()
        assert proc.result == "timed-out"

    def test_wait_ns_is_the_time_slept_between_attempts(self, kernel):
        available = kernel.config.available_bytes
        retry_ns = 70_000_000  # not the 250 ms default
        mac = make_mac(kernel)

        def hog():
            pages = int(available * 0.9) // kernel.config.page_size
            region = (yield sc.vm_alloc(pages * kernel.config.page_size)).value
            yield sc.touch_range(region, 0, pages)
            yield sc.sleep(1_000_000_000)
            yield sc.vm_free(region)

        def mac_app():
            yield sc.sleep(200_000_000)
            allocation = yield from mac.gb_alloc_wait(
                (int(available * 0.5) // MIB) * MIB, available, MIB, retry_ns=retry_ns
            )
            yield from mac.gb_free(allocation)
        kernel.spawn(hog(), "hog")
        kernel.spawn(mac_app(), "mac")
        kernel.run()
        assert mac.stats.waits > 0
        assert mac.stats.wait_ns == mac.stats.waits * retry_ns

    def test_stats_track_activity(self, kernel):
        mac = make_mac(kernel)

        def app():
            allocation = yield from mac.gb_alloc(MIB, 4 * MIB, MIB)
            yield from mac.gb_free(allocation)
        kernel.run_process(app(), "mac")
        assert mac.stats.grants == 1
        assert mac.stats.probe_touches > 0


class TestGbAllocation:
    def test_pages_iterates_all_granted_pages(self):
        allocation = GbAllocation(
            regions=[(1, 3), (2, 2)], granted_bytes=5 * 4096, page_size=4096
        )
        pages = list(allocation.pages())
        assert pages == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        assert allocation.total_pages == 5
