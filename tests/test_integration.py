"""End-to-end integration: all three ICLs cooperating on one machine."""

import random

from repro.icl.compose import compose_order
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.icl.mac import MAC
from repro.sim import Kernel, syscalls as sc
from repro.workloads.files import create_files, make_file
from tests.conftest import KIB, MIB, small_config


class TestFullStack:
    def test_probe_order_process_pipeline(self):
        """A realistic client: discover files, compose an order, process
        them, while a MAC-governed worker holds memory — everything on
        one kernel, no oracle involvement in the decisions."""
        kernel = Kernel(small_config(memory_bytes=48 * MIB, kernel_reserved_bytes=8 * MIB))

        def setup():
            yield sc.mkdir("/mnt0/data")
            yield from create_files("/mnt0/data", 12, 512 * KIB)
        kernel.run_process(setup(), "setup")
        kernel.oracle.flush_file_cache()

        # Warm a subset, as a previous consumer would have.
        def warm():
            for i in (1, 4, 7):
                fd = (yield sc.open(f"/mnt0/data/f{i:04d}")).value
                yield sc.pread(fd, 0, 512 * KIB)
                yield sc.close(fd)
        kernel.run_process(warm(), "warm")

        outcome = {}

        def memory_worker():
            mac = MAC(page_size=kernel.config.page_size,
                      initial_increment_bytes=MIB, max_increment_bytes=4 * MIB)
            allocation = yield from mac.gb_alloc_wait(2 * MIB, 16 * MIB, MIB)
            outcome["granted"] = allocation.granted_bytes
            yield sc.sleep(200_000_000)
            yield from mac.gb_free(allocation)
            return "worker-done"

        def reader():
            names = (yield sc.readdir("/mnt0/data")).value
            paths = [f"/mnt0/data/{n}" for n in names]
            fccd = FCCD(rng=random.Random(2), access_unit_bytes=2 * MIB,
                        prediction_unit_bytes=512 * KIB)
            plan = yield from compose_order(fccd, FLDC(), paths)
            outcome["predicted_cached"] = plan.predicted_cached
            total = 0
            for path in plan.order:
                fd = (yield sc.open(path)).value
                while True:
                    result = (yield sc.read(fd, 256 * KIB)).value
                    if result.eof:
                        break
                    total += result.nbytes
                yield sc.close(fd)
            return total

        worker = kernel.spawn(memory_worker(), "worker")
        reading = kernel.spawn(reader(), "reader")
        kernel.run()
        assert worker.result == "worker-done"
        assert reading.result == 12 * 512 * KIB
        assert outcome["granted"] >= 2 * MIB
        expected = {f"/mnt0/data/f{i:04d}" for i in (1, 4, 7)}
        assert set(outcome["predicted_cached"]) == expected

    def test_icl_decisions_never_touch_the_oracle(self):
        """Import hygiene: gray-box packages must not import the oracle."""
        import repro.icl.fccd
        import repro.icl.fldc
        import repro.icl.mac
        import repro.icl.compose
        import repro.icl.gbp
        import repro.apps.grep
        import repro.apps.fastsort
        import repro.toolbox.microbench
        import inspect

        for module in (
            repro.icl.fccd,
            repro.icl.fldc,
            repro.icl.mac,
            repro.icl.compose,
            repro.icl.gbp,
            repro.apps.grep,
            repro.apps.fastsort,
        ):
            source = inspect.getsource(module)
            assert "oracle" not in source.lower(), module.__name__

    def test_deterministic_replay(self):
        """Two identical kernels produce bit-identical timelines."""
        def run_once():
            kernel = Kernel(small_config())

            def app():
                fd = (yield sc.create("/mnt0/f")).value
                yield sc.write(fd, 3 * MIB)
                yield sc.close(fd)
                fccd = FCCD(rng=random.Random(11), access_unit_bytes=MIB,
                            prediction_unit_bytes=256 * KIB)
                plan = yield from fccd.plan_file("/mnt0/f")
                return [s.probe_ns for s in plan.segments]
            probes = kernel.run_process(app(), "app")
            return probes, kernel.clock.now
        first = run_once()
        second = run_once()
        assert first == second

    def test_mixed_platforms_share_icl_code(self):
        """The same FCCD bytes run unchanged on all three personalities."""
        from repro.sim import linux22, netbsd15, solaris7

        results = {}
        for platform in (linux22, netbsd15, solaris7):
            kernel = Kernel(small_config(memory_bytes=96 * MIB,
                                         kernel_reserved_bytes=8 * MIB),
                            platform=platform)
            kernel.run_process(make_file("/mnt0/f", 8 * MIB), "setup")
            kernel.oracle.flush_file_cache()

            def warm():
                fd = (yield sc.open("/mnt0/f")).value
                yield sc.pread(fd, 0, 4 * MIB)
                yield sc.close(fd)
            kernel.run_process(warm(), "warm")
            fccd = FCCD(rng=random.Random(5), access_unit_bytes=2 * MIB,
                        prediction_unit_bytes=512 * KIB)

            def probe():
                plan = yield from fccd.plan_file("/mnt0/f")
                return [s for s in plan.ordered_segments()]
            segments = kernel.run_process(probe(), "probe")
            fast = [s.offset for s in segments if s.mean_probe_ns < 1_000_000]
            results[platform.name] = sorted(fast)
        # The warmed prefix is correctly detected on every platform.
        for name, fast in results.items():
            assert fast == [0, 2 * MIB], name


class TestCrossIclInteraction:
    def test_fccd_probing_does_not_disturb_mac(self, kernel):
        """Probing files (tiny reads) must not meaningfully change what
        MAC sees as available memory."""
        kernel.run_process(make_file("/mnt0/f", 4 * MIB), "setup")

        def mac_view():
            mac = MAC(page_size=kernel.config.page_size,
                      initial_increment_bytes=MIB, max_increment_bytes=4 * MIB)
            allocation = yield from mac.gb_alloc(MIB, kernel.config.available_bytes, MIB)
            granted = allocation.granted_bytes
            yield from mac.gb_free(allocation)
            return granted
        before = kernel.run_process(mac_view(), "mac1")

        def probe():
            fccd = FCCD(rng=random.Random(1), access_unit_bytes=MIB,
                        prediction_unit_bytes=256 * KIB)
            yield from fccd.plan_file("/mnt0/f")
        kernel.run_process(probe(), "probe")
        after = kernel.run_process(mac_view(), "mac2")
        assert abs(before - after) <= 4 * MIB

    def test_refresh_then_probe_sees_cold_files(self, kernel):
        """FLDC's refresh rewrites files; FCCD still reasons correctly
        about the rewritten (cached-from-copy) state."""
        def setup():
            yield sc.mkdir("/mnt0/d")
            yield from create_files("/mnt0/d", 4, 256 * KIB)
        kernel.run_process(setup(), "setup")

        def refresh():
            yield from FLDC().refresh_directory("/mnt0/d")
        kernel.run_process(refresh(), "refresh")
        # The copy just wrote every file: they are all cached.
        fccd = FCCD(rng=random.Random(1), access_unit_bytes=MIB,
                    prediction_unit_bytes=256 * KIB)

        def order():
            names = (yield sc.readdir("/mnt0/d")).value
            paths = [f"/mnt0/d/{n}" for n in names]
            _ordered, plans = yield from fccd.order_files(paths)
            return [plans[p].mean_probe_ns for p in paths]
        probe_times = kernel.run_process(order(), "order")
        assert all(t < 100_000 for t in probe_times)
