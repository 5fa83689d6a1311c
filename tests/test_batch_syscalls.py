"""Batched vs sequential syscall equivalence.

The batched probe syscalls (``pread_batch``/``touch_batch``/
``stat_batch``) are a *host* wall-clock optimization: the covert timing
channel — per-probe simulated ``elapsed_ns`` — and every piece of
kernel state a probe perturbs (cache contents, replacement-policy
recency, inode stamps, the clock) must be bit-for-bit identical to the
equivalent sequence of single calls.  These tests run the same workload
through both paths on twin kernels and compare everything observable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.icl.fccd import FCCD
from repro.icl.mac import MAC
from repro.icl.fldc import FLDC
from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.errors import BadFileDescriptor, FileNotFound, InvalidArgument
from repro.sim.inject import FaultInjector, InjectionConfig, LatencyNoise
from repro.toolbox.repository import ParameterRepository
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024
PAGE = 4 * KIB


def small_config() -> MachineConfig:
    return MachineConfig(
        page_size=PAGE,
        memory_bytes=40 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )


def _twin_kernels(setup=None):
    """Two identically-prepared kernels (sequential twin, batched twin)."""
    kernels = (Kernel(small_config()), Kernel(small_config()))
    if setup is not None:
        for kernel in kernels:
            setup(kernel)
    return kernels


def _cache_fingerprint(kernel: Kernel, path: str):
    stats = kernel.oracle.cache_stats()
    return (
        kernel.oracle.cached_file_pages(path),
        kernel.oracle.file_pool_used_pages(),
        stats.hits,
        stats.misses,
        stats.evictions,
        kernel.clock.now,
    )


# ======================================================================
# pread_batch
# ======================================================================
class TestPreadBatchEquivalence:
    PATH = "/mnt0/data"

    def _setup(self, nbytes, warm=()):
        """A cold file of ``nbytes``, then one pread of each ``warm`` page."""
        def build(kernel):
            kernel.run_process(make_file(self.PATH, nbytes), "setup")
            kernel.oracle.flush_file_cache()

            def warm_up():
                fd = (yield sc.open(self.PATH)).value
                for page in warm:
                    yield sc.pread(fd, page * PAGE, 1)
                yield sc.close(fd)
            if warm:
                kernel.run_process(warm_up(), "warm")
        return build

    def _run_both(self, probes, nbytes=2 * MIB, warm=()):
        seq_kernel, batch_kernel = _twin_kernels(self._setup(nbytes, warm))

        def sequential():
            fd = (yield sc.open(self.PATH)).value
            out = []
            for offset, count in probes:
                result = yield sc.pread(fd, offset, count)
                out.append((result.value.nbytes, result.value.data, result.elapsed_ns))
            yield sc.close(fd)
            return out

        def batched():
            fd = (yield sc.open(self.PATH)).value
            result = yield sc.pread_batch(fd, probes)
            out = [(p.nbytes, p.data, p.elapsed_ns) for p in result.value]
            total = result.elapsed_ns
            yield sc.close(fd)
            return out, total

        seq = seq_kernel.run_process(sequential(), "seq")
        batch, total = batch_kernel.run_process(batched(), "batch")
        return seq, batch, total, seq_kernel, batch_kernel

    def test_cold_then_warm_probes_identical(self):
        # Revisits: the first pass misses, the second hits.
        probes = [(i * PAGE, 1) for i in range(64)] * 2
        seq, batch, total, k_seq, k_batch = self._run_both(probes)
        assert seq == batch
        assert total == sum(e for _n, _d, e in batch)
        assert _cache_fingerprint(k_seq, self.PATH) == _cache_fingerprint(
            k_batch, self.PATH
        )

    def test_multi_page_eof_and_empty_probes(self):
        probes = [
            (0, 3 * PAGE),          # page-spanning
            (2 * MIB - 100, 500),   # short read at EOF
            (2 * MIB, 10),          # entirely past EOF -> 0 bytes
            (5, 0),                 # zero-length
            (PAGE - 1, 2),          # straddles a page boundary
        ]
        seq, batch, _total, k_seq, k_batch = self._run_both(probes)
        assert seq == batch
        assert _cache_fingerprint(k_seq, self.PATH) == _cache_fingerprint(
            k_batch, self.PATH
        )

    def test_real_content_round_trips(self):
        payload = bytes(range(256)) * 64
        seq_kernel, batch_kernel = _twin_kernels(
            lambda k: k.run_process(make_file(self.PATH, payload), "setup")
        )
        probes = [(17, 5), (1000, 64), (len(payload) - 3, 100)]

        def batched():
            fd = (yield sc.open(self.PATH)).value
            result = (yield sc.pread_batch(fd, probes)).value
            yield sc.close(fd)
            return [(p.nbytes, p.data) for p in result]

        def sequential():
            fd = (yield sc.open(self.PATH)).value
            out = []
            for offset, count in probes:
                r = (yield sc.pread(fd, offset, count)).value
                out.append((r.nbytes, r.data))
            yield sc.close(fd)
            return out

        assert batch_kernel.run_process(batched(), "b") == seq_kernel.run_process(
            sequential(), "s"
        )

    def test_atime_matches_sequential(self):
        probes = [(0, 1), (PAGE, 1), (2 * PAGE, 1)]
        _seq, _batch, _t, k_seq, k_batch = self._run_both(probes)
        assert (
            k_seq.oracle.inode_of(self.PATH).atime
            == k_batch.oracle.inode_of(self.PATH).atime
        )

    def test_bad_fd_raises(self, kernel):
        def app():
            yield sc.pread_batch(99, [(0, 1)])
        with pytest.raises(BadFileDescriptor):
            kernel.run_process(app(), "bad")

    def test_negative_probe_raises_like_pread(self):
        seq, batch, _t, _k1, _k2 = self._run_both([(0, 1)])  # sanity
        for bad in [(-1, 1), (0, -1)]:
            for name, call in [
                ("seq", lambda fd, b=bad: sc.pread(fd, *b)),
                ("batch", lambda fd, b=bad: sc.pread_batch(fd, [b])),
            ]:
                kernel = Kernel(small_config())
                kernel.run_process(make_file(self.PATH, PAGE), "setup")

                def app(call=call):
                    fd = (yield sc.open(self.PATH)).value
                    yield call(fd)
                with pytest.raises(InvalidArgument):
                    kernel.run_process(app(), name)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_property_random_probe_lists(self, data):
        """Any probe list over a partly warm file: per-probe results,
        cache state and atime identical."""
        size = data.draw(st.integers(min_value=1, max_value=64)) * PAGE
        pages = range(size // PAGE)
        warm = set(data.draw(st.lists(st.sampled_from(pages), max_size=len(pages))))
        if data.draw(st.booleans()):
            # The ICL shape: 8 or more single-page probes of one length,
            # whose pages are sometimes all warm (the batch pre-pass).
            length = data.draw(st.integers(min_value=1, max_value=PAGE))
            probes = [
                (page * PAGE + data.draw(st.integers(min_value=0, max_value=PAGE - length)),
                 length)
                for page in data.draw(st.lists(st.sampled_from(pages), min_size=8, max_size=40))
            ]
            if data.draw(st.booleans()):
                warm.update(offset // PAGE for offset, _n in probes)
        else:
            n = data.draw(st.integers(min_value=1, max_value=40))
            probes = [
                (
                    data.draw(st.integers(min_value=0, max_value=size + PAGE)),
                    data.draw(st.integers(min_value=0, max_value=3 * PAGE)),
                )
                for _ in range(n)
            ]
        seq, batch, total, k_seq, k_batch = self._run_both(
            probes, nbytes=size, warm=sorted(warm)
        )
        assert seq == batch
        assert total == sum(e for _n, _d, e in batch)
        assert _cache_fingerprint(k_seq, self.PATH) == _cache_fingerprint(
            k_batch, self.PATH
        )
        assert (
            k_seq.oracle.inode_of(self.PATH).atime
            == k_batch.oracle.inode_of(self.PATH).atime
        )


# ======================================================================
# touch_batch
# ======================================================================
class TestTouchBatchEquivalence:
    def _run_both(self, npages, script):
        """``script(batch)`` is a generator factory run on twin kernels."""
        seq_kernel, batch_kernel = _twin_kernels()
        seq = seq_kernel.run_process(script(False), "seq")
        batch = batch_kernel.run_process(script(True), "batch")
        assert seq_kernel.clock.now == batch_kernel.clock.now
        return seq, batch, seq_kernel, batch_kernel

    def test_touch_range_equivalence(self):
        npages = 200

        def script(batch):
            region = (yield sc.vm_alloc(npages * PAGE, "t")).value
            if batch:
                first = (yield sc.touch_batch(region, 0, npages)).value.elapsed_ns
                second = (yield sc.touch_batch(region, 0, npages)).value.elapsed_ns
            else:
                first = tuple((yield sc.touch_range(region, 0, npages)).value)
                second = tuple((yield sc.touch_range(region, 0, npages)).value)
            return first, second

        seq, batch, _k1, _k2 = self._run_both(npages, script)
        assert seq == batch  # cold (zero-fill) then warm (resident) times

    def test_stride_equivalence(self):
        npages = 120

        def script(batch):
            region = (yield sc.vm_alloc(npages * PAGE, "t")).value
            yield sc.touch_range(region, 0, npages)
            if batch:
                result = (yield sc.touch_batch(region, 0, npages, 7)).value
                return result.elapsed_ns
            times = []
            for index in range(0, npages, 7):
                times.append((yield sc.touch(region, index)).elapsed_ns)
            return tuple(times)

        seq, batch, _k1, _k2 = self._run_both(npages, script)
        assert seq == batch

    def test_early_stop_leaves_identical_state(self):
        """The kernel-side slow detector aborts at the same page the
        user-space windowed loop would, leaving the same pool state."""
        npages = 50
        threshold = 0  # every touch is "slow": trip on the second page

        def script(batch):
            region = (yield sc.vm_alloc(npages * PAGE, "t")).value
            if batch:
                result = (
                    yield sc.touch_batch(
                        region, 0, npages,
                        threshold_ns=threshold, slow_count=2, slow_window=8,
                    )
                ).value
                return result.elapsed_ns, result.stopped
            times = []
            marks = []
            stopped = False
            for index in range(npages):
                elapsed = (yield sc.touch(region, index)).elapsed_ns
                times.append(elapsed)
                if elapsed > threshold:
                    marks.append(index)
                    if sum(1 for m in marks if index - m < 8) >= 2:
                        stopped = True
                        break
            return tuple(times), stopped

        seq, batch, k_seq, k_batch = self._run_both(npages, script)
        assert seq == batch
        assert batch[1] is True
        assert len(batch[0]) == 2
        assert (
            k_seq.oracle.resident_anon_pages(1) == k_batch.oracle.resident_anon_pages(1)
        )

    def test_validation_errors(self, kernel):
        def bad(call):
            def app():
                region = (yield sc.vm_alloc(4 * PAGE, "t")).value
                yield call(region)
            return app

        for call in [
            lambda r: sc.touch_batch(r, 0, 0),
            lambda r: sc.touch_batch(r, 0, 4, 0),
            lambda r: sc.touch_batch(r, 0, 4, 1, None, 0, 1),
            lambda r: sc.touch_batch(r, 0, 400),  # beyond the region
        ]:
            with pytest.raises(InvalidArgument):
                kernel.run_process(bad(call)(), "bad")

    def test_out_of_bounds_raises_at_same_point(self):
        """A batch straddling the region end touches the in-bounds
        prefix before raising, exactly like ``touch_range`` (the
        pre-existing vectored call, whose error semantics — memory
        state mutated, no time charged — batch calls share)."""
        range_kernel, batch_kernel = _twin_kernels()

        def script(batch):
            region = (yield sc.vm_alloc(8 * PAGE, "t")).value
            try:
                if batch:
                    yield sc.touch_batch(region, 4, 8)
                else:
                    yield sc.touch_range(region, 4, 8)
            except InvalidArgument:
                pass
            return None

        range_kernel.run_process(script(False), "seq")
        batch_kernel.run_process(script(True), "batch")
        assert (
            range_kernel.oracle.resident_anon_pages(1)
            == batch_kernel.oracle.resident_anon_pages(1)
        )
        assert range_kernel.clock.now == batch_kernel.clock.now


# ======================================================================
# stat_batch
# ======================================================================
class TestStatBatchEquivalence:
    PATHS = [f"/mnt0/dir/f{i}" for i in range(12)]

    def _setup(self, kernel):
        def populate():
            yield sc.mkdir("/mnt0/dir")
            for path in self.PATHS:
                fd = (yield sc.create(path)).value
                yield sc.write(fd, 700)
                yield sc.close(fd)
        kernel.run_process(populate(), "setup")
        kernel.oracle.flush_file_cache()

    def test_cold_then_warm_sweep_identical(self):
        seq_kernel, batch_kernel = _twin_kernels(self._setup)

        def sequential():
            out = []
            for _ in range(2):  # cold sweep, then warm sweep
                for path in self.PATHS:
                    result = yield sc.stat(path)
                    out.append((result.value, result.elapsed_ns))
            return out

        def batched():
            out = []
            for _ in range(2):
                result = yield sc.stat_batch(self.PATHS)
                assert result.elapsed_ns == sum(p.elapsed_ns for p in result.value)
                out.extend((p.stat, p.elapsed_ns) for p in result.value)
            return out

        seq = seq_kernel.run_process(sequential(), "seq")
        batch = batch_kernel.run_process(batched(), "batch")
        assert seq == batch
        assert seq_kernel.clock.now == batch_kernel.clock.now

    def test_missing_path_fails_whole_batch(self):
        kernel = Kernel(small_config())
        self._setup(kernel)

        def app():
            yield sc.stat_batch([self.PATHS[0], "/mnt0/dir/ghost"])
        with pytest.raises(FileNotFound):
            kernel.run_process(app(), "bad")


# ======================================================================
# dcache invalidation adversary
# ======================================================================
class TestDcacheInvalidationAdversary:
    """Namespace churn racing the name-lookup cache.

    The dcache memoizes whole path walks, so the dangerous interleavings
    are mutations *between* probes of the same path: a stale entry that
    survives a rename/unlink/create serves the old namespace.  These
    twins run an adversarial schedule — stat and stat_batch interleaved
    with every generation-bumping mutation — on ``name_cache=True`` vs
    ``name_cache=False`` kernels and require byte-identical probe
    results, per-probe elapsed times, page-cache fingerprints, and
    clocks.
    """

    DIR = "/mnt0/adv"

    def _populate(self, kernel: Kernel, n: int = 10):
        def build():
            yield sc.mkdir(self.DIR)
            for i in range(n):
                fd = (yield sc.create(f"{self.DIR}/f{i}")).value
                yield sc.write(fd, 700 + 97 * i)
                yield sc.close(fd)
        kernel.run_process(build(), "setup")
        kernel.oracle.flush_file_cache()

    def _adversary(self, seed: int, rounds: int = 40):
        """A generator factory: the same seeded schedule each call."""
        def script():
            rng = random.Random(seed)
            live = [f"{self.DIR}/f{i}" for i in range(10)]
            fresh = 0
            out = []
            for _ in range(rounds):
                op = rng.randrange(6)
                if op == 0:  # single probe
                    result = yield sc.stat(rng.choice(live))
                    out.append((result.value, result.elapsed_ns))
                elif op == 1:  # batched sweep, duplicates included
                    paths = [rng.choice(live) for _ in range(6)]
                    result = yield sc.stat_batch(paths)
                    out.extend((p.stat, p.elapsed_ns) for p in result.value)
                elif op == 2:  # rename a probed path out from under us
                    victim = rng.randrange(len(live))
                    fresh += 1
                    target = f"{self.DIR}/mv{fresh}"
                    yield sc.rename(live[victim], target)
                    live[victim] = target
                elif op == 3:  # unlink + recreate: same name, new inode
                    victim = rng.choice(live)
                    yield sc.unlink(victim)
                    fd = (yield sc.create(victim)).value
                    yield sc.write(fd, 300)
                    yield sc.close(fd)
                elif op == 4:  # grow the directory itself
                    fresh += 1
                    fd = (yield sc.create(f"{self.DIR}/new{fresh}")).value
                    yield sc.close(fd)
                    live.append(f"{self.DIR}/new{fresh}")
                else:  # metadata mutation without a namespace change
                    yield sc.utimes(rng.choice(live), 50, 60)
            # One full sweep at the end: every surviving name resolves.
            result = yield sc.stat_batch(sorted(live))
            out.extend((p.stat, p.elapsed_ns) for p in result.value)
            return out
        return script

    def _run(self, seed: int, name_cache: bool, noisy: bool):
        kernel = Kernel(small_config(), name_cache=name_cache)
        if noisy:
            FaultInjector(
                InjectionConfig(
                    seed=seed,
                    latency=LatencyNoise(
                        jitter_ns=15_000, spike_prob=0.05,
                        spike_ns=4_000_000, granularity_ns=5_000,
                    ),
                )
            ).install(kernel)
        self._populate(kernel)
        out = kernel.run_process(self._adversary(seed)(), "adv")
        # Fingerprint the directory: the adversary renames files, but
        # the directory itself never moves.
        return out, _cache_fingerprint(kernel, self.DIR)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_differential_churn(self, noisy):
        for case in range(8):
            seed = 0xDCA + 613 * case
            on = self._run(seed, name_cache=True, noisy=noisy)
            off = self._run(seed, name_cache=False, noisy=noisy)
            assert on == off, (
                f"dcache divergence (noisy={noisy}): reproduce with "
                f"seed={seed}"
            )

    def test_stale_entry_never_resolves_old_namespace(self):
        """Point check: after mv f0 -> g, stat(f0) fails and stat(g)
        returns f0's inode, with the walk memoized in between."""
        kernel = Kernel(small_config())
        self._populate(kernel)

        def script():
            before = (yield sc.stat(f"{self.DIR}/f0")).value
            yield sc.stat(f"{self.DIR}/f0")  # memoized, replayed
            yield sc.rename(f"{self.DIR}/f0", f"{self.DIR}/g")
            after = (yield sc.stat(f"{self.DIR}/g")).value
            try:
                yield sc.stat(f"{self.DIR}/f0")
            except FileNotFound:
                return before, after, True
            return before, after, False
        before, after, missed = kernel.run_process(script(), "adv")
        assert missed
        assert after.ino == before.ino
        assert after.ctime >= before.ctime  # rename stamps ctime

    def test_recreated_name_resolves_new_inode(self):
        kernel = Kernel(small_config())
        self._populate(kernel)

        def script():
            old = (yield sc.stat(f"{self.DIR}/f3")).value
            yield sc.unlink(f"{self.DIR}/f3")
            fd = (yield sc.create(f"{self.DIR}/f3")).value
            yield sc.write(fd, 42)
            yield sc.close(fd)
            new = (yield sc.stat(f"{self.DIR}/f3")).value
            return old, new
        old, new = kernel.run_process(script(), "adv")
        assert new.size == 42
        assert new.size != old.size


# ======================================================================
# ICLs: batch_probes=True vs False
# ======================================================================
class TestIclBatchEquivalence:
    def test_fccd_plans_identical(self):
        path = "/mnt0/scan.dat"

        def setup(kernel):
            kernel.run_process(make_file(path, 1 * MIB), "setup")
            kernel.oracle.flush_file_cache()
            # Warm an arbitrary stretch so probes see mixed hit/miss.
            def warm():
                fd = (yield sc.open(path)).value
                yield sc.pread(fd, 300 * KIB, 200 * KIB)
                yield sc.close(fd)
            kernel.run_process(warm(), "warm")

        plans = {}
        for batch in (False, True):
            kernel = Kernel(small_config())
            setup(kernel)
            fccd = FCCD(
                rng=random.Random(11),
                access_unit_bytes=256 * KIB,
                prediction_unit_bytes=64 * KIB,
                batch_probes=batch,
            )

            def app():
                return (yield from fccd.plan_file(path))
            plans[batch] = kernel.run_process(app(), "fccd")

        assert plans[False].segments == plans[True].segments
        assert plans[False].ordered_ranges() == plans[True].ordered_ranges()

    def test_fldc_order_identical(self):
        paths = [f"/mnt0/d/f{i}" for i in range(10)]

        def setup(kernel):
            def populate():
                yield sc.mkdir("/mnt0/d")
                for i, path in enumerate(paths):
                    fd = (yield sc.create(path)).value
                    yield sc.write(fd, (i + 1) * KIB)
                    yield sc.close(fd)
            kernel.run_process(populate(), "setup")

        orders = {}
        for batch in (False, True):
            kernel = Kernel(small_config())
            setup(kernel)
            fldc = FLDC(batch_probes=batch)

            def app():
                return (yield from fldc.layout_order(list(reversed(paths))))
            orders[batch] = kernel.run_process(app(), "fldc")

        assert orders[False][0] == orders[True][0]
        assert orders[False][1] == orders[True][1]

    def _run_mac(self, batch, repository):
        kernel = Kernel(small_config())
        mac = MAC(
            repository=repository,
            page_size=PAGE,
            initial_increment_bytes=1 * MIB,
            max_increment_bytes=8 * MIB,
            batch_probes=batch,
        )

        def app():
            allocation = yield from mac.gb_alloc(2 * MIB, 16 * MIB)
            granted = None if allocation is None else allocation.granted_bytes
            if allocation is not None:
                yield from mac.gb_free(allocation)
            return granted

        granted = kernel.run_process(app(), "mac")
        return granted, mac.stats, kernel.clock.now

    @staticmethod
    def _repo(zero_ns, disk_ns):
        repo = ParameterRepository()
        repo.set("mem.page_zero_ns", zero_ns, units="ns")
        repo.set("disk.random_access_ns", disk_ns, units="ns")
        return repo

    def test_mac_grant_identical(self):
        # Generous threshold: everything fits, a normal grant.
        repo = lambda: self._repo(3_000, 10_000_000)
        seq = self._run_mac(False, repo())
        batch = self._run_mac(True, repo())
        assert seq == batch
        assert seq[0] == 16 * MIB

    def test_mac_denial_identical(self):
        # Threshold below the zero-fill cost: every cold touch is slow,
        # so loop 1 aborts immediately and the allocation is denied —
        # the early-stop path on both sides.
        repo = lambda: self._repo(10, 40)
        g_seq, s_seq, t_seq = self._run_mac(False, repo())
        g_batch, s_batch, t_batch = self._run_mac(True, repo())
        assert g_seq is None and g_batch is None
        assert (
            s_seq.probe_touches,
            s_seq.loop1_aborts,
            s_seq.backoffs,
            s_seq.denials,
        ) == (
            s_batch.probe_touches,
            s_batch.loop1_aborts,
            s_batch.backoffs,
            s_batch.denials,
        )
        assert s_batch.loop1_aborts >= 1
        assert t_seq == t_batch

    def test_mac_hardened_verify_identical_under_touch_spikes(self):
        # Windowed verify passes with retries: touch-latency spikes over
        # a repository threshold trip loop 1 and both verify passes, and
        # both sides draw the same spike stream, touch for touch.
        def run(batch):
            kernel = Kernel(small_config())
            injector = FaultInjector(InjectionConfig(
                seed=2,
                touch_latency=LatencyNoise(spike_prob=0.01, spike_ns=400_000),
            )).install(kernel)
            mac = MAC(
                repository=self._repo(3_000, 10_000_000),
                page_size=PAGE,
                initial_increment_bytes=256 * KIB,
                max_increment_bytes=2 * MIB,
                slow_window_touches=32,
                batch_probes=batch,
                robust_verify=True,
                verify_retries=2,
            )

            def app():
                allocation = yield from mac.gb_alloc(1 * MIB, 8 * MIB)
                granted = None if allocation is None else allocation.granted_bytes
                if allocation is not None:
                    yield from mac.gb_free(allocation)
                return granted

            granted = kernel.run_process(app(), "mac")
            return (
                granted, mac.stats, kernel.clock.now,
                injector.schedule_digest(), injector.stats(),
            )

        seq, batch = run(False), run(True)
        assert seq == batch
        for _granted, stats, *_rest in (seq, batch):
            assert stats.verify_retries > 0
            assert stats.loop1_aborts > 0
            # More back-offs than loop-1 aborts: some verify failed for good.
            assert stats.backoffs > stats.loop1_aborts
        assert seq[0] is not None

    def test_fldc_refresh_identical(self):
        names = [f"f{i}" for i in range(8)]

        def run(batch):
            kernel = Kernel(small_config())

            def populate():
                yield sc.mkdir("/mnt0/d")
                # Largest first, so the refresh really reorders.
                for i, name in enumerate(names):
                    fd = (yield sc.create(f"/mnt0/d/{name}")).value
                    yield sc.write(fd, (len(names) - i) * 3 * KIB)
                    yield sc.close(fd)
            kernel.run_process(populate(), "setup")
            fldc = FLDC(obs=kernel.obs, batch_probes=batch)

            def app():
                report = yield from fldc.refresh_directory("/mnt0/d")
                spans = [r["name"] for r in kernel.obs.events.spans()]
                order, _stats = yield from fldc.layout_order(
                    [f"/mnt0/d/{name}" for name in names]
                )
                return report, order, spans

            report, order, spans = kernel.run_process(app(), "fldc")
            return report, order, kernel.clock.now, spans

        seq, batch = run(False), run(True)
        assert seq == batch
        report, order, _now, spans = seq
        assert report.order == [f"f{i}" for i in reversed(range(8))]
        assert order == [f"/mnt0/d/{name}" for name in report.order]
        assert spans == ["fldc.refresh"]
