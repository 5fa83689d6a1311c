"""Kernel fuzzing: random syscall storms must preserve global invariants,
and twin kernels driven by the same seed must agree bit-for-bit.

The differential half runs >= 200 seeded cases across three claims:

* batched probe syscalls == the equivalent sequential calls, including
  under injected latency noise (the jitter streams are keyed per probe,
  not per syscall, so both forms draw identical noise);
* an installed-but-inert :class:`FaultInjector` is indistinguishable
  from no injector at all (the off-switch really is off);
* a noisy machine (faults, jitter, interference) replays byte-identically
  from its seed.

Every assertion message carries the reproducing seed.
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    FaultInjector,
    InjectionConfig,
    Kernel,
    LatencyNoise,
    MILLIS,
    noise_profile,
    syscalls as sc,
)
from repro.sim.cache.base import AnonKey, FileKey, MetaKey
from repro.sim.config import linux22, netbsd15, solaris7
from repro.sim.errors import OutOfMemory, SimOSError
from repro.sim.inject import horizon_after
from repro.sim.vm.faults import VMLayer
from repro.sim.vm.physmem import MemoryManager
from tests.conftest import KIB, MIB, all_groups, small_config


def chaos_process(seed: int, steps: int):
    """A process issuing a random but self-consistent syscall stream."""
    rng = random.Random(seed)
    open_fds = []
    regions = []
    my_files = []

    def random_path():
        return f"/mnt0/fz{rng.randrange(6)}"

    for _ in range(steps):
        action = rng.randrange(10)
        try:
            if action == 0:
                fd = (yield sc.create(random_path())).value
                open_fds.append(fd)
                my_files.append(random_path())
            elif action == 1:
                fd = (yield sc.open(random_path())).value
                open_fds.append(fd)
            elif action == 2 and open_fds:
                yield sc.write(open_fds[-1], rng.randrange(1, 64 * KIB))
            elif action == 3 and open_fds:
                yield sc.pread(open_fds[-1], rng.randrange(128 * KIB), 4 * KIB)
            elif action == 4 and open_fds:
                yield sc.close(open_fds.pop())
            elif action == 5:
                region = (yield sc.vm_alloc(rng.randrange(1, 32) * 4 * KIB)).value
                regions.append(region)
            elif action == 6 and regions:
                yield sc.touch(regions[-1], 0)
            elif action == 7 and regions:
                yield sc.vm_free(regions.pop())
            elif action == 8:
                yield sc.sleep(rng.randrange(1, 100_000))
            else:
                yield sc.stat(random_path())
        except SimOSError:
            continue
    return "survived"


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=4),
    steps=st.integers(min_value=5, max_value=60),
)
def test_chaos_processes_preserve_invariants(seeds, steps):
    kernel = Kernel(small_config())
    processes = [
        kernel.spawn(chaos_process(seed, steps), f"chaos{i}")
        for i, seed in enumerate(seeds)
    ]
    kernel.run()
    # Everyone survived their own errors.
    assert all(p.result == "survived" for p in processes)
    # Clock only ever moved forward and the pools balance.
    assert kernel.clock.now >= 0
    mm = kernel.mm
    assert 0 <= mm.file_pool_used() <= mm.file_capacity_pages
    assert mm.dirty_file_pages >= 0
    # All process memory was released at exit.
    for process in processes:
        assert kernel.oracle.resident_anon_pages(process.pid) == 0
    # Filesystem bitmaps agree with inode block maps.
    for fs in kernel._fs_by_id.values():
        mapped = sum(len(inode.blocks) for inode in fs.inodes.values())
        used = sum(cg.data_blocks - cg.free_block_count for cg in all_groups(fs))
        assert used == mapped
    assert_dirty_index_matches_pool(mm)
    assert_residency_matches_pool(mm)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chaos_is_deterministic(seed):
    def run():
        kernel = Kernel(small_config())
        kernel.run_process(chaos_process(seed, 40), "chaos")
        return kernel.clock.now
    assert run() == run()


# ---------------------------------------------------------------------------
# Differential fuzzing: twin kernels must agree bit-for-bit
# ---------------------------------------------------------------------------
def state_digest(kernel: Kernel) -> str:
    """Hash of everything observable about the machine's final state:
    the clock, the memory pools (full replacement state, so a twin that
    reorders a ring fails here, not only through later timing), the
    memory manager's dirty index, page owners and file epoch, and the
    full filesystem image."""
    mm = kernel.mm
    parts = [
        f"clock:{kernel.clock.now}",
        f"filepool:{mm.file_pool_used()}",
        f"dirty:{mm.dirty_file_pages}",
        f"swap:{kernel.oracle.swap_used_slots()}",
        f"pools:{_policy_dump(mm._file_pool)}",
        f"anonpool:{_policy_dump(mm._anon_pool) if not mm.unified else ''}",
        f"dirtyindex:{[(f, sorted(d)) for f, d in mm._dirty_by_file.items()]}",
        f"owners:{list(mm._page_owner.items())}",
        f"epoch:{mm.file_epoch}",
    ]
    for fs_id in sorted(kernel._fs_by_id):
        fs = kernel._fs_by_id[fs_id]
        for ino in sorted(fs.inodes):
            inode = fs.inodes[ino]
            parts.append(
                f"fs{fs_id}/ino{ino}:{inode.kind.name}:{inode.size}"
                f":{inode.mtime}:{tuple(inode.blocks)}"
            )
        parts.append(
            f"fs{fs_id}/free:{tuple(cg.free_block_count for cg in all_groups(fs))}"
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


PROBE_FILE_BYTES = 64 * KIB
PROBE_REGION_PAGES = 16


def probe_process(seed: int, steps: int, batch: bool, page: int = 4 * KIB):
    """Mixed probe workload in batched or sequential form.

    The RNG draws are identical for both forms — only the syscall
    shape differs — so a correct kernel (and a correct injector) must
    land both twins on the same final state and clock.
    """
    rng = random.Random(seed)
    paths = []
    for i in range(4):
        path = f"/mnt0/pf{i}"
        fd = (yield sc.create(path)).value
        yield sc.write(fd, PROBE_FILE_BYTES)
        yield sc.close(fd)
        paths.append(path)
    fds = []
    for path in paths:
        # ``open`` is fault-eligible; injected streaks cap at
        # max_consecutive=2, so a few blind retries always succeed.
        for _attempt in range(8):
            try:
                fds.append((yield sc.open(path)).value)
                break
            except SimOSError:
                continue
    region = (yield sc.vm_alloc(PROBE_REGION_PAGES * page)).value

    for _ in range(steps):
        action = rng.randrange(3)
        try:
            if action == 0:
                fd = fds[rng.randrange(len(fds))]
                offsets = [
                    rng.randrange(PROBE_FILE_BYTES)
                    for _ in range(rng.randrange(1, 6))
                ]
                if batch:
                    yield sc.pread_batch(fd, [(o, 1) for o in offsets])
                else:
                    for offset in offsets:
                        yield sc.pread(fd, offset, 1)
            elif action == 1:
                count = rng.randrange(1, len(paths) + 1)
                if batch:
                    yield sc.stat_batch(paths[:count])
                else:
                    for path in paths[:count]:
                        yield sc.stat(path)
            else:
                start = rng.randrange(PROBE_REGION_PAGES // 2)
                npages = rng.randrange(1, PROBE_REGION_PAGES - start + 1)
                if batch:
                    yield sc.touch_batch(region, start, npages)
                else:
                    for index in range(start, start + npages):
                        yield sc.touch(region, index)
        except SimOSError:
            # Injected transients (the replay fuzz) are survivable; the
            # jitter-only twins never fault, so batch and sequential
            # forms cannot diverge through this handler.
            continue

    for fd in fds:
        yield sc.close(fd)
    yield sc.vm_free(region)
    return "survived"


TOUCH_JITTER_NS = 80
TOUCH_SPIKE_NS = 50_000


def _probe_jitter_config(seed: int) -> InjectionConfig:
    """Latency-only noise: faults and scheduler jitter are keyed per
    *syscall*, which batched and sequential forms issue in different
    numbers; the per-probe jitter streams are the equivalence claim."""
    return InjectionConfig(
        seed=seed,
        latency=LatencyNoise(
            jitter_ns=15_000,
            spike_prob=0.05,
            spike_ns=4 * MILLIS,
            granularity_ns=5_000,
        ),
        touch_latency=LatencyNoise(
            jitter_ns=TOUCH_JITTER_NS,
            spike_prob=0.01,
            spike_ns=TOUCH_SPIKE_NS,
            granularity_ns=25,
        ),
    )


def _run_probe_twin(seed: int, batch: bool, noisy: bool):
    kernel = Kernel(small_config())
    injector = None
    if noisy:
        injector = FaultInjector(_probe_jitter_config(seed))
        injector.install(kernel)
    result = kernel.run_process(probe_process(seed, 12, batch), "probe")
    assert result == "survived"
    return kernel.clock.now, state_digest(kernel)


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_batch_vs_sequential(noisy):
    """60 twin pairs per mode: batched and sequential probes agree."""
    for case in range(60):
        seed = 0xD1F + 977 * case
        seq = _run_probe_twin(seed, batch=False, noisy=noisy)
        bat = _run_probe_twin(seed, batch=True, noisy=noisy)
        assert seq == bat, (
            f"batch/sequential divergence (noisy={noisy}): reproduce with "
            f"seed={seed} (clock/digest {seq} != {bat})"
        )


def churn_probe_process(seed: int, steps: int):
    """Metadata probes racing namespace churn, for the dcache twins.

    Every observation a process could use to distinguish the memoizing
    name cache from raw walks — stat fields, per-probe elapsed times,
    readdir listings, which paths exist at all — is folded into the
    returned fingerprint.  Unlike :func:`probe_process` this stream is
    mutation-heavy: rename, unlink-then-recreate, and directory growth
    interleave with the probes, so any stale dcache entry shows up as a
    fingerprint divergence (wrong inode, wrong times, or a probe that
    should have failed but didn't).
    """
    rng = random.Random(seed)
    yield sc.mkdir("/mnt0/churn")
    live = []
    for i in range(6):
        path = f"/mnt0/churn/c{i}"
        fd = (yield sc.create(path)).value
        yield sc.write(fd, 500 + 131 * i)
        yield sc.close(fd)
        live.append(path)
    fingerprint = []
    fresh = 0
    for _ in range(steps):
        action = rng.randrange(7)
        try:
            if action == 0:
                result = yield sc.stat(rng.choice(live))
                stat = result.value
                fingerprint.append(
                    (stat.ino, stat.size, stat.mtime, stat.ctime,
                     result.elapsed_ns)
                )
            elif action == 1:
                paths = [rng.choice(live) for _ in range(rng.randrange(1, 5))]
                result = yield sc.stat_batch(paths)
                for probe in result.value:
                    fingerprint.append(
                        (probe.stat.ino, probe.stat.size, probe.stat.mtime,
                         probe.stat.ctime, probe.elapsed_ns)
                    )
            elif action == 2:
                victim = rng.randrange(len(live))
                fresh += 1
                target = f"/mnt0/churn/r{fresh}"
                yield sc.rename(live[victim], target)
                live[victim] = target
            elif action == 3:
                victim = rng.choice(live)
                yield sc.unlink(victim)
                fd = (yield sc.create(victim)).value
                yield sc.write(fd, rng.randrange(1, 2048))
                yield sc.close(fd)
            elif action == 4:
                fresh += 1
                path = f"/mnt0/churn/n{fresh}"
                fd = (yield sc.create(path)).value
                yield sc.close(fd)
                live.append(path)
            elif action == 5:
                names = (yield sc.readdir("/mnt0/churn")).value
                fingerprint.append(tuple(names))
            else:
                # A probe of a name that churn may have moved away: the
                # error-vs-success outcome is part of the fingerprint.
                fresh_name = f"/mnt0/churn/r{rng.randrange(1, fresh + 2)}"
                try:
                    stat = (yield sc.stat(fresh_name)).value
                    fingerprint.append(("hit", stat.ino))
                except SimOSError:
                    fingerprint.append(("miss", fresh_name))
        except SimOSError:
            continue
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def _run_churn_twin(seed: int, name_cache: bool, noisy: bool):
    kernel = Kernel(small_config(), name_cache=name_cache)
    if noisy:
        FaultInjector(_probe_jitter_config(seed)).install(kernel)
    digest = kernel.run_process(churn_probe_process(seed, 40), "churn")
    return digest, kernel.clock.now, state_digest(kernel)


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_dcache_on_vs_off(noisy):
    """30 twin pairs per mode: a kernel with the name-lookup cache is
    byte-indistinguishable from one without it, under namespace churn
    designed to leave stale walk memos behind."""
    for case in range(30):
        seed = 0xDCAC + 389 * case
        on = _run_churn_twin(seed, name_cache=True, noisy=noisy)
        off = _run_churn_twin(seed, name_cache=False, noisy=noisy)
        assert on == off, (
            f"dcache on/off divergence (noisy={noisy}): reproduce with "
            f"seed={seed} ({on} != {off})"
        )


def test_differential_inert_injector_is_noop():
    """40 twin pairs: an all-defaults injector changes nothing."""
    for case in range(40):
        seed = 0xBEEF + 31 * case

        def run(install: bool):
            kernel = Kernel(small_config())
            injector = None
            if install:
                injector = FaultInjector(InjectionConfig())
                injector.install(kernel)
            kernel.run_process(chaos_process(seed, 30), "chaos")
            if injector is not None:
                assert injector.schedule == [], f"seed={seed}"
                injector.uninstall()
            return kernel.clock.now, state_digest(kernel)

        bare, inert = run(False), run(True)
        assert bare == inert, (
            f"inert injector perturbed the machine: reproduce with "
            f"seed={seed} ({bare} != {inert})"
        )


def test_differential_noisy_replay_is_deterministic():
    """40 seeds x replay: the full noise profile is a pure function of
    its seed — same fault schedule, same interference, same machine."""
    for case in range(40):
        seed = 0xACE + 613 * case
        level = 0.25 + 0.25 * (case % 4)

        def run():
            kernel = Kernel(small_config())
            injector = FaultInjector(noise_profile(level, seed=seed))
            injector.install(kernel)
            injector.spawn_interference(
                kernel, horizon_after(kernel, 50 * MILLIS)
            )
            kernel.spawn(chaos_process(seed, 25), "chaos")
            kernel.spawn(probe_process(seed, 8, batch=bool(case % 2)), "probe")
            kernel.run()
            return (
                kernel.clock.now,
                state_digest(kernel),
                injector.schedule_digest(),
            )

        first, second = run(), run()
        assert first == second, (
            f"noisy run did not replay: reproduce with seed={seed} "
            f"level={level}"
        )


# ---------------------------------------------------------------------------
# Vectorized vs scalar: the batch fast paths must be invisible
# ---------------------------------------------------------------------------
def obs_digest(kernel: Kernel) -> str:
    """Hash of the full observability stream (simulated stamps only)."""
    return hashlib.sha256(repr(list(kernel.obs.events)).encode()).hexdigest()


def _touch_threshold(rng: random.Random) -> int:
    """An early-stop threshold in one of four bands around the touch costs."""
    cfg = small_config()
    zero_fill_ns = cfg.fault_overhead_ns + cfg.page_zero_ns
    band = rng.randrange(4)
    if band == 0:  # below a resident touch: every touch is slow
        return rng.randrange(cfg.mem_touch_ns)
    if band == 1:  # within the touch jitter above a resident touch
        return cfg.mem_touch_ns + rng.randrange(TOUCH_JITTER_NS)
    if band == 2:  # around the zero-fill cost
        return zero_fill_ns + rng.randrange(-TOUCH_JITTER_NS, TOUCH_JITTER_NS)
    return zero_fill_ns + TOUCH_JITTER_NS + rng.randrange(TOUCH_SPIKE_NS)


def vector_workout(seed: int, steps: int, page: int = 4 * KIB):
    """A stream shaped to cross every vectorized fast path *and* its
    scalar fallback: contiguous zero-fill runs, resident re-touch runs,
    strided batches, thresholded batches on resident and fresh pages,
    uniform and mixed-length pread batches, dcache stat replays, and
    writeback storms of hundreds of blocks.
    Returns how many thresholded batches stopped early."""
    rng = random.Random(seed)
    fd = (yield sc.create("/mnt0/vw.dat")).value
    yield sc.write(fd, 2 * MIB)  # a 512-block writeback storm
    region = (yield sc.vm_alloc(64 * page)).value
    yield sc.touch_range(region, 0, 64)  # zero-fill run
    fresh = (yield sc.vm_alloc(32 * page)).value
    paths = []
    for i in range(3):
        path = f"/mnt0/vw{i}"
        nfd = (yield sc.create(path)).value
        yield sc.write(nfd, 16 * KIB)
        yield sc.close(nfd)
        paths.append(path)
    stops = 0
    for _ in range(steps):
        action = rng.randrange(8)
        if action == 0:
            yield sc.touch_range(region, rng.randrange(32), 1 + rng.randrange(32))
        elif action == 1:
            yield sc.touch_batch(
                region, rng.randrange(8), 1 + rng.randrange(16),
                stride=1 + rng.randrange(3),
            )
        elif action == 2:
            offsets = [rng.randrange(2 * MIB) for _ in range(12)]
            length = 1 if rng.randrange(2) else 1 + rng.randrange(64)
            yield sc.pread_batch(fd, [(o, length) for o in offsets])
        elif action == 3:
            # Mixed lengths; some spill over a page edge (scalar path).
            probes = [
                (rng.randrange(2 * MIB), 1 + rng.randrange(8 * KIB))
                for _ in range(10)
            ]
            yield sc.pread_batch(fd, probes)
        elif action == 4:
            yield sc.stat_batch(paths)
        elif action == 5:
            yield sc.write(fd, rng.randrange(1, 128 * KIB))
        else:
            # MAC's early-stop predicate: re-touch the resident region
            # (action 6) or zero-fill a newly allocated one (action 7).
            if action == 7:
                yield sc.vm_free(fresh)
                fresh = (yield sc.vm_alloc(32 * page)).value
            target = region if action == 6 else fresh
            result = (yield sc.touch_batch(
                target, rng.randrange(8), 1 + rng.randrange(24),
                stride=1 + rng.randrange(3),
                threshold_ns=_touch_threshold(rng),
                slow_count=1 + rng.randrange(3),
                slow_window=1 + rng.randrange(6),
            )).value
            stops += result.stopped
    yield sc.close(fd)
    yield sc.vm_free(fresh)
    yield sc.vm_free(region)
    return stops


def _run_mode_twin(seed: int, batch_paths: bool, noisy: bool):
    kernel = Kernel(small_config(), batch_paths=batch_paths)
    injector = None
    if noisy:
        injector = FaultInjector(_probe_jitter_config(seed))
        injector.install(kernel)
    stops = kernel.run_process(vector_workout(seed, 30), "vw")
    assert kernel.run_process(probe_process(seed, 10, batch=True), "probe") == "survived"
    schedule = injector.schedule_digest() if injector is not None else ""
    stats = injector.stats() if injector is not None else {}
    return (
        kernel.clock.now, state_digest(kernel), obs_digest(kernel), schedule,
        stats, stops,
    )


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_batch_vs_scalar_paths(noisy):
    """30 twin pairs per mode: a ``batch_paths=False`` compatibility
    kernel must be byte-indistinguishable — same clock, same machine
    state, same obs records, same injector schedule and stats, same
    early stops — from the vectorized default over a workload shaped to
    cross every fast path."""
    stops = 0
    for case in range(30):
        seed = 0x7EC + 541 * case
        vec = _run_mode_twin(seed, batch_paths=True, noisy=noisy)
        sca = _run_mode_twin(seed, batch_paths=False, noisy=noisy)
        assert vec == sca, (
            f"batch/scalar divergence (noisy={noisy}): reproduce with "
            f"seed={seed} ({vec} != {sca})"
        )
        stops += vec[-1]
    # The thresholded batches must actually trip the predicate, or the
    # comparison above says nothing about it.
    assert stops >= 30, f"only {stops} early stops in 30 workouts"


#: The batch tiers ``batch_paths`` gates: the pread_batch pre-pass, the
#: page-run fills and writes, and the touch vector run.
_BATCH_TIERS = [
    (MemoryManager, "touch_file_pages_resident"),
    (MemoryManager, "touch_file_run"),
    (VMLayer, "_vector_run"),
]


def test_reference_mode_runs_no_batch_tier(monkeypatch):
    """The differential tests trust ``batch_paths=False`` as the plain
    per-probe reference: ``vector_workout`` reaches every batch tier on
    the default kernel, and none of them on the reference kernel."""
    calls = {name: 0 for _owner, name in _BATCH_TIERS}
    for owner, name in _BATCH_TIERS:
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    Kernel(small_config()).run_process(vector_workout(0x7EC, 30), "vw")
    assert all(calls.values()), calls

    def tier_ran(*_args, **_kwargs):
        raise AssertionError("a batch tier ran under batch_paths=False")
    for owner, name in _BATCH_TIERS:
        monkeypatch.setattr(owner, name, tier_ran)
    Kernel(small_config(), batch_paths=False).run_process(vector_workout(0x7EC, 30), "vw")


def pressure_workout(seed: int, steps: int, page: int, file_pages: int):
    """Fills and write-backs under reclaim: a file larger than the page
    pool, then unaligned multi-page pwrites over existing data (partial
    head and tail pages, resident or evicted), whole-page pwrites,
    multi-page preads and reads, fsyncs, pread batches and anon touches."""
    rng = random.Random(seed)
    size = file_pages * page
    fd = (yield sc.create("/mnt0/big.dat")).value
    yield sc.write(fd, size)
    region = (yield sc.vm_alloc(32 * page)).value
    for _ in range(steps):
        action = rng.randrange(7)
        offset = rng.randrange(size)
        nbytes = rng.randrange(1, 24 * page)
        if action == 0:
            yield sc.pwrite(fd, offset, nbytes)
        elif action == 1:
            yield sc.pwrite(fd, offset - offset % page, (1 + nbytes // page) * page)
        elif action == 2:
            yield sc.pread(fd, offset, nbytes)
        elif action == 3:
            yield sc.seek(fd, offset)
            yield sc.read(fd, nbytes)
        elif action == 4:
            yield sc.fsync(fd)
        elif action == 5:
            yield sc.pread_batch(
                fd, [(rng.randrange(size), 1 + rng.randrange(3 * page)) for _ in range(10)]
            )
        else:
            yield sc.touch_range(region, rng.randrange(16), 1 + rng.randrange(16))
    yield sc.close(fd)
    yield sc.vm_free(region)
    return "survived"


#: Machines whose page pool (1024 pages) is smaller than the workout's
#: file.  NetBSD's fixed 64 MB buffer cache needs more memory, hence its
#: 64 KiB pages.
_PRESSURE_MACHINES = {
    linux22: small_config(memory_bytes=12 * MIB, kernel_reserved_bytes=8 * MIB),
    netbsd15: small_config(
        page_size=64 * KIB, memory_bytes=72 * MIB, kernel_reserved_bytes=2 * MIB
    ),
    solaris7: small_config(memory_bytes=12 * MIB, kernel_reserved_bytes=8 * MIB),
}


def _run_pressure_twin(platform, seed: int, batch_paths: bool):
    config = _PRESSURE_MACHINES[platform]
    kernel = Kernel(config, platform, batch_paths=batch_paths)
    workout = pressure_workout(seed, 60, config.page_size, file_pages=1536)
    assert kernel.run_process(workout, "pressure") == "survived"
    reclaims = len(kernel.obs.events.by_name("kernel.reclaim"))
    return kernel.clock.now, state_digest(kernel), obs_digest(kernel), reclaims


@pytest.mark.parametrize("platform", [linux22, netbsd15, solaris7], ids=lambda p: p.name)
def test_differential_batch_vs_scalar_under_pressure(platform):
    """The page-run fill paths, and every other vectorized path, match
    their scalar twins while the pool reclaims: same clock, same pool
    state (ring order included), dirty index, page owners, file epoch,
    filesystem image and obs stream."""
    for case in range(15):
        seed = 0x9E5 + 613 * case
        vec = _run_pressure_twin(platform, seed, batch_paths=True)
        sca = _run_pressure_twin(platform, seed, batch_paths=False)
        assert vec[3] > 0, f"{platform.name} seed={seed}: no reclaim, no pressure"
        assert vec == sca, (
            f"batch/scalar divergence under pressure on {platform.name}: "
            f"reproduce with seed={seed}"
        )


@pytest.mark.parametrize("batch_paths", [True, False])
def test_differential_touch_range_vs_touch_batch(batch_paths):
    """touch_range must be touch_batch at stride 1 with no predicate:
    same per-page times, same clock, same machine — in both kernel
    modes (the two syscalls share one interior; this pins the routing)."""
    for case in range(12):
        seed = 0x7A9 + 211 * case
        rng = random.Random(seed)
        plan = [
            (rng.randrange(24), 1 + rng.randrange(40))
            for _ in range(10)
        ]

        def run(use_range: bool):
            kernel = Kernel(small_config(), batch_paths=batch_paths)

            def app():
                region = (yield sc.vm_alloc(64 * 4 * KIB)).value
                collected = []
                for start, npages in plan:
                    if use_range:
                        result = yield sc.touch_range(region, start, npages)
                        collected.append(list(result.value))
                    else:
                        result = yield sc.touch_batch(region, start, npages)
                        collected.append(list(result.value.elapsed_ns))
                yield sc.vm_free(region)
                return collected
            times = kernel.run_process(app(), "touch")
            return times, kernel.clock.now, state_digest(kernel)

        as_range, as_batch = run(True), run(False)
        assert as_range == as_batch, (
            f"touch_range/touch_batch divergence "
            f"(batch_paths={batch_paths}): reproduce with seed={seed}"
        )


# ---------------------------------------------------------------------------
# Policy batch primitives: batched update == sequential fold
# ---------------------------------------------------------------------------
def _policy_dump(policy):
    """Complete visible state of a policy, for exact twin comparison."""
    from repro.sim.cache.clockpolicy import ClockPolicy
    from repro.sim.cache.segmap import SegmapPolicy

    if isinstance(policy, ClockPolicy):
        rings = [
            [(key, frame.referenced, frame.dirty) for key, frame in ring.items()]
            for ring in (policy._file_ring, policy._anon_ring)
        ]
        state = ("clock", rings)
    elif isinstance(policy, SegmapPolicy):
        state = (
            "segmap",
            [(owner, list(pages.items())) for owner, pages in policy._owners.items()],
            sorted(policy._first_seen.items()),
        )
    else:
        state = ("lru", list(policy._pages.items()))
    stats = policy.stats
    return (
        state, stats.hits, stats.misses, stats.evictions, stats.demotions,
        len(policy),
    )


def _fresh_policies():
    from repro.sim.cache.clockpolicy import ClockPolicy
    from repro.sim.cache.lru import LRUPolicy
    from repro.sim.cache.segmap import SegmapPolicy

    return [LRUPolicy(), ClockPolicy(), SegmapPolicy()]


@settings(max_examples=60, deadline=None)
@given(
    warm=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
        max_size=24,
    ),
    hit_picks=st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    batch_dirty=st.booleans(),
    fresh=st.sets(st.integers(min_value=100, max_value=130), max_size=12),
)
def test_policy_batch_equals_sequential_fold(warm, hit_picks, batch_dirty, fresh):
    """``reference_cells`` == N resident touches,
    ``insert_absent_many`` == N absent touches, and ``touch_cached``
    then ``insert_absent`` == one ``touch``, for every policy.

    The twin policies see the same warm-up stream; then one applies the
    batched primitives while the other folds the equivalent ``touch``
    loop, and their full state (order, dirty/reference bits, owner
    bookkeeping, hit/miss counters) must match exactly.
    """
    def key_of(i):
        return FileKey(0, 1 + i % 3, i)  # a few distinct owners

    for batched, folded in zip(_fresh_policies(), _fresh_policies()):
        # The batched twin warms through the split primitives (a
        # ``touch_cached`` hit, else ``insert_absent``), which hands out
        # each page's cell; the folded twin through ``touch``.
        cells = {}
        for i, dirty in warm:
            key = key_of(i)
            if not batched.touch_cached(key, dirty):
                cells[key] = batched.insert_absent(key, dirty)
            folded.touch(key, dirty)

        hits = [key_of(i) for i in hit_picks if key_of(i) in cells]
        if hits:
            batched.reference_cells([cells[key] for key in hits], batch_dirty)
            for key in hits:
                folded.touch(key, batch_dirty)

        absent = [key_of(i) for i in sorted(fresh)]
        if absent:
            batched.insert_absent_many(absent, batch_dirty)
            for key in absent:
                folded.touch(key, batch_dirty)

        assert _policy_dump(batched) == _policy_dump(folded), (
            type(batched).__name__
        )

        # And the two must keep agreeing through victim selection.
        if len(batched):
            want = min(len(batched), 5)
            assert [e.key for e in batched.pop_victims(want)] == [
                e.key for e in folded.pop_victims(want)
            ], type(batched).__name__


def _page_key(i):
    """File, meta and anon keys over a few owners, by index."""
    kind = i % 3
    if kind == 0:
        return FileKey(0, 1 + i % 2, i)
    if kind == 1:
        return MetaKey(0, i)
    return AnonKey(7 + i % 2, i)


@settings(max_examples=60, deadline=None)
@given(
    warm=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
        min_size=1, max_size=30,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=16),
    demoted=st.lists(st.integers(min_value=0, max_value=1000), max_size=8),
    absent=st.one_of(st.none(), st.integers(min_value=41, max_value=60)),
    later=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        max_size=12,
    ),
)
def test_cells_of_then_reference_equals_touch_cached_fold(
    warm, picks, demoted, absent, later
):
    """``reference_cells(cells_of(keys))`` == a clean ``touch_cached``
    per key, for every policy, over file, meta and anon keys.

    ``keys`` repeats warm keys (a walk can re-read one inode-table
    block) and may carry one never-touched key; then ``cells_of`` must
    return None and leave the policy exactly as it was.  Otherwise the
    cells must stay valid across later hits and dirtying: re-referencing
    the same cells again still equals the fold, clock hands back the
    very same frames, and once a page is removed ``cells_of`` refuses.
    Demoting some warm keys first clears reference bits and reorders,
    so a lookup that moved or referenced anything would show.
    """
    from repro.sim.cache.clockpolicy import ClockPolicy

    warm_keys = [_page_key(i) for i, _dirty in warm]
    keys = [warm_keys[i % len(warm_keys)] for i in picks]
    if absent is not None:
        keys.insert(picks[0] % (len(keys) + 1), _page_key(absent))

    for policy, folded in zip(_fresh_policies(), _fresh_policies()):
        name = type(policy).__name__
        for twin in (policy, folded):
            for i, dirty in warm:
                twin.touch(_page_key(i), dirty)
            for i in demoted:
                twin.demote(warm_keys[i % len(warm_keys)])
        before = _policy_dump(policy)
        cells = policy.cells_of(keys)
        assert _policy_dump(policy) == before, name
        if absent is not None:
            assert cells is None, name
            continue
        assert cells is not None and len(cells) == len(keys), name

        policy.reference_cells(cells)
        for key in keys:
            assert folded.touch_cached(key), name
        assert _policy_dump(policy) == _policy_dump(folded), name

        for i, dirty in later:
            key = warm_keys[i % len(warm_keys)]
            policy.touch(key, dirty)
            folded.touch(key, dirty)
        again = policy.cells_of(keys)
        if isinstance(policy, ClockPolicy):
            assert all(a is b for a, b in zip(again, cells)), name
        else:
            assert again == cells, name
        policy.reference_cells(cells)
        for key in keys:
            folded.touch_cached(key)
        assert _policy_dump(policy) == _policy_dump(folded), name

        policy.remove(keys[-1])
        assert policy.cells_of(keys) is None, name


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("touch", "touch", "touch", "demote", "remove", "pop")),
            st.integers(min_value=0, max_value=40),
            st.booleans(),
        ),
        max_size=60,
    ),
    count=st.integers(min_value=0, max_value=12),
)
def test_policy_flush_equals_scan_and_fold(ops, count):
    """``flush_oldest_dirty(n)`` == the scan-and-fold it replaced.

    Twin policies see one warm-up stream of clean and dirty file, meta
    and anon touches (hits included), demotions, removals and victim
    pops.  One twin flushes; the other scans :meth:`keys` for the first
    ``n`` dirty non-anon keys and folds ``mark_clean; demote`` over them.
    The flushed keys, the full policy state (with the demotion count)
    and later victim order must all agree.
    """
    for flushed, folded in zip(_fresh_policies(), _fresh_policies()):
        name = type(flushed).__name__
        for policy in (flushed, folded):
            for op, i, dirty in ops:
                key = _page_key(i)
                if op == "touch":
                    policy.touch(key, dirty)
                elif op == "demote":
                    policy.demote(key)
                elif op == "remove":
                    policy.remove(key)
                else:
                    policy.pop_victims(1 + i % 3)

        want = [
            key for key in folded.keys()
            if not isinstance(key, AnonKey) and folded.is_dirty(key)
        ][:count]
        assert flushed.flush_oldest_dirty(count) == want, name
        for key in want:
            folded.mark_clean(key)
            folded.demote(key)
        assert _policy_dump(flushed) == _policy_dump(folded), name
        assert flushed.pop_victims(len(flushed)) == folded.pop_victims(len(folded)), name


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("touch", "touch", "touch", "demote", "remove", "pop")),
            st.integers(min_value=0, max_value=40),
            st.booleans(),
        ),
        max_size=60,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=60), max_size=20),
)
def test_clean_cells_equals_mark_clean_fold(ops, picks):
    """``clean_cells(cells_of(keys))`` == a ``mark_clean`` per key.

    Twin policies see one warm-up stream of clean and dirty file, meta
    and anon touches, demotions, removals and victim pops.  One twin
    clears a pick of its resident pages (dirty or not, repeats allowed)
    through their cells; the other folds ``mark_clean`` over the keys.
    The full policy state and later victim order must agree.
    """
    for cleaned, folded in zip(_fresh_policies(), _fresh_policies()):
        name = type(cleaned).__name__
        for policy in (cleaned, folded):
            for op, i, dirty in ops:
                key = _page_key(i)
                if op == "touch":
                    policy.touch(key, dirty)
                elif op == "demote":
                    policy.demote(key)
                elif op == "remove":
                    policy.remove(key)
                else:
                    policy.pop_victims(1 + i % 3)
        resident = list(folded.keys())
        keys = [resident[i % len(resident)] for i in picks] if resident else []
        cells = cleaned.cells_of(keys)
        assert cells is not None, name
        cleaned.clean_cells(cells)
        for key in keys:
            folded.mark_clean(key)
        assert _policy_dump(cleaned) == _policy_dump(folded), name
        assert cleaned.pop_victims(len(cleaned)) == folded.pop_victims(len(folded)), name


# ---------------------------------------------------------------------------
# The per-file dirty index mirrors the pool at every step
# ---------------------------------------------------------------------------
def assert_dirty_index_matches_pool(mm):
    """Recompute the memory manager's dirty bookkeeping from its pool.

    Every dirty FileKey page must sit in its ``(fs_id, ino)`` entry of
    the per-file index (and nothing else may), and ``dirty_file_pages``
    must count every dirty file and meta page.
    """
    pool = mm._file_pool
    by_file = {}
    dirty = 0
    for key in pool.keys():
        if isinstance(key, AnonKey) or not pool.is_dirty(key):
            continue
        dirty += 1
        if isinstance(key, FileKey):
            by_file.setdefault((key.fs_id, key.ino), set()).add(key.index)
    assert mm._dirty_by_file == by_file
    assert mm.dirty_file_pages == dirty


def assert_residency_matches_pool(mm):
    """Check the residency mirrors against the pools they mirror.

    For every owner in the file and anon indexes, a presence bit is set
    exactly when its key is in the pool, and a set bit's cell is the
    policy's own cell for that key: the clock ring's frame (by
    identity), or the key itself for LRU and segmap.  Every file and
    anon page in a pool must have its bit set.
    """
    from repro.sim.cache.clockpolicy import ClockPolicy

    def own_cell(pool, key):
        if isinstance(pool, ClockPolicy):
            return pool._ring_of(key)[key]
        return key

    mirrors = (
        (mm._file_index, mm._file_pool, lambda owner, i: FileKey(*owner, i)),
        (mm._anon_index, mm._anon_pool, AnonKey),
    )
    for index, pool, make_key in mirrors:
        for owner, slab in index._owners.items():
            for i, bit in enumerate(slab.present):
                key = make_key(owner, i)
                cell = slab.cells[i]
                assert bool(bit) == pool.contains(key), (
                    f"residency bit {bit} for {key}, pool has it: {pool.contains(key)}"
                )
                if bit:
                    expected = own_cell(pool, key)
                    assert cell is expected or (
                        not isinstance(pool, ClockPolicy) and cell == expected
                    ), f"stale cell for {key}: {cell!r}"
                else:
                    assert cell is None, f"absent {key} keeps cell {cell!r}"
    for key in mm._file_pool.keys():
        if isinstance(key, FileKey):
            slab = mm._file_index._owners.get((key.fs_id, key.ino))
            assert slab is not None and slab.present[key.index], (
                f"resident {key} has no residency bit"
            )
    for key in mm._anon_pool.keys():
        if isinstance(key, AnonKey):
            slab = mm._anon_index._owners.get(key.pid)
            assert slab is not None and slab.present[key.index], (
                f"resident {key} has no residency bit"
            )


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ("touch", "touch", "touch", "clean", "drop", "reclaim", "flush",
                 "fsync", "anon")
            ),
            st.integers(min_value=0, max_value=47),
            st.booleans(),
        ),
        max_size=80,
    ),
)
def test_dirty_index_matches_pool_at_every_step(ops):
    """Every dirty-state transition keeps the per-file index exact, on
    each personality's pools (unified clock, split LRU, unified segmap)."""
    for platform in (linux22, netbsd15, solaris7):
        config = small_config(
            page_size=64 * KIB, memory_bytes=72 * MIB, kernel_reserved_bytes=2 * MIB,
            reclaim_batch_pages=4,
        )
        mm = MemoryManager(config, platform, swap_capacity_pages=10_000)
        for step, (op, i, dirty) in enumerate(ops):
            file_key = FileKey(0, 1 + i % 3, i // 3)
            key = MetaKey(0, i) if i % 8 == 7 else file_key
            if op == "touch":
                mm.touch_file(key, dirty)
            elif op == "clean":
                mm.mark_file_clean(key)
            elif op == "drop":
                mm.drop_file_page(key)
            elif op == "reclaim":
                # Force the page daemon to find 1-5 pages; a nearly empty
                # pool takes the OutOfMemory undo path instead.
                pool, capacity = mm._file_pool, mm.file_capacity_pages
                try:
                    mm._reclaim(pool, capacity, capacity - len(pool) + 1 + i % 5)
                except OutOfMemory:
                    pass
            elif op == "flush":
                mm.flush_oldest_dirty(i % 6)
            elif op == "fsync":
                mm.clean_file_pages(0, file_key.ino, i % 16)
            else:
                mm.anon_fault(AnonKey(9, i), touched_before=dirty)
            try:
                assert_dirty_index_matches_pool(mm)
                assert_residency_matches_pool(mm)
            except AssertionError as exc:
                raise AssertionError(
                    f"{platform.name}: a mirror diverged at step {step}"
                    f" ({op} {key}): {exc}"
                ) from exc


# ---------------------------------------------------------------------------
# touch_file_run == the per-page touch_file fold, reclaims included
# ---------------------------------------------------------------------------
def _run_twin_config():
    """Pools of 16-17 pages (4 MiB pages; NetBSD's fixed 64 MB buffer
    cache is 16 of them) with 4-page reclaim batches, so one run crosses
    several reclaims."""
    return small_config(
        page_size=4 * MIB, memory_bytes=72 * MIB, kernel_reserved_bytes=2 * MIB,
        reclaim_batch_pages=4,
    )


_RUN_OWNER_PID = 5

#: Warm-ups that make a run's reclaims evict its own later pages: the
#: run's file holds the pages the LRU end or clock hand reaches first,
#: or (segmap) it is the newest owner, whose newest pages go first.
_EVICTS_LATER_RUN_PAGES = (
    [("touch", 1, 8, 8, False), ("touch", 2, 0, 8, True)],
    [("touch", 2, 0, 8, True), ("touch", 1, 8, 9, False)],
)


def _run_twin_warm(mm, ops):
    """One random warm-up: clean/dirty touches of file-page runs and meta
    pages, drops, anon faults and forced reclaims, under a current pid."""
    mm.obs.set_pid(_RUN_OWNER_PID)
    for op, ino, page, count, dirty in ops:
        if op == "touch":
            for index in range(page, page + count):
                mm.touch_file(FileKey(0, ino, index), dirty)
        elif op == "meta":
            mm.touch_file(MetaKey(0, page), dirty)
        elif op == "drop":
            mm.drop_file_page(FileKey(0, ino, page))
        elif op == "anon":
            mm.anon_fault(AnonKey(9, page), touched_before=dirty)
        else:
            pool, capacity = mm._file_pool, mm.file_capacity_pages
            try:
                mm._reclaim(pool, capacity, capacity - len(pool) + count)
            except OutOfMemory:
                pass
    mm.obs.set_pid(_RUN_OWNER_PID + 1)


def _mm_twin_state(mm):
    return (
        _policy_dump(mm._file_pool),
        mm.daemon_stats.as_dict(),
        mm.file_epoch,
        list(mm._page_owner.items()),
        [r["attrs"] for r in mm.obs.events.by_name("kernel.reclaim")],
        mm.dirty_file_pages,
    )


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("touch", "touch", "meta", "drop", "anon", "reclaim")),
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=8),
            st.booleans(),
        ),
        max_size=40,
    ),
    ino=st.integers(min_value=1, max_value=2),
    start=st.integers(min_value=0, max_value=40),
    length=st.integers(min_value=1, max_value=48),
    dirty=st.booleans(),
)
@example(ops=_EVICTS_LATER_RUN_PAGES[0], ino=1, start=0, length=16, dirty=False)
@example(ops=_EVICTS_LATER_RUN_PAGES[0], ino=1, start=0, length=16, dirty=True)
@example(ops=_EVICTS_LATER_RUN_PAGES[1], ino=1, start=0, length=17, dirty=False)
@example(ops=_EVICTS_LATER_RUN_PAGES[1], ino=1, start=0, length=17, dirty=True)
def test_file_run_equals_per_page_fold(ops, ino, start, length, dirty):
    """``touch_file_run`` over ``[start, stop)`` is the ``touch_file``
    fold over the same pages, on every personality: same victims (keys,
    dirty flags, order), hits and misses, pool state and evictions,
    daemon stats, file epoch, page owners, reclaim events, and dirty and
    residency mirrors."""
    from repro.obs import Observability

    stop = start + length
    for platform in (linux22, netbsd15, solaris7):
        config = _run_twin_config()
        run_mm, fold_mm = (
            MemoryManager(config, platform, 10_000, obs=Observability())
            for _ in range(2)
        )
        for mm in (run_mm, fold_mm):
            _run_twin_warm(mm, ops)

        hits, missed, victims = run_mm.touch_file_run(0, ino, start, stop, dirty)

        fold_hits, fold_missed, fold_victims = 0, [], []
        for index in range(start, stop):
            key = FileKey(0, ino, index)
            if not fold_mm.file_cached(key):
                fold_missed.append(index)
            else:
                fold_hits += 1
            fold_victims.extend(fold_mm.touch_file(key, dirty))

        name = platform.name
        assert victims == fold_victims, name
        assert hits == fold_hits, name
        assert [i for a, b in missed for i in range(a, b)] == fold_missed, name
        assert _mm_twin_state(run_mm) == _mm_twin_state(fold_mm), name
        for mm in (run_mm, fold_mm):
            assert_dirty_index_matches_pool(mm)
            assert_residency_matches_pool(mm)


# ---------------------------------------------------------------------------
# Attribution invariants: random storms must stay correctly attributed
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=4),
    steps=st.integers(min_value=10, max_value=50),
)
def test_chaos_attribution_invariants(seeds, steps):
    """Whatever the interleave, the attribution bookkeeping must close.

    Three ledgers are checked against each other:

    * every pid stamped on an event or span (and every instigator /
      victim of a reclaim) is a pid the kernel actually spawned, or the
      0 = unattributed bucket;
    * the per-pid syscall ledger sums to the kernel's aggregate
      per-syscall counters, name by name;
    * the interference matrix has exactly one (instigator, victim) cell
      increment per ``kernel.reclaim`` event, so its cell sum equals the
      reclaim event count.
    """
    from repro.obs.views import interference_matrix, split_by_pid

    kernel = Kernel(small_config())
    processes = [
        kernel.spawn(chaos_process(seed, steps), f"chaos{i}")
        for i, seed in enumerate(seeds)
    ]
    kernel.run()
    assert all(p.result == "survived" for p in processes)

    spawned = {p.pid for p in processes}
    records = list(kernel.obs.events)

    # 1. Every attributed record names a real process (0 = host-side).
    for record in records:
        pid = record.get("pid")
        assert pid is None or pid in spawned, record
    for record in records:
        if record.get("type") == "event" and record.get("name") == "kernel.reclaim":
            attrs = record["attrs"]
            assert attrs["instigator_pid"] in spawned | {0}, record
            assert attrs["victim_pid"] in spawned | {0}, record
            assert sum(attrs["victims_by_pid"].values()) == attrs["pages"], record

    # 2. The per-pid syscall ledger sums to the aggregate counters.
    assert set(kernel.obs.syscalls_by_pid) <= spawned
    totals = {}
    for by_pid in kernel.obs.syscalls_by_pid.values():
        for name, count in by_pid.items():
            totals[name] = totals.get(name, 0) + count
    for name, count in totals.items():
        counter = kernel.obs.metrics.counter(f"kernel.syscall.{name}.calls")
        assert counter.value == count, (
            f"per-pid ledger for {name!r} sums to {count}, "
            f"aggregate counter says {counter.value}"
        )

    # 3. One matrix cell increment per reclaim event.
    matrix = interference_matrix(records)
    reclaims = sum(
        1 for r in records
        if r.get("type") == "event" and r.get("name") == "kernel.reclaim"
    )
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims

    # 4. The per-pid views partition the stream: nothing lost, nothing
    #    double-counted.
    buckets = split_by_pid(records)
    assert sum(len(b) for b in buckets.values()) == len(records)


# ======================================================================
# Covert-channel differential modes
# ======================================================================
def test_differential_channels_noisy_replay():
    """Same (seed, config) ⇒ identical decoded bits and obs digest.

    The covert-channel harness stacks every determinism-sensitive layer
    at once — arena interleaving, tagged step boundaries, the injector's
    full noise ladder (including interference tenants), and the framing
    codec — so a byte-identical replay here pins all of them together.
    """
    from repro.experiments.channels import run_channel

    for channel in ("residency", "writeback"):
        first = run_channel(channel, noise=0.5, n_bits=24)
        second = run_channel(channel, noise=0.5, n_bits=24)
        assert first.decoded_bits == second.decoded_bits, channel
        assert first.digest == second.digest, channel
        assert first.latencies == second.latencies, channel
        assert first.frame_span_ns == second.frame_span_ns, channel


def test_differential_channels_batch_vs_scalar():
    """Twin kernels, vectorized vs scalar paths, decode the same frame.

    Simulated behaviour must not depend on the implementation mode:
    the receiver's latency trace, the decoded bitstring, and the
    attributed obs stream must match bit for bit.
    """
    from repro.experiments.channels import run_channel

    for channel in ("residency", "writeback"):
        vec = run_channel(channel, noise=0.5, n_bits=24, batch_paths=True)
        scalar = run_channel(channel, noise=0.5, n_bits=24, batch_paths=False)
        assert vec.latencies == scalar.latencies, channel
        assert vec.decoded_bits == scalar.decoded_bits, channel
        assert vec.digest == scalar.digest, channel
