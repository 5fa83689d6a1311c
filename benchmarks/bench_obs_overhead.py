"""Observability overhead: instrumented vs uninstrumented wall time.

The observability layer claims to be cheap enough to stay always-on.
This benchmark runs the same kernel workload with the default (enabled)
observability and with a disabled instance swapped in, takes the best
of several rounds each (min is the noise-robust statistic for a
deterministic workload), and asserts the instrumented run stays within
the 10% budget the layer was designed against.

The host-time profiler's hooks (:mod:`repro.obs.profile`) are compiled
into the same hot paths, so the 10% gate runs with the profiler's
sections *registered* (but the profiler off) — the configuration every
normal run ships with.  The cost of the disabled hook itself — one
attribute load plus two predictable branches, as in ``Kernel._execute``
— is measured separately by :func:`test_profiler_disabled_hook_cost`
and printed in nanoseconds per hook; it is far below what the workload
gate could resolve.
"""

import time

from repro.obs import Observability
from repro.obs.profile import PROFILER
from repro.sim import Kernel, MachineConfig

KIB = 1024
MIB = 1024 * 1024

ROUNDS = 7


def _workload_config():
    return MachineConfig(
        page_size=64 * KIB,
        memory_bytes=64 * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )


def _run_workload(instrumented: bool) -> float:
    """One syscall-heavy run; returns host CPU seconds.

    The workload is pure CPU, so process time is the right clock: it
    excludes scheduler preemption and other-core interference that
    wall time picks up, which matters when asserting a tight ratio.
    """
    from repro.sim import syscalls as sc
    from repro.workloads.files import make_file

    config = _workload_config()
    obs = None if instrumented else Observability(enabled=False)
    kernel = Kernel(config, obs=obs)

    nbytes = config.available_bytes  # fills the cache, forces reclaim
    t0 = time.process_time()
    kernel.run_process(make_file("/mnt0/load.dat", nbytes, sync=False), "w")

    def reread():
        fd = (yield sc.open("/mnt0/load.dat")).value
        size = (yield sc.fstat(fd)).value.size
        for _pass in range(2):
            offset = 0
            while offset < size:
                got = (yield sc.pread(fd, offset, 64 * KIB)).value
                offset += got.nbytes
        yield sc.close(fd)

    kernel.run_process(reread(), "r")
    return time.process_time() - t0


#: Independent comparison attempts before the gate gives up.  The
#: workload is deterministic, so a *real* regression fails every
#: attempt; a host-noise phase (frequency drift, a co-tenant burst)
#: that lands on one variant's rounds only fails that attempt alone.
ATTEMPTS = 3


def test_obs_overhead_within_budget(benchmark):
    def compare():
        # Register the profiler's hot-path sections (one profiled pass)
        # and then disable it again: the gate below must price the
        # always-on configuration — attribution + metrics + events on,
        # profiler hooks present but off, registry non-empty.
        PROFILER.clear()
        PROFILER.enable()
        _run_workload(True)
        PROFILER.disable()
        assert PROFILER.rows(), "profiled warm-up registered no sections"
        # Warm up both variants once (imports, allocator, CPU state).
        # Each attempt interleaves its timed rounds so transient host
        # noise lands on both sides equally, and takes min (the
        # noise-robust statistic for one-sided interference).  An
        # attempt over budget is retried: the host's throughput floor
        # drifts on second timescales, and a fast phase covering only
        # one variant's rounds fakes a regression a fresh attempt
        # cannot reproduce.
        _run_workload(True)
        _run_workload(False)
        best = None
        for _ in range(ATTEMPTS):
            enabled_times, disabled_times = [], []
            for _ in range(ROUNDS):
                enabled_times.append(_run_workload(True))
                disabled_times.append(_run_workload(False))
            pair = min(enabled_times), min(disabled_times)
            if best is None or pair[0] / pair[1] < best[0] / best[1]:
                best = pair
            if best[0] / best[1] <= 1.10:
                break
        return best

    enabled, disabled = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    ratio = enabled / disabled
    print(f"\nenabled {enabled * 1e3:.1f}ms  disabled {disabled * 1e3:.1f}ms  "
          f"ratio {ratio:.3f}")
    assert ratio <= 1.10, (
        f"observability overhead {ratio - 1:+.1%} exceeds the 10% budget"
        f" on {ATTEMPTS} independent attempts"
    )


def test_profiler_disabled_hook_cost():
    """Price one disabled profiler hook; documentably negligible.

    The hook's disabled path, as ``Kernel._execute`` writes it, is an
    attribute load (``profiling = PROFILER.enabled``) and two branches
    (``t0 = perf_counter_ns() if profiling else 0`` before the call,
    ``if profiling:`` after it).  This micro-measurement subtracts an
    identical bare loop from a hook loop and reports the difference per
    iteration.  The bound is deliberately loose (500 ns is ~100x the
    real cost): the assertion exists to catch a future hook accidentally
    doing work while disabled, not to benchmark the branch predictor.
    """
    assert not PROFILER.enabled
    n = 200_000
    iterations = range(n)

    def hook_loop() -> float:
        t0 = time.process_time()
        for _ in iterations:
            profiling = PROFILER.enabled
            t1 = time.perf_counter_ns() if profiling else 0
            if profiling:
                PROFILER.add("hook", time.perf_counter_ns() - t1)
        return time.process_time() - t0

    def bare_loop() -> float:
        t0 = time.process_time()
        for _ in iterations:
            pass
        return time.process_time() - t0

    hook_loop(), bare_loop()  # warm-up
    hooked = min(hook_loop() for _ in range(5))
    bare = min(bare_loop() for _ in range(5))
    per_hook_ns = max(hooked - bare, 0.0) / n * 1e9
    print(f"\ndisabled profiler hook: {per_hook_ns:.1f} ns "
          f"(hook loop {hooked * 1e3:.1f}ms, bare loop {bare * 1e3:.1f}ms)")
    assert per_hook_ns < 500, (
        f"disabled profiler hook costs {per_hook_ns:.0f} ns - it should be "
        f"an attribute load and two branches"
    )
