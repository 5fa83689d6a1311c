"""Observability overhead: instrumented vs uninstrumented wall time.

The observability layer claims to be cheap enough to stay always-on.
This benchmark runs the same kernel workload with the default (enabled)
observability and with a disabled instance swapped in, takes the best
of several rounds each (min is the noise-robust statistic for a
deterministic workload), and asserts the instrumented run stays within
the 10% budget the layer was designed against.
"""

import time

from repro.obs import Observability
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

