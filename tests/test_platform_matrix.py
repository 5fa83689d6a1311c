"""Tier-1 smoke slice parametrized across every platform personality.

Most of the suite runs on ``linux22`` (the default spec).  This module
takes a representative slice — syscall surface, twin-kernel batched
equivalence, pool arrangement, kernel assembly — and runs it on all
three :class:`~repro.sim.config.PlatformSpec`\\ s, so a platform-specific
regression (a pool layout only ``netbsd15`` uses, say) cannot hide
behind the default.

The config gives the machine 96 MiB so ``netbsd15``'s fixed 64 MiB
buffer cache fits, and every test sizes its working set relative to
that.
"""

from __future__ import annotations

import pytest

from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.config import PLATFORMS, PoolPlan, PlatformSpec
from repro.sim.dispatch import SyscallTable
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024

pytestmark = pytest.mark.parametrize(
    "platform", list(PLATFORMS.values()), ids=sorted(PLATFORMS)
)


def matrix_config() -> MachineConfig:
    return MachineConfig(
        page_size=16 * KIB,
        memory_bytes=96 * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )


def make_kernel(platform: PlatformSpec) -> Kernel:
    return Kernel(matrix_config(), platform)


# ======================================================================
# Syscall surface and dispatch
# ======================================================================
EXPECTED_SYSCALLS = {
    # name layer
    "stat", "stat_batch", "mkdir", "rmdir", "unlink", "rename", "readdir",
    "utimes",
    # file I/O
    "open", "create", "close", "read", "pread", "pread_batch", "write",
    "pwrite", "seek", "fsync", "fstat",
    # VM
    "vm_alloc", "vm_free", "touch", "touch_range", "touch_batch",
    # processes and pipes
    "getpid", "spawn", "waitpid", "pipe",
    # kernel core
    "gettime", "compute", "sleep",
}


def test_syscall_table_complete(platform):
    kernel = make_kernel(platform)
    assert set(kernel.syscalls.mapping()) == EXPECTED_SYSCALLS
    # The dispatch loop's dict is the table's live mapping, not a copy.
    assert kernel._handlers is kernel.syscalls.mapping()


def test_pool_plan_matches_personality(platform):
    cfg = matrix_config()
    plan = platform.make_pools(cfg)
    assert isinstance(plan, PoolPlan)
    if platform.fixed_file_cache_bytes is not None:
        assert not plan.unified
        assert plan.file_pool is not plan.anon_pool
        assert plan.file_capacity_pages == (
            platform.fixed_file_cache_bytes // cfg.page_size
        )
        assert (
            plan.file_capacity_pages + plan.anon_capacity_pages
            == cfg.available_pages
        )
    else:
        assert plan.unified
        assert plan.file_pool is plan.anon_pool
        assert plan.file_capacity_pages == cfg.available_pages
    kernel = make_kernel(platform)
    assert kernel.mm.unified is plan.unified


# ======================================================================
# End-to-end smoke: every layer under each personality
# ======================================================================
def test_file_lifecycle_smoke(platform):
    kernel = make_kernel(platform)

    def body():
        fd = (yield sc.create("/mnt0/hello")).value
        wrote = (yield sc.pwrite(fd, 0, b"platform smoke")).value
        assert wrote == 14
        yield sc.fsync(fd)
        got = (yield sc.pread(fd, 0, 14)).value
        yield sc.close(fd)
        st_ = (yield sc.stat("/mnt0/hello")).value
        yield sc.rename("/mnt0/hello", "/mnt0/bye")
        yield sc.unlink("/mnt0/bye")
        return got.data, st_.size

    data, size = kernel.run_process(body(), "smoke")
    assert data == b"platform smoke"
    assert size == 14
    assert kernel.clock.now > 0


def test_vm_touch_smoke(platform):
    kernel = make_kernel(platform)

    def body():
        region = (yield sc.vm_alloc(32 * matrix_config().page_size)).value
        cold = (yield sc.touch_range(region, 0, 32)).value
        warm = (yield sc.touch_range(region, 0, 32)).value
        yield sc.vm_free(region)
        return cold, warm

    cold, warm = kernel.run_process(body(), "toucher")
    # First touches zero-fill (fault overhead), re-touches are resident.
    assert sum(warm) < sum(cold)
    assert all(t == kernel.config.mem_touch_ns for t in warm)


def test_pread_batch_twin_equivalence(platform):
    """The PR-3 guarantee must hold on every personality, not just linux."""
    path = "/mnt0/data"
    nbytes = 2 * MIB
    page = matrix_config().page_size
    probes = [(i * page, 64) for i in range(nbytes // page)] * 2

    def build() -> Kernel:
        kernel = make_kernel(platform)
        kernel.run_process(make_file(path, nbytes), "setup")
        kernel.oracle.flush_file_cache()
        return kernel

    def sequential(kernel):
        def body():
            fd = (yield sc.open(path)).value
            times = []
            for offset, count in probes:
                res = yield sc.pread(fd, offset, count)
                times.append(res.elapsed_ns)
            yield sc.close(fd)
            return times
        return kernel.run_process(body(), "seq")

    def batched(kernel):
        def body():
            fd = (yield sc.open(path)).value
            res = (yield sc.pread_batch(fd, probes)).value
            yield sc.close(fd)
            return [probe.elapsed_ns for probe in res]
        return kernel.run_process(body(), "batch")

    seq_kernel, batch_kernel = build(), build()
    seq_times = sequential(seq_kernel)
    batch_times = batched(batch_kernel)
    assert seq_times == batch_times
    assert seq_kernel.clock.now == batch_kernel.clock.now
    stats_a, stats_b = (
        k.oracle.cache_stats() for k in (seq_kernel, batch_kernel)
    )
    assert (stats_a.hits, stats_a.misses, stats_a.evictions) == (
        stats_b.hits, stats_b.misses, stats_b.evictions
    )


# ======================================================================
# Kernel assembly
# ======================================================================
def test_layers_share_one_page_cache(platform):
    kernel = make_kernel(platform)
    assert kernel.vfs.page_cache is kernel.page_cache
    assert kernel.fileio.page_cache is kernel.page_cache
    assert kernel.vm.page_cache is kernel.page_cache


def test_duplicate_registration_rejected(platform):
    kernel = make_kernel(platform)
    table: SyscallTable = kernel.syscalls
    with pytest.raises(ValueError, match="already registered"):
        table.register("open", lambda process: (None, 0))
    with pytest.raises(ValueError, match="unregistered"):
        table.override("no_such_call", lambda process: (None, 0))
