"""Machine and platform configuration.

:class:`MachineConfig` describes the hardware of the simulated testbed;
the defaults model the paper's machine (dual Pentium-III, 896 MB of
memory, five IBM 9LZX disks).  :class:`PlatformSpec` describes one of the
three operating-system *personalities* the paper evaluates:

* ``linux22``  — Linux 2.2.17: unified page cache over nearly all of
  physical memory, clock (second-chance) replacement shared between file
  pages and anonymous memory.
* ``netbsd15`` — NetBSD 1.5: a separate, fixed-size (64 MB) buffer cache
  with LRU replacement; anonymous memory managed independently.
* ``solaris7`` — Solaris 7: a large unified cache whose manager holds on
  to the pages of the first file cached "too persistently" (the paper's
  observed behaviour, §4.1.3).

The personalities differ only in data; the kernel code is shared, which is
exactly the property the paper's ICLs exploit — high-level algorithmic
knowledge plus observations, rather than per-OS detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.clock import MICROS, MILLIS, NANOS

if TYPE_CHECKING:
    from repro.sim.cache.base import CachePolicy

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class DiskSpec:
    """Geometry and timing of one disk (defaults approximate an IBM 9LZX).

    The service-time model is ``seek(distance) + rotation + transfer``
    where seek follows the usual ``a + b*sqrt(d)`` curve for short
    distances blending into a linear regime for long ones, and rotation is
    computed from the head's angular position, which the model tracks
    continuously.  Sequential transfers therefore pay neither seek nor
    rotational delay, giving near-peak bandwidth — the property FCCD's
    access-unit sizing and FLDC's layout sorting both depend on.
    """

    sector_bytes: int = 512
    sectors_per_track: int = 240
    heads: int = 10
    cylinders: int = 7_500
    rpm: int = 10_000
    # Seek curve: single-track, average and full-stroke targets (ns).
    single_track_seek_ns: int = 800 * MICROS
    full_stroke_seek_ns: int = 10 * MILLIS
    head_switch_ns: int = 500 * MICROS
    # Fixed per-request controller/command overhead.
    command_overhead_ns: int = 200 * MICROS

    @property
    def track_bytes(self) -> int:
        return self.sector_bytes * self.sectors_per_track

    @property
    def cylinder_bytes(self) -> int:
        return self.track_bytes * self.heads

    @property
    def capacity_bytes(self) -> int:
        return self.cylinder_bytes * self.cylinders

    @property
    def rotation_ns(self) -> int:
        """One full revolution, in nanoseconds."""
        return int(round(60.0 * 1_000_000_000 / self.rpm))


@dataclass(frozen=True)
class MachineConfig:
    """Hardware parameters of the simulated machine.

    Time constants are set to 2001-era hardware so absolute results land
    in the same regime as the paper (e.g. a cold 1 GB scan takes tens of
    seconds); only the *shapes* are claimed by the reproduction.
    """

    page_size: int = 4 * KIB
    memory_bytes: int = 896 * MIB
    # Memory the kernel itself consumes; the paper's MAC experiments find
    # 830 MB available on the 896 MB machine, so the default reserve is
    # the difference.
    kernel_reserved_bytes: int = 66 * MIB
    cpus: int = 2
    data_disks: int = 4
    disk: DiskSpec = field(default_factory=DiskSpec)

    # --- CPU-side time constants -------------------------------------
    syscall_overhead_ns: int = 1 * MICROS
    # Kernel-to-user copy bandwidth (≈400 MB/s on a P-III).
    memcopy_ns_per_byte: float = 2.5
    # Writing one resident byte/word from user code (TLB hit, cache miss).
    mem_touch_ns: int = 150 * NANOS
    # Allocating and zeroing a fresh page on first touch.
    page_zero_ns: int = 3 * MICROS
    # Minor bookkeeping on a page fault that needs no I/O.
    fault_overhead_ns: int = 2 * MICROS
    # Cost of reading a timestamp (the toolbox's rdtsc-equivalent).
    gettime_overhead_ns: int = 40 * NANOS

    # --- Write-buffering (bdflush) tuning ------------------------------
    # Dirty file pages may occupy at most this fraction of available
    # memory; a writer crossing it synchronously flushes dirty pages,
    # which are then *demoted* to prime eviction candidates.  This is
    # the 2.2-era split between the read cache and the (much smaller)
    # self-recycling write buffer: a process streaming writes recycles
    # its own pages instead of evicting other files' read cache.
    dirty_limit_frac: float = 0.10
    dirty_flush_target_frac: float = 0.05

    # --- Page-daemon tuning ------------------------------------------
    # Pages reclaimed (and clustered into one writeback I/O) each time a
    # fault finds the pool full.  Small batches make memory pressure
    # visible as *several slow data points in near succession* — the
    # paper's paging signal (§4.3.1) — rather than one giant stall.
    reclaim_batch_pages: int = 16

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.memory_bytes <= self.kernel_reserved_bytes:
            raise ValueError("machine must have memory beyond the kernel reserve")
        if self.data_disks < 1:
            raise ValueError("need at least one data disk")

    @property
    def available_bytes(self) -> int:
        """Physical memory usable by processes and the file cache."""
        return self.memory_bytes - self.kernel_reserved_bytes

    @property
    def available_pages(self) -> int:
        return self.available_bytes // self.page_size

    def page_copy_ns(self, nbytes: int) -> int:
        """Kernel-to-user copy time for ``nbytes``."""
        return int(round(self.memcopy_ns_per_byte * nbytes))

    def scaled(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced.

        Benchmarks use this to select 64 KiB pages (fewer simulated page
        objects at paper-scale file sizes) without touching anything else.
        """
        return replace(self, **overrides)


@dataclass(frozen=True)
class PoolPlan:
    """The page-pool arrangement a platform hands the memory manager.

    ``unified`` means ``file_pool is anon_pool`` — one replacement pool
    shared by file, metadata, and anonymous pages, with both capacities
    equal to all available memory.
    """

    file_pool: "CachePolicy"
    file_capacity_pages: int
    anon_pool: "CachePolicy"
    anon_capacity_pages: int
    unified: bool


@dataclass(frozen=True)
class PlatformSpec:
    """An operating-system personality layered on the shared kernel code.

    Personalities are *data*: policy names and sizing constants, which
    :meth:`make_pools` turns into the memory layout once at kernel
    construction.  Shared kernel code never branches on the platform
    name, which is exactly the property the paper's ICLs exploit: the
    OSes differ in policy, not in the syscall surface.
    """

    name: str
    description: str
    # Name of the file-cache policy registered in repro.sim.cache.
    cache_policy: str
    # If set, the file cache is a separate fixed-size pool of this many
    # bytes (NetBSD 1.5 style) instead of sharing all available memory.
    fixed_file_cache_bytes: Optional[int] = None
    # Blocks the allocator skips between allocation requests.  The paper
    # hypothesizes (§4.2.3) that Solaris "does not pack the data blocks
    # of small files together as tightly as the others, and thus spends
    # more time in rotation" — a gap of one block reproduces exactly
    # that observable.
    ffs_alloc_gap: int = 0

    def make_pools(self, config: MachineConfig) -> PoolPlan:
        """Build this platform's page pools for ``config``'s memory.

        Split platforms (``fixed_file_cache_bytes`` set) get a dedicated
        file/metadata pool of that size plus an LRU anonymous pool over
        the remainder; unified platforms get one pool, under
        :attr:`cache_policy`, spanning everything.
        """
        # Imported here: config is the bottom layer, the cache package
        # sits above it, and only this hook needs to reach upward.
        from repro.sim.cache import make_policy

        total = config.available_pages
        if self.fixed_file_cache_bytes is not None:
            file_pages = self.fixed_file_cache_bytes // config.page_size
            if not 0 < file_pages < total:
                raise ValueError("fixed file cache must fit inside available memory")
            return PoolPlan(
                file_pool=make_policy(self.cache_policy),
                file_capacity_pages=file_pages,
                anon_pool=make_policy("lru"),
                anon_capacity_pages=total - file_pages,
                unified=False,
            )
        pool = make_policy(self.cache_policy)
        return PoolPlan(
            file_pool=pool,
            file_capacity_pages=total,
            anon_pool=pool,
            anon_capacity_pages=total,
            unified=True,
        )


linux22 = PlatformSpec(
    name="linux22",
    description="Linux 2.2.17: unified page cache, clock replacement",
    cache_policy="clock",
)

netbsd15 = PlatformSpec(
    name="netbsd15",
    description="NetBSD 1.5: fixed 64 MB buffer cache, LRU replacement",
    cache_policy="lru",
    fixed_file_cache_bytes=64 * MIB,
)

solaris7 = PlatformSpec(
    name="solaris7",
    description="Solaris 7: unified cache that holds early files persistently",
    cache_policy="segmap",
    ffs_alloc_gap=4,
)

PLATFORMS: Dict[str, PlatformSpec] = {
    spec.name: spec for spec in (linux22, netbsd15, solaris7)
}
