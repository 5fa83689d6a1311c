"""The VM fault layer: anonymous-memory syscalls and fault servicing.

Sits between the memory syscalls (``vm_alloc`` / ``vm_free`` /
``touch`` / ``touch_range`` / ``touch_batch``) and the
:class:`~repro.sim.vm.physmem.MemoryManager` below.  The memory manager
classifies each touch (resident / zero-fill / swap-in) and nominates
eviction victims; this layer turns the classification into simulated
time — fault overhead, page zeroing, swap-in I/O — and routes victim
writebacks through the
:class:`~repro.sim.pagecache.PageCacheManager`, exactly as the file
side does, so anonymous and file-backed memory share one writeback
path on unified-VM platforms.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.sim.cache.base import AnonKey
from repro.sim.clock import Clock
from repro.sim.config import MachineConfig
from repro.sim.disk import Disk
from repro.sim.dispatch import SyscallTable
from repro.sim.errors import InvalidArgument
from repro.sim.pagecache import PageCacheManager
from repro.sim.proc.process import Process
from repro.sim.syscalls import TouchBatchResult
from repro.sim.vm.physmem import FaultKind, MemoryManager


class VMLayer:
    """Anonymous-memory syscalls: allocation, touches, batched touches."""

    def __init__(
        self,
        config: MachineConfig,
        clock: Clock,
        mm: MemoryManager,
        swap_disk: Disk,
        page_cache: PageCacheManager,
    ) -> None:
        self.config = config
        self.clock = clock
        self.mm = mm
        self.swap_disk = swap_disk
        self.page_cache = page_cache
        #: Optional fault injector (repro.sim.inject.FaultInjector); when
        #: set, per-touch elapsed times pass through ``probe_elapsed`` (a
        #: vector run draws them as one ``probe_noise_block``) so batched
        #: and sequential touches observe one noise stream (and the
        #: batch's early-stop predicate sees the noisy time, exactly
        #: like the user-space sequential loop would).
        self.inject: Optional[Any] = None
        #: Gate for the vectorized run paths (residency-mirror membership
        #: tests + batched policy updates).  ``Kernel(batch_paths=False)``
        #: turns them off so the differential fuzzer can pin the vector
        #: paths against the scalar per-page loop bit for bit.
        self.batch_paths: bool = True

    def register_syscalls(self, table: SyscallTable) -> None:
        table.register("vm_alloc", self.sys_vm_alloc)
        table.register("vm_free", self.sys_vm_free)
        table.register("touch", self.sys_touch)
        table.register("touch_range", self.sys_touch_range)
        table.register("touch_batch", self.sys_touch_batch)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def sys_vm_alloc(self, process: Process, nbytes: int, label: str = ""):
        if nbytes <= 0:
            raise InvalidArgument("vm_alloc needs a positive size")
        npages = -(-nbytes // self.config.page_size)
        region = process.address_space.allocate(npages, label)
        return region.region_id, self.config.syscall_overhead_ns

    def sys_vm_free(self, process: Process, region_id: int):
        space = process.address_space
        region = space.region(region_id)
        touched = [
            AnonKey(process.pid, page)
            for page in region.page_numbers()
            if page in space.touched
        ]
        self.mm.free_anon_pages(process.pid, touched)
        space.free(region_id)
        return None, self.config.syscall_overhead_ns

    # ------------------------------------------------------------------
    # Touches
    # ------------------------------------------------------------------
    def touch_one(self, process: Process, region_id: int, page_index: int, t: int) -> int:
        """Service one page touch starting at time ``t``; returns new time."""
        space = process.address_space
        region = space.region(region_id)
        if not 0 <= page_index < region.npages:
            raise InvalidArgument(
                f"page {page_index} outside region of {region.npages} pages"
            )
        page = region.base_page + page_index
        key = AnonKey(process.pid, page)
        cfg = self.config
        touched_before = page in space.touched
        # Only a page touched before can be resident.
        if touched_before and self.mm.anon_fault_resident(key):
            return t + cfg.mem_touch_ns
        fault = self.mm.anon_fault(key, touched_before)
        space.touched.add(page)
        t += cfg.fault_overhead_ns
        t = self.page_cache.dispose_victims(fault.evictions, t)
        if fault.kind is FaultKind.ZERO_FILL:
            return t + cfg.page_zero_ns
        _s, t = self.swap_disk.access(
            fault.swapin_slot, 1, t, cfg.page_size, write=False
        )
        return t + cfg.mem_touch_ns

    def sys_touch(self, process: Process, region_id: int, page_index: int):
        t0 = self.clock.now
        t = self.touch_one(process, region_id, page_index, t0)
        duration = t - t0
        if self.inject is not None:
            duration = self.inject.probe_elapsed("touch", duration)
        return None, duration

    def sys_touch_range(self, process: Process, region_id: int, start_page: int, npages: int):
        """Touch pages in order; shares :meth:`_touch_run` with touch_batch.

        Routing through the batch interior gives touch_range the same
        vector run path as touch_batch; a run that does not qualify
        touches page by page through :meth:`touch_one`.
        """
        if npages <= 0:
            raise InvalidArgument("touch_range needs a positive page count")
        times, _stopped, total = self._touch_run(
            process, region_id, start_page, npages, 1, None, 1, 1
        )
        return times, total

    def sys_touch_batch(
        self,
        process: Process,
        region_id: int,
        start_page: int,
        npages: int,
        stride: int = 1,
        threshold_ns: Optional[int] = None,
        slow_count: int = 1,
        slow_window: int = 1,
    ):
        """Vectored page touches with MAC's windowed early-stop predicate.

        Without ``threshold_ns`` this is ``touch_range`` with a stride.
        With it, touching stops right after the page whose slow
        observation is the ``slow_count``-th within ``slow_window`` page
        indexes — so an aborted batch leaves the memory pool in exactly
        the state the equivalent sequential touch loop (which aborts at
        the same page) would have left it.
        """
        if npages <= 0:
            raise InvalidArgument("touch_batch needs a positive page count")
        if stride <= 0:
            raise InvalidArgument("touch_batch needs a positive stride")
        if slow_count < 1 or slow_window < 1:
            raise InvalidArgument("need slow_count >= 1 and slow_window >= 1")
        times, stopped, total = self._touch_run(
            process, region_id, start_page, npages, stride,
            threshold_ns, slow_count, slow_window,
        )
        return TouchBatchResult(tuple(times), stopped), total

    def _touch_run(
        self,
        process: Process,
        region_id: int,
        start_page: int,
        npages: int,
        stride: int,
        threshold_ns: Optional[int],
        slow_count: int,
        slow_window: int,
    ):
        """Shared touch interior; returns ``(per_page_times, stopped, total)``.

        Two paths, bit-identical in simulated time, pool state, obs
        records and injector schedule:

        1. **Vector run** (:meth:`_vector_run`, on only with
           ``batch_paths``) — an in-bounds strided run that is all
           resident, or a stride-1 run no page of which was ever
           touched, with or without touch noise.
        2. **Per-page loop** — everything else (mixed runs, swap-ins,
           reclaim pressure, out-of-bounds runs, ``batch_paths=False``):
           :meth:`touch_one` per page, which is what a sequence of
           ``touch`` calls runs, with noise and early-stop applied per
           touch.  It is the reference the vector run is fuzzed against.
        """
        t0 = self.clock.now
        if self.batch_paths:
            region = process.address_space.region(region_id)
            last_index = start_page + ((npages - 1) // stride) * stride
            if 0 <= start_page and last_index < region.npages:
                run = self._vector_run(
                    process, region.base_page + start_page, (npages - 1) // stride + 1,
                    stride, threshold_ns, slow_count, slow_window,
                )
                if run is not None:
                    return run

        inject = self.inject
        t = t0
        times: List[int] = []
        append = times.append
        slow_marks: List[int] = []
        stopped = False
        for index in range(start_page, start_page + npages, stride):
            before = t
            t = self.touch_one(process, region_id, index, t)
            elapsed = t - before
            if inject is not None:
                # Noise the touch before the early-stop predicate reads
                # it, exactly as the sequential user-space loop would.
                elapsed = inject.probe_elapsed("touch", elapsed)
                t = before + elapsed
            append(elapsed)
            if threshold_ns is not None and elapsed > threshold_ns:
                slow_marks.append(index)
                recent = sum(1 for m in slow_marks if index - m < slow_window)
                if recent >= slow_count:
                    stopped = True
                    break
        return times, stopped, t - t0

    def _vector_run(
        self,
        process: Process,
        first: int,
        count: int,
        stride: int,
        threshold_ns: Optional[int],
        slow_count: int,
        slow_window: int,
    ):
        """Touch ``count`` pages from absolute page ``first`` as one run.

        Qualifies when every page is resident (each costs
        ``mem_touch_ns``; their cells come from the anon residency
        mirror) or, at stride 1, when no page was ever touched (each
        zero-fills for ``fault_overhead_ns + page_zero_ns``).  Per-page
        times are that base, or the injector's ``touch`` noise block.
        The early-stop predicate runs over them before anything is
        touched, so only the kept pages are faulted — one
        ``reference_cells`` or one ``anon_zero_fill_run`` — and the
        noise is committed last.  Returns ``None``, with nothing
        mutated, when the run does not qualify or the pool cannot take
        the zero-fill without reclaiming.
        """
        mm = self.mm
        cfg = self.config
        pid = process.pid
        touched = process.address_space.touched
        cells = mm.anon_resident_cells(pid, first, first + (count - 1) * stride + 1, stride)
        if cells is not None:
            base_ns = cfg.mem_touch_ns
        elif stride == 1 and touched.isdisjoint(range(first, first + count)):
            base_ns = cfg.fault_overhead_ns + cfg.page_zero_ns
        else:
            return None
        noise = None
        if self.inject is not None:
            noise = self.inject.probe_noise_block("touch", base_ns, count)
        kept, stopped = count, False
        # Without noise every probe costs base_ns: none can be slow
        # unless the base is.
        if threshold_ns is not None and (noise is not None or base_ns > threshold_ns):
            # Probes are ``stride`` pages apart and the window counts
            # page indexes, so it spans ceil(slow_window / stride) probes.
            kept, stopped = _early_stop(
                [base_ns] * count if noise is None else noise[0],
                threshold_ns, slow_count, -(-slow_window // stride),
            )
        if cells is not None:
            mm.touch_anon_cells(cells[:kept])
        elif mm.anon_zero_fill_run(pid, first, first + kept):
            touched.update(range(first, first + kept))
        else:
            return None
        if noise is None:
            return [base_ns] * kept, stopped, base_ns * kept
        times, commit = noise
        commit(kept)
        times = times[:kept]
        return times, stopped, sum(times)


def _early_stop(
    times: List[int], threshold_ns: int, slow_count: int, window: int
) -> Tuple[int, bool]:
    """MAC's windowed early-stop predicate over a batch's probe times.

    Probe i is slow when ``times[i] > threshold_ns``.  The batch stops
    right after the first slow probe that has at least ``slow_count``
    slow probes among the ``window`` probes ending at it, which holds
    when the ``slow_count``-th slow probe back from it lies inside that
    window.  Returns ``(kept, stopped)``: how many probes the batch
    keeps, and whether the predicate tripped.
    """
    slow = [i for i, elapsed in enumerate(times) if elapsed > threshold_ns]
    for j in range(slow_count - 1, len(slow)):
        if slow[j] - slow[j - slow_count + 1] < window:
            return slow[j] + 1, True
    return len(times), False


__all__ = ["VMLayer"]
