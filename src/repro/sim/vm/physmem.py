"""The memory manager: physical page pools shared by files and processes.

Two pool arrangements exist, selected by the platform personality:

* **unified** (linux22, solaris7): one replacement pool holds file data
  pages, metadata pages, and anonymous pages.  A process growing its heap
  steals from the file cache and vice versa — the contention fastsort
  suffers from in Figure 3 and the property MAC relies on in §4.3.
* **split** (netbsd15): file and metadata pages live in a fixed-size
  buffer cache; anonymous pages get the remainder.

The manager never performs I/O.  Faults and inserts return the list of
victim pages that must be written back (anon pages get a swap slot
assigned here); the kernel turns those into clustered disk writes and
charges the faulting process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs import DISABLED, Observability
from repro.sim.cache.base import (
    AnonKey,
    CachePolicy,
    CacheStats,
    FileKey,
    MetaKey,
    PageEntry,
    PageKey,
)
from repro.sim.config import MachineConfig, PlatformSpec
from repro.sim.errors import OutOfMemory
from repro.sim.vm.pagedaemon import PageDaemonStats
from repro.sim.vm.residency import ResidencyIndex
from repro.sim.vm.swap import SwapSpace


class FaultKind(Enum):
    """What servicing an anonymous-page touch required."""

    RESIDENT = "resident"
    ZERO_FILL = "zero_fill"
    SWAP_IN = "swap_in"


@dataclass
class FaultResult:
    """Outcome of an anonymous fault: its kind plus any eviction work."""

    kind: FaultKind
    evictions: List[PageEntry] = field(default_factory=list)
    swapin_slot: Optional[int] = None


class MemoryManager:
    """Owns the page pools, swap space, and reclaim accounting."""

    def __init__(
        self,
        config: MachineConfig,
        platform: PlatformSpec,
        swap_capacity_pages: int,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.obs = obs if obs is not None else DISABLED
        self.swap = SwapSpace(swap_capacity_pages)
        self.daemon_stats = PageDaemonStats()
        self._dirty_file_pages = 0
        # Per-(fs_id, ino) indexes of dirty FileKey pages: what fsync
        # writes back, without walking the file's clean pages.  Updated
        # at the same transitions as ``_dirty_file_pages`` (MetaKeys are
        # counted there but not indexed); a file with no dirty page has
        # no entry.
        self._dirty_by_file: Dict[Tuple[int, int], Set[int]] = {}
        # Who inserted each resident file/meta page (anon keys carry
        # their pid already).  Host-side attribution metadata, kept only
        # when obs is enabled and a process is current; what lets a
        # reclaim event name its victims, not just its instigator.
        self._page_owner: Dict[PageKey, int] = {}

        plan = platform.make_pools(config)
        self._file_pool: CachePolicy = plan.file_pool
        self._file_capacity = plan.file_capacity_pages
        self._anon_pool: CachePolicy = plan.anon_pool
        self._anon_capacity = plan.anon_capacity_pages
        self._unified = plan.unified

        # Byte-per-page residency mirrors (see repro.sim.vm.residency):
        # per-(fs_id, ino) file-page presence and per-pid anon-page
        # presence, each paired with the pool's per-page cells.
        # Every insert/remove below keeps them exact, so the vectorized
        # fault and read paths can test whole-run membership with one
        # bytearray search.  MetaKeys are not mirrored — no batch path
        # needs them, and their block numbers are too sparse for dense
        # vectors.
        self._file_index = ResidencyIndex()
        self._anon_index = ResidencyIndex()

        # File-eviction epoch: bumped whenever any page might leave the
        # file pool (reclaim victims, explicit drops).  While the epoch
        # is unchanged, a key sequence once verified fully resident is
        # *still* fully resident — inserts never remove — so the stat
        # fast path can skip membership checks and re-reference the
        # cells it looked up then (see CachePolicy.cells_of).  Plain
        # attribute (not a property): it is read once per fast-path probe.
        self.file_epoch: int = 0
        #: Bound pass-throughs for the per-probe fast path — one call
        #: deep instead of a wrapper method per probe.
        self.file_cells_of = self._file_pool.cells_of
        self.reference_file_cells = self._file_pool.reference_cells

        # Pull-style sources: read only when metrics are collected.  In
        # unified mode one pool serves both roles, so "cache.file"
        # covers every page class.  Never registered on the shared
        # DISABLED instance — its registry must stay empty.
        if self.obs.enabled:
            self.obs.metrics.register_stats("vm.daemon", self.daemon_stats)
            self.obs.metrics.register_stats("cache.file", self._file_pool.stats)
            if not self._unified:
                self.obs.metrics.register_stats(
                    "cache.anon", self._anon_pool.stats
                )
        # Fault-kind counters are on the page-touch hot path; cache the
        # instrument references and branch on ``enabled`` directly.  A
        # disabled manager never reads them, so it creates none: on the
        # shared DISABLED instance creating them would register them.
        self._fault_counters = {
            FaultKind.RESIDENT: self.obs.metrics.counter("vm.fault.resident"),
            FaultKind.ZERO_FILL: self.obs.metrics.counter("vm.fault.zero_fill"),
            FaultKind.SWAP_IN: self.obs.metrics.counter("vm.fault.swap_in"),
        } if self.obs.enabled else {}

    # ------------------------------------------------------------------
    # Capacity / occupancy
    # ------------------------------------------------------------------
    @property
    def unified(self) -> bool:
        return self._unified

    @property
    def file_capacity_pages(self) -> int:
        return self._file_capacity

    def file_pool_used(self) -> int:
        return len(self._file_pool)

    def resident_anon_pages(self, pid: int) -> int:
        return self._anon_index.count(pid)

    def file_pool_stats(self) -> CacheStats:
        """Hit/miss/eviction accounting of the (unified or file) pool."""
        return self._file_pool.stats

    def anon_pool_stats(self) -> CacheStats:
        return self._anon_pool.stats

    # ------------------------------------------------------------------
    # Reclaim (the page daemon)
    # ------------------------------------------------------------------
    def _reclaim(self, pool: CachePolicy, capacity: int, incoming: int) -> List[PageEntry]:
        """Make room for ``incoming`` pages; returns victims needing disposal."""
        shortfall = len(pool) + incoming - capacity
        if shortfall <= 0:
            return []
        batch = max(shortfall, self.config.reclaim_batch_pages)
        victims = pool.pop_victims(batch)
        if victims and pool is self._file_pool:
            # Pages left the file pool (or, on the OutOfMemory undo
            # below, were re-inserted as fresh frames): either way any
            # cells the name cache holds may now be stale.
            self.file_epoch += 1
        if len(victims) < shortfall:
            # Pool cannot shrink enough: the machine is truly out of memory.
            for entry in victims:
                # Undo.  Re-inserting allocates fresh cells; the residency
                # mirrors still carry the pre-eviction ones, so point
                # them at the new cells before anything references them.
                key = entry.key
                cell = pool.insert_absent(key, entry.dirty)
                if isinstance(key, AnonKey):
                    self._anon_index.set(key.pid, key.index, cell)
                elif isinstance(key, FileKey):
                    self._file_index.set((key.fs_id, key.ino), key.index, cell)
            raise OutOfMemory(
                f"cannot reclaim {shortfall} pages (pool has {len(pool)})"
            )
        stats = self.daemon_stats
        stats.activations += 1
        stats.pages_reclaimed += len(victims)
        anon = file_written = file_dropped = meta = 0
        owners = self._page_owner
        victims_by_pid: Dict[int, int] = {}
        for entry in victims:
            key = entry.key
            if isinstance(key, AnonKey):
                anon += 1
                self.swap.swap_out(key)
                self._anon_index.clear(key.pid, key.index)
                owner: Optional[int] = key.pid
            else:
                owner = owners.pop(key, None)
                if isinstance(key, FileKey):
                    self._file_index.clear((key.fs_id, key.ino), key.index)
                    if entry.dirty:
                        file_written += 1
                        self._dirty_file_pages -= 1
                        self._forget_dirty(key)
                    else:
                        file_dropped += 1
                elif isinstance(key, MetaKey):
                    if entry.dirty:
                        self._dirty_file_pages -= 1
                    meta += 1
            # Pid 0 stands for "unattributed" — pages inserted host-side
            # (setup writes, daemon work) before any process ran.
            victims_by_pid[owner if owner is not None else 0] = (
                victims_by_pid.get(owner if owner is not None else 0, 0) + 1
            )
        stats.anon_pages_swapped += anon
        stats.file_pages_written += file_written
        stats.file_pages_dropped += file_dropped
        stats.meta_pages_dropped += meta
        if self.obs.enabled:
            # Whose miss forced the eviction (the currently-dispatched
            # pid, 0 host-side) and whose pages died.  victim_pid is the
            # majority owner, smallest pid on ties — deterministic, and
            # exactly one (instigator, victim) pair per reclaim event so
            # interference-matrix cell sums equal the reclaim count.
            instigator = self.obs.current_pid
            victim = min(
                victims_by_pid,
                key=lambda p: (-victims_by_pid[p], p),
            )
            self.obs.event(
                "kernel.reclaim",
                pages=len(victims),
                anon=anon,
                file_written=file_written,
                file_dropped=file_dropped,
                meta=meta,
                instigator_pid=instigator if instigator is not None else 0,
                victim_pid=victim,
                victims_by_pid=victims_by_pid,
            )
        return victims

    # ------------------------------------------------------------------
    # File / metadata pages
    # ------------------------------------------------------------------
    def file_cached(self, key: PageKey) -> bool:
        return self._file_pool.contains(key)

    def touch_file_cached(self, key: PageKey) -> bool:
        """Clean reference to an already-cached file page; True on a hit.

        Exactly :meth:`touch_file`'s clean hit, minus the call: one
        :meth:`CachePolicy.touch_cached`.  On a miss nothing changes and
        the caller must take the full :meth:`touch_file` path.
        """
        return self._file_pool.touch_cached(key)

    def touch_file_pages_resident(self, fs_id: int, ino: int, pages: List[int]) -> bool:
        """Clean bulk touch of one file's pages; True iff all resident.

        ``pages`` lists page indexes in probe order (duplicates
        allowed).  On True, pool state and hit counts are exactly what
        ``len(pages)`` successful :meth:`touch_file_cached` calls in
        that order would have left; on False nothing is mutated and the
        caller takes the scalar path.  One membership test of the
        residency mirror replaces the per-probe key construction and
        dict probe.
        """
        cells = self._file_index.cells_at_if_all_present((fs_id, ino), pages)
        if cells is None:
            return False
        self._file_pool.reference_cells(cells, False)
        return True

    def touch_file(self, key: PageKey, dirty: bool = False) -> List[PageEntry]:
        """Reference (inserting if absent) a file or metadata page.

        Returns eviction work the caller must perform.  The caller is
        responsible for any read I/O needed to *fill* the page; check
        :meth:`file_cached` first to decide.

        A hit is one policy lookup (plus :meth:`CachePolicy.is_dirty`
        when dirtying) and never reclaims: every insert path reclaims
        the pool back under capacity first, so a touch that inserts
        nothing cannot push it over.
        """
        pool = self._file_pool
        if not dirty:
            if pool.touch_cached(key):
                return []
        else:
            was_dirty = pool.is_dirty(key)
            if pool.touch_cached(key, True):
                if not was_dirty:
                    self._note_dirty(key)
                return []
        victims = self._reclaim(pool, self._file_capacity, 1)
        cell = pool.insert_absent(key, dirty)
        if dirty:
            self._note_dirty(key)
        if isinstance(key, FileKey):
            self._file_index.set((key.fs_id, key.ino), key.index, cell)
        if self.obs.enabled:
            pid = self.obs.current_pid
            if pid is not None:
                self._page_owner[key] = pid
        return victims

    def touch_file_run(
        self, fs_id: int, ino: int, start: int, stop: int, dirty: bool = False
    ) -> Tuple[int, List[Tuple[int, int]], List[PageEntry]]:
        """:meth:`touch_file` over pages ``[start, stop)`` of one file, in order.

        Returns ``(hits, missed, victims)``: the resident-page count, the
        absent pages as ``(a, b)`` spans in page order, and the eviction
        work.  Pool order and stats, reclaims, victims, ``kernel.reclaim``
        events, ``file_epoch``, the dirty index and page owners end up
        exactly as the per-page fold leaves them.  The run is walked in
        same-state spans of the file's residency vector.  A resident
        span is one :meth:`CachePolicy.reference_cells`.  An absent span
        is inserted in chunks that fill the pool's free room, with the
        fold's own ``_reclaim`` call at the page whose miss finds the
        pool full.  Each chunk's residency, dirty index and owners are
        recorded before the next reclaim, which may evict them.  A span
        is read only when the walk reaches it, since a reclaim can also
        evict later pages of the run.
        """
        pool = self._file_pool
        capacity = self._file_capacity
        index = self._file_index
        file_id = (fs_id, ino)
        pid = self.obs.current_pid if self.obs.enabled else None
        hits = 0
        missed: List[Tuple[int, int]] = []
        victims: List[PageEntry] = []
        pos = start
        while pos < stop:
            end, cells = index.span(file_id, pos, stop)
            if cells is not None:
                pool.reference_cells(cells, dirty)
                hits += end - pos
                if dirty:
                    self._note_dirty_run(file_id, pos, end)
                pos = end
                continue
            missed.append((pos, end))
            while pos < end:
                room = capacity - len(pool)
                if room <= 0:
                    # The fold's next miss finds the pool full.
                    victims.extend(self._reclaim(pool, capacity, 1))
                    room = capacity - len(pool)
                chunk = min(room, end - pos)
                keys = [FileKey(fs_id, ino, i) for i in range(pos, pos + chunk)]
                index.register_run(file_id, pos, pool.insert_absent_many(keys, dirty))
                if dirty:
                    self._note_dirty_run(file_id, pos, pos + chunk)
                if pid is not None:
                    self._page_owner.update(dict.fromkeys(keys, pid))
                pos += chunk
        return hits, missed, victims

    def _note_dirty_run(self, file_id: Tuple[int, int], start: int, stop: int) -> None:
        """Dirty pages ``[start, stop)`` of a file in the index and count.

        The newly dirty count is the index's growth: the index holds
        exactly the file's dirty resident pages.
        """
        dirty = self._dirty_by_file.get(file_id)
        if dirty is None:
            self._dirty_by_file[file_id] = set(range(start, stop))
            self._dirty_file_pages += stop - start
        else:
            before = len(dirty)
            dirty.update(range(start, stop))
            self._dirty_file_pages += len(dirty) - before

    def _note_dirty(self, key: PageKey) -> None:
        """Count a clean → dirty transition of a resident page."""
        self._dirty_file_pages += 1
        if isinstance(key, FileKey):
            file_id = (key.fs_id, key.ino)
            dirty = self._dirty_by_file.get(file_id)
            if dirty is None:
                self._dirty_by_file[file_id] = {key.index}
            else:
                dirty.add(key.index)

    def _forget_dirty(self, key: FileKey) -> None:
        """Drop a FileKey page that stopped being dirty from its file's index."""
        file_id = (key.fs_id, key.ino)
        dirty = self._dirty_by_file[file_id]
        dirty.discard(key.index)
        if not dirty:
            del self._dirty_by_file[file_id]

    def drop_file_page(self, key: PageKey) -> bool:
        if self._file_pool.is_dirty(key):
            self._dirty_file_pages -= 1
            if isinstance(key, FileKey):
                self._forget_dirty(key)
        removed = self._file_pool.remove(key)
        if removed:
            self.file_epoch += 1
            self._page_owner.pop(key, None)
            if isinstance(key, FileKey):
                self._file_index.clear((key.fs_id, key.ino), key.index)
        return removed

    def mark_file_clean(self, key: PageKey) -> None:
        if self._file_pool.is_dirty(key):
            self._dirty_file_pages -= 1
            if isinstance(key, FileKey):
                self._forget_dirty(key)
            self._file_pool.mark_clean(key)

    @property
    def dirty_file_pages(self) -> int:
        return self._dirty_file_pages

    def flush_oldest_dirty(self, count: int) -> List[PageKey]:
        """bdflush: clean and demote the first ``count`` dirty file/meta
        pages in eviction order (:meth:`CachePolicy.flush_oldest_dirty`)
        and return them; the caller writes them to their home blocks.
        """
        flushed = self._file_pool.flush_oldest_dirty(count)
        self._dirty_file_pages -= len(flushed)
        for key in flushed:
            if isinstance(key, FileKey):
                self._forget_dirty(key)
        return flushed

    def clean_file_pages(self, fs_id: int, ino: int, npages: int) -> List[int]:
        """fsync: mark one file's dirty pages below ``npages`` clean.

        Returns their indexes in ascending order; the caller writes them
        back.  Visits only the file's dirty pages, via the per-file index.
        """
        file_id = (fs_id, ino)
        dirty = self._dirty_by_file.get(file_id)
        if dirty is None:
            return []
        indexes = sorted(index for index in dirty if index < npages)
        if len(indexes) == len(dirty):
            del self._dirty_by_file[file_id]
        else:
            dirty.difference_update(indexes)
        mark_clean = self._file_pool.mark_clean
        for index in indexes:
            mark_clean(FileKey(fs_id, ino, index))
        self._dirty_file_pages -= len(indexes)
        return indexes

    def file_page_dirty(self, key: PageKey) -> bool:
        return self._file_pool.is_dirty(key)

    def file_keys(self) -> Iterator[PageKey]:
        """All file/meta keys (oracle use).  In unified mode filters anon."""
        for key in self._file_pool.keys():
            if not isinstance(key, AnonKey):
                yield key

    # ------------------------------------------------------------------
    # Anonymous pages
    # ------------------------------------------------------------------
    def anon_fault(self, key: AnonKey, touched_before: bool) -> FaultResult:
        """Service a write to an anonymous page.

        ``touched_before`` comes from the address space: an untouched page
        zero-fills, a touched-but-nonresident page swaps in.
        """
        if self.anon_fault_resident(key):
            return FaultResult(FaultKind.RESIDENT)

        enabled = self.obs.enabled
        victims = self._reclaim(self._anon_pool, self._anon_capacity, 1)
        cell = self._anon_pool.insert_absent(key, True)
        self._anon_index.set(key.pid, key.index, cell)

        if touched_before and self.swap.slot_of(key) is not None:
            slot = self.swap.swap_in(key)
            if enabled:
                self._fault_counters[FaultKind.SWAP_IN].value += 1
            return FaultResult(FaultKind.SWAP_IN, victims, swapin_slot=slot)
        if enabled:
            self._fault_counters[FaultKind.ZERO_FILL].value += 1
        return FaultResult(FaultKind.ZERO_FILL, victims)

    def anon_fault_resident(self, key: AnonKey) -> bool:
        """RESIDENT-case anon fault without the FaultResult allocation.

        True when the page was resident, leaving pool state, dirty bit,
        and the fault counter exactly as :meth:`anon_fault`'s resident
        branch would; False means the caller must run the full fault.
        """
        if not self._anon_pool.touch_cached(key, dirty=True):
            return False
        if self.obs.enabled:
            self._fault_counters[FaultKind.RESIDENT].value += 1
        return True

    def anon_resident(self, key: AnonKey) -> bool:
        return self._anon_pool.contains(key)

    def anon_resident_cells(
        self, pid: int, start: int, stop: int, step: int = 1
    ) -> Optional[List[Any]]:
        """Cells of the strided run ``range(start, stop, step)`` iff all resident.

        Pages are absolute page numbers.  One slice of the anon
        residency mirror; nothing is touched.  ``None`` when any page is
        absent.  Pass (a prefix of) the result to
        :meth:`touch_anon_cells` to fault the pages in.
        """
        return self._anon_index.cells_if_all_present(pid, start, stop, step)

    def touch_anon_cells(self, cells: Sequence[Any]) -> None:
        """Bulk RESIDENT-case fault over pages given by their cells.

        Pool state, hit counts, and the fault counter end exactly as
        ``len(cells)`` :meth:`anon_fault_resident` calls in order leave
        them: one
        :meth:`~repro.sim.cache.base.CachePolicy.reference_cells` call.
        """
        self._anon_pool.reference_cells(cells, True)
        if self.obs.enabled:
            self._fault_counters[FaultKind.RESIDENT].value += len(cells)

    def anon_zero_fill_run(self, pid: int, start: int, stop: int) -> bool:
        """Bulk ZERO_FILL: insert ``[start, stop)`` as one batch.

        Preconditions checked here: the pool has room for the whole run
        without reclaiming (so no intermediate step of the equivalent
        sequential faults would have evicted anything) and no page of
        the run is already resident.  The caller guarantees the pages
        were never touched (fresh region pages — so no swap slots
        exist).  On True, pool state, miss counts, per-pid residency,
        and the fault counter match ``stop - start`` sequential
        zero-fill faults; on False nothing is mutated.
        """
        count = stop - start
        pool = self._anon_pool
        if len(pool) + count > self._anon_capacity:
            return False
        if not self._anon_index.all_absent_run(pid, start, stop):
            return False
        keys = [AnonKey(pid, page) for page in range(start, stop)]
        cells = pool.insert_absent_many(keys, True)
        self._anon_index.register_run(pid, start, cells)
        if self.obs.enabled:
            self._fault_counters[FaultKind.ZERO_FILL].value += count
        return True

    def free_anon_pages(self, pid: int, keys: List[AnonKey]) -> int:
        """Release pages on vm_free/exit; returns pages actually resident.

        Free storms are region-sized (thousands of pages), so the loop
        binds the pool's remove once, batches the residency-mirror
        clears under a single owner lookup, and skips the swap-slot
        sweep entirely while no page of any process is swapped out —
        the common case for a machine that never came under pressure.
        """
        freed = 0
        remove = self._anon_pool.remove
        cleared: List[int] = []
        for key in keys:
            if remove(key):
                freed += 1
                cleared.append(key.index)
        if cleared:
            self._anon_index.clear_many(pid, cleared)
        if self.swap.in_use():
            discard = self.swap.discard
            for key in keys:
                discard(key)
        return freed

    def release_process(self, pid: int, keys: List[AnonKey]) -> None:
        """Drop every page of an exiting process."""
        for key in keys:
            self._anon_pool.remove(key)
        self.swap.discard_process(pid)
        self._anon_index.drop_owner(pid)
