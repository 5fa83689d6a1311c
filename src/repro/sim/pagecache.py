"""The page-cache manager: data-page movement between memory and disk.

This layer sits between the VFS/file-I/O syscall handlers above it and
the :class:`~repro.sim.vm.physmem.MemoryManager` + disks below it.  The
memory manager decides *which* pages live and die; this manager turns
those decisions into simulated I/O time:

* **reads** cluster contiguous cache misses whose disk blocks are also
  contiguous into single disk requests (:meth:`read_file_pages`);
* **writes** dirty pages through the cache, paying read-modify-write
  for partial pages (:meth:`write_file_pages`), and bdflush-style
  throttling charges streaming writers for flushing their own backlog
  (:meth:`throttle_dirty`);
* **evictions** nominated by the memory manager become clustered
  writebacks — anonymous victims to their swap slots, dirty file/meta
  pages to their home blocks (:meth:`dispose_victims`).

Every method threads explicit simulated time ``t`` and returns the new
time; nothing here reads or advances the kernel clock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.sim.cache.base import AnonKey, FileKey, MetaKey, PageEntry, PageKey
from repro.sim.config import MachineConfig
from repro.sim.disk import Disk
from repro.sim.fs.ffs import FFS
from repro.sim.fs.inode import Inode
from repro.sim.vm.physmem import MemoryManager


def runs(sorted_values: List[int]) -> Iterable[Tuple[int, int]]:
    """Collapse a sorted int list into (start, length) contiguous runs."""
    start = None
    length = 0
    for value in sorted_values:
        if start is not None and value == start + length:
            length += 1
        elif start is not None and value == start + length - 1:
            continue  # duplicate
        else:
            if start is not None:
                yield start, length
            start = value
            length = 1
    if start is not None:
        yield start, length


class PageCacheManager:
    """Owns cached data-page I/O: fills, writebacks, and throttling.

    ``fs_by_id`` and ``disk_of_fs`` are live mappings shared with the
    kernel's mount state, so filesystems mounted after construction are
    visible here without re-wiring.
    """

    def __init__(
        self,
        config: MachineConfig,
        mm: MemoryManager,
        swap_disk: Disk,
        fs_by_id: Mapping[int, FFS],
        disk_of_fs: Mapping[int, Disk],
    ) -> None:
        self.config = config
        self.mm = mm
        self.swap_disk = swap_disk
        self._fs_by_id = fs_by_id
        self._disk_of_fs = disk_of_fs
        #: Gate for the page-run fills in :meth:`read_file_pages` and
        #: :meth:`write_file_pages`; ``Kernel(batch_paths=False)`` turns
        #: it off for the scalar-vs-vector differential fuzzer.
        self.batch_paths: bool = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_file_pages(
        self, fs: FFS, disk: Disk, inode: Inode, indexes: Iterable[int], t: int
    ) -> Tuple[int, int]:
        """Bring the given pages into cache; returns (new_time, hit_count).

        Contiguous cache misses whose disk blocks are also contiguous are
        clustered into single disk requests.  A contiguous range of two
        or more mapped pages enters the cache through one
        :meth:`MemoryManager.touch_file_run`; anything else, or every
        read with ``batch_paths`` off, touches page by page.
        """
        mm = self.mm
        if (
            self.batch_paths
            and type(indexes) is range
            and indexes.step == 1
            and len(indexes) >= 2
            and indexes.stop <= len(inode.blocks)
        ):
            hits, missed, victims = mm.touch_file_run(
                fs.fs_id, inode.ino, indexes.start, indexes.stop
            )
            blocks = inode.blocks
            missed_blocks = [block for a, b in missed for block in blocks[a:b]]
        else:
            hits = 0
            missed_blocks = []
            victims = []
            touch_cached = mm.touch_file_cached
            for index in indexes:
                key = FileKey(fs.fs_id, inode.ino, index)
                if touch_cached(key):
                    hits += 1
                    continue
                missed_blocks.append(inode.block_of_page(index))
                victims.extend(mm.touch_file(key))
        t = self._read_block_runs(disk, missed_blocks, t)
        return self.dispose_victims(victims, t), hits

    def _read_block_runs(self, disk: Disk, blocks: List[int], t: int) -> int:
        """Read ``blocks`` in order, one request per run of consecutive
        blocks; returns the new time."""
        page = self.config.page_size
        run_start = run_len = 0
        for block in blocks:
            if run_len and block == run_start + run_len:
                run_len += 1
                continue
            if run_len:
                _s, t = disk.access(run_start, run_len, t, page)
            run_start, run_len = block, 1
        if run_len:
            _s, t = disk.access(run_start, run_len, t, page)
        return t

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_file_pages(
        self, fs: FFS, disk: Disk, inode: Inode, offset: int, nbytes: int, t: int
    ) -> int:
        """Dirty the pages covering [offset, offset+nbytes) through the cache.

        A partially written page that is not cached is read first.  With
        ``batch_paths`` on, the wholly written pages between a partial
        head and a partial tail page are dirtied as one
        :meth:`MemoryManager.touch_file_run` when there are two or more.
        """
        page = self.config.page_size
        end = offset + nbytes
        first = offset // page
        last = (end - 1) // page
        old_pages = len(inode.blocks)
        fs.grow_to_size(inode, end)
        fs.rewrite_pages(inode, first, min(last, old_pages - 1))
        mm = self.mm
        fs_id, ino = fs.fs_id, inode.ino
        victims: List[PageEntry] = []

        def dirty_page(index: int, t: int) -> int:
            key = FileKey(fs_id, ino, index)
            covers_whole = offset <= index * page and (index + 1) * page <= end
            if not covers_whole and index < old_pages and not mm.file_cached(key):
                t, _ = self.read_file_pages(fs, disk, inode, [index], t)
            victims.extend(mm.touch_file(key, dirty=True))
            return t

        # Pages [lo, hi) are written whole; without a run, lo = hi = last + 1.
        lo = hi = last + 1
        if self.batch_paths:
            lo = first + (offset % page != 0)
            hi = last + (end % page == 0)
            if hi - lo < 2:
                lo = hi = last + 1
        for index in range(first, lo):
            t = dirty_page(index, t)
        if lo < hi:
            victims.extend(mm.touch_file_run(fs_id, ino, lo, hi, True)[2])
        for index in range(hi, last + 1):
            t = dirty_page(index, t)
        return self.dispose_victims(victims, t)

    # ------------------------------------------------------------------
    # Eviction I/O and writeback
    # ------------------------------------------------------------------
    def dispose_victims(self, victims: List[PageEntry], t: int) -> int:
        """Perform the page daemon's writebacks; returns the new time.

        Anonymous victims already have swap slots assigned; contiguous
        slots become one clustered swap write.  Then the dirty file/meta
        victims, in victim order, go to their home blocks
        (:meth:`_write_home`).
        """
        if not victims:
            return t
        swap_slots: List[int] = []
        dirty: List[PageKey] = []
        for entry in victims:
            key = entry.key
            if isinstance(key, AnonKey):
                slot = self.mm.swap.slot_of(key)
                if slot is not None:
                    swap_slots.append(slot)
            elif entry.dirty:
                dirty.append(key)
        t = self.write_block_runs(self.swap_disk, swap_slots, t)
        return self._write_home(dirty, t)

    def _write_home(self, keys: Iterable[PageKey], t: int) -> int:
        """Write file and metadata pages back to their home blocks.

        The keys' blocks are grouped by file system, in the order each
        file system first appears, and each group is written as
        clustered runs.  A file page whose file or block is gone is
        skipped.  Returns the new time.
        """
        writes: Dict[int, List[int]] = {}
        for key in keys:
            if isinstance(key, FileKey):
                fs = self._fs_by_id.get(key.fs_id)
                inode = fs.inodes.get(key.ino) if fs else None
                if inode is None or key.index >= len(inode.blocks):
                    continue
                writes.setdefault(key.fs_id, []).append(inode.blocks[key.index])
            elif isinstance(key, MetaKey):
                writes.setdefault(key.fs_id, []).append(key.block)
        for fs_id, blocks in writes.items():
            t = self.write_block_runs(self._disk_of_fs[fs_id], blocks, t)
        return t

    def write_block_runs(self, disk: Disk, blocks: List[int], t: int) -> int:
        """Write ``blocks`` back as clustered runs; returns the new time.

        Sorts the list in place exactly once per flush (building fresh
        ``sorted()`` copies at every call site showed up in the
        writeback/swap profiles); a block listed twice is written once.
        """
        page = self.config.page_size
        blocks.sort()
        for start, length in runs(blocks):
            _s, t = disk.access(start, length, t, page, write=True)
        return t

    def throttle_dirty(self, t: int) -> int:
        """bdflush-style write throttling (charged to the writer).

        When dirty file pages exceed their share of memory, flush the
        oldest down to the target through :meth:`_write_home` and demote
        them so streaming writers recycle their own pages instead of
        evicting read caches.
        """
        cfg = self.config
        mm = self.mm
        capacity = mm.file_capacity_pages
        limit = int(capacity * cfg.dirty_limit_frac)
        if mm.dirty_file_pages <= limit:
            return t
        target = int(capacity * cfg.dirty_flush_target_frac)
        return self._write_home(mm.flush_oldest_dirty(mm.dirty_file_pages - target), t)
