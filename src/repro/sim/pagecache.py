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

import numpy as np

from repro.sim.cache.base import AnonKey, FileKey, MetaKey, PageEntry
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


#: Below this many blocks the Python ``sort`` + ``runs`` pass beats
#: numpy's fixed per-op overhead; above it ``np.unique`` + one diff
#: split wins and the margin grows with flush size.  Both compute the
#: same (start, length) runs, so the crossover is host-time tuning only.
_NUMPY_RUNS_MIN = 64


def runs_array(blocks: List[int]) -> List[Tuple[int, int]]:
    """``runs(sorted(set(blocks)))`` computed vectorially.

    One ``np.unique`` (sort + dedup) and one ``diff`` split replace the
    per-element Python loop; identical output to :func:`runs` over the
    sorted, duplicate-skipping input by construction.
    """
    uniq = np.unique(np.asarray(blocks, dtype=np.int64))
    splits = np.flatnonzero(np.diff(uniq) > 1) + 1
    starts = np.concatenate(([0], splits))
    ends = np.concatenate((splits, [uniq.shape[0]]))
    run_starts = uniq[starts].tolist()
    lengths = (ends - starts).tolist()
    return list(zip(run_starts, lengths))


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
        #: Gate for the vectorized run computation in
        #: :meth:`write_block_runs`; ``Kernel(numpy_paths=False)`` turns
        #: it off for the scalar-vs-vector differential fuzzer.
        self.numpy_paths: bool = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_file_pages(
        self, fs: FFS, disk: Disk, inode: Inode, indexes: Iterable[int], t: int
    ) -> Tuple[int, int]:
        """Bring the given pages into cache; returns (new_time, hit_count).

        Contiguous cache misses whose disk blocks are also contiguous are
        clustered into single disk requests.
        """
        mm = self.mm
        hits = 0
        run_start_block = -1
        run_len = 0

        def flush_run(now: int) -> int:
            nonlocal run_len, run_start_block
            if run_len == 0:
                return now
            _s, end = disk.access(run_start_block, run_len, now, self.config.page_size)
            run_len = 0
            return end

        pending_victims: List[PageEntry] = []
        touch_cached = mm.touch_file_cached
        for index in indexes:
            key = FileKey(fs.fs_id, inode.ino, index)
            if touch_cached(key):
                hits += 1
                continue
            block = inode.block_of_page(index)
            if run_len and block == run_start_block + run_len:
                run_len += 1
            else:
                t = flush_run(t)
                run_start_block = block
                run_len = 1
            pending_victims.extend(mm.touch_file(key))
        t = flush_run(t)
        t = self.dispose_victims(pending_victims, t)
        return t, hits

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_file_pages(
        self, fs: FFS, disk: Disk, inode: Inode, offset: int, nbytes: int, t: int
    ) -> int:
        """Dirty the pages covering [offset, offset+nbytes) through the cache."""
        page = self.config.page_size
        first = offset // page
        last = (offset + nbytes - 1) // page
        old_pages = len(inode.blocks)
        fs.grow_to_size(inode, offset + nbytes)
        fs.rewrite_pages(inode, first, min(last, old_pages - 1))
        victims: List[PageEntry] = []
        for index in range(first, last + 1):
            key = FileKey(fs.fs_id, inode.ino, index)
            covers_whole = offset <= index * page and (index + 1) * page <= offset + nbytes
            needs_rmw = (
                not covers_whole
                and index < old_pages
                and not self.mm.file_cached(key)
            )
            if needs_rmw:
                t, _ = self.read_file_pages(fs, disk, inode, [index], t)
            victims.extend(self.mm.touch_file(key, dirty=True))
        return self.dispose_victims(victims, t)

    # ------------------------------------------------------------------
    # Eviction I/O and writeback
    # ------------------------------------------------------------------
    def dispose_victims(self, victims: List[PageEntry], t: int) -> int:
        """Perform the page daemon's writebacks; returns the new time.

        Anonymous victims already have swap slots assigned; contiguous
        slots become one clustered swap write.  Dirty file/meta pages are
        written back to their home blocks, clustered where contiguous.
        """
        if not victims:
            return t
        swap_slots: List[int] = []
        file_writes: Dict[int, List[int]] = {}
        for entry in victims:
            key = entry.key
            if isinstance(key, AnonKey):
                slot = self.mm.swap.slot_of(key)
                if slot is not None:
                    swap_slots.append(slot)
            elif isinstance(key, FileKey) and entry.dirty:
                fs = self._fs_by_id.get(key.fs_id)
                if fs is None:
                    continue
                inode = fs.inodes.get(key.ino)
                if inode is None or key.index >= len(inode.blocks):
                    continue
                file_writes.setdefault(key.fs_id, []).append(inode.blocks[key.index])
            elif isinstance(key, MetaKey) and entry.dirty:
                file_writes.setdefault(key.fs_id, []).append(key.block)
        t = self.write_block_runs(self.swap_disk, swap_slots, t)
        for fs_id, blocks in file_writes.items():
            t = self.write_block_runs(self._disk_of_fs[fs_id], blocks, t)
        return t

    def write_block_runs(self, disk: Disk, blocks: List[int], t: int) -> int:
        """Write ``blocks`` back as clustered runs; returns the new time.

        Sorts the list in place exactly once per flush (building fresh
        ``sorted()`` copies at every call site showed up in the
        writeback/swap profiles).
        """
        if not blocks:
            return t
        page = self.config.page_size
        if self.numpy_paths and len(blocks) >= _NUMPY_RUNS_MIN:
            # Same runs, one vectorized sort/dedup/split, one batched
            # disk call servicing the whole storm.
            return disk.access_runs(runs_array(blocks), t, page, write=True)
        blocks.sort()
        for start, length in runs(blocks):
            _s, t = disk.access(start, length, t, page, write=True)
        return t

    def throttle_dirty(self, t: int) -> int:
        """bdflush-style write throttling (charged to the writer).

        When dirty file pages exceed their share of memory, flush the
        oldest down to the target and demote them so streaming writers
        recycle their own pages instead of evicting read caches.
        """
        cfg = self.config
        mm = self.mm
        capacity = mm.file_capacity_pages
        limit = int(capacity * cfg.dirty_limit_frac)
        if mm.dirty_file_pages <= limit:
            return t
        target = int(capacity * cfg.dirty_flush_target_frac)
        writes: Dict[int, List[int]] = {}
        for key in mm.flush_oldest_dirty(mm.dirty_file_pages - target):
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
