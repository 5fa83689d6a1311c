"""The VFS/name layer: path walking, metadata I/O, namespace syscalls.

Everything that turns a *path* into an inode lives here: component-by-
component directory walks that charge simulated time for every inode
table block and directory data page read through the cache, plus the
namespace syscalls (``stat``/``stat_batch``/``mkdir``/``rmdir``/
``unlink``/``rename``/``readdir``/``utimes``) built on those walks.

``stat`` and ``stat_batch`` additionally ride the name-lookup cache
(:mod:`repro.sim.fs.dcache`): a memoized, still-current, fully-resident
walk is *replayed* — the exact touch sequence, the exact cost — instead
of re-walked, and every namespace mutation expires the memoizations via
a per-filesystem generation bump (``namespace_changed``).

The layer reads and dirties *metadata and directory* pages itself (via
the memory manager and the page-cache manager's eviction machinery) but
never touches file *data* pages — those belong to
:class:`~repro.sim.fileio.FileIO` above and
:class:`~repro.sim.pagecache.PageCacheManager` below.

Time discipline matches the rest of the kernel: methods take simulated
time ``t`` and return the new time; syscall handlers return
``(value, duration)`` pairs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.cache.base import FileKey, MetaKey, PageEntry, PageKey
from repro.sim.clock import Clock
from repro.sim.config import MachineConfig
from repro.sim.disk import Disk
from repro.sim.dispatch import SyscallTable
from repro.sim.errors import InvalidArgument, NotADirectory
from repro.sim.fs.dcache import NameCache, WalkEntry
from repro.sim.fs.directory import DIRENT_BYTES
from repro.sim.fs.ffs import FFS, ROOT_INO
from repro.sim.fs.inode import FileKind, Inode, StatResult
from repro.sim.fs.vfs import MountTable, PathName
from repro.sim.pagecache import PageCacheManager
from repro.sim.proc.process import Process
from repro.sim.syscalls import ProbeStat
from repro.sim.vm.physmem import MemoryManager

#: Syscalls audited to leave every stat-visible inode field (size,
#: nlink, atime/mtime/ctime) untouched.  The kernel bumps
#: :attr:`NameLayer.stat_epoch` before dispatching anything else, so an
#: unlisted (or future) syscall can only ever *invalidate* memoized
#: StatResults, never let a stale one escape.
#: ``arena_park`` is the arena's zero-duration step-boundary gate
#: (:mod:`repro.sim.arena`) — pure scheduling, no inode ever touched —
#: listed so parking between probe batches can't defeat memoization.
STAT_PRESERVING_SYSCALLS = frozenset(
    {"stat", "stat_batch", "gettime", "sleep", "arena_park"}
)


class NameLayer:
    """Path resolution and namespace operations over mounted filesystems.

    ``open_counts`` is the open-file registry the file-I/O layer above
    keeps (``(fs_id, ino)`` → live descriptor count, a key present only
    while positive): ``unlink`` consults it so a file with live
    descriptors cannot be removed.
    """

    def __init__(
        self,
        config: MachineConfig,
        clock: Clock,
        mm: MemoryManager,
        page_cache: PageCacheManager,
        mounts: MountTable,
        disk_of_fs: Mapping[int, Disk],
        contents: Dict[Tuple[int, int], bytearray],
        open_counts: Mapping[Tuple[int, int], int],
        name_cache: Optional[NameCache] = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.mm = mm
        self.page_cache = page_cache
        self.mounts = mounts
        self._disk_of_fs = disk_of_fs
        self._contents = contents
        self._open_counts = open_counts
        #: Optional fault injector (repro.sim.inject.FaultInjector); when
        #: set, per-stat elapsed times pass through ``probe_elapsed`` so
        #: ``stat``, ``stat_batch``, and ``utimes`` observe one noise
        #: stream.
        self.inject: Optional[Any] = None
        #: Optional name-lookup cache (see :mod:`repro.sim.fs.dcache`).
        #: ``None`` disables memoization entirely; simulated behaviour
        #: is bit-identical either way — only host speed differs.
        self.dcache = name_cache
        #: Bumped by the kernel before dispatching any syscall not in
        #: :data:`STAT_PRESERVING_SYSCALLS`.  While unchanged, no inode
        #: field visible through ``stat`` can have moved, so a memoized
        #: walk's constructed :class:`StatResult` can be returned
        #: as-is (it is an immutable tuple).  Conservative by design:
        #: a syscall that *might* mutate always bumps.
        self.stat_epoch: int = 0

    def register_syscalls(self, table: SyscallTable) -> None:
        table.register("stat", self.sys_stat)
        table.register("stat_batch", self.sys_stat_batch)
        table.register("mkdir", self.sys_mkdir)
        table.register("rmdir", self.sys_rmdir)
        table.register("unlink", self.sys_unlink)
        table.register("rename", self.sys_rename)
        table.register("readdir", self.sys_readdir)
        table.register("utimes", self.sys_utimes)

    # ==================================================================
    # Path resolution and metadata I/O
    # ==================================================================
    def fs_for(self, parsed: PathName) -> Tuple[FFS, Disk]:
        fs, _disk_id = self.mounts.filesystem(parsed.mount)
        return fs, self._disk_of_fs[fs.fs_id]

    def meta_read(self, fs: FFS, disk: Disk, block: int, t: int) -> int:
        """Read one metadata block through the cache; returns new time."""
        key = MetaKey(fs.fs_id, block)
        if self.mm.touch_file_cached(key):
            return t + self.config.page_copy_ns(128)
        _start, end = disk.access(block, 1, t, self.config.page_size)
        victims = self.mm.touch_file(key)
        return self.page_cache.dispose_victims(victims, end)

    def read_inode(self, fs: FFS, disk: Disk, ino: int, t: int) -> int:
        return self.meta_read(fs, disk, fs.inode_table_block(ino), t)

    def read_dir_pages(self, fs: FFS, disk: Disk, dir_ino: int, t: int) -> int:
        inode = fs.get_inode(dir_ino)
        npages = max(inode.npages(self.config.page_size), 1)
        t, _hits = self.page_cache.read_file_pages(
            fs, disk, inode, range(min(npages, len(inode.blocks))), t
        )
        return t

    def resolve(self, process: Process, path: str, t: int) -> Tuple[FFS, Disk, Inode, int]:
        """Walk ``path``; returns (fs, disk, inode, new_time)."""
        parsed = PathName.parse(path)
        fs, disk = self.fs_for(parsed)
        ino = ROOT_INO
        t = self.read_inode(fs, disk, ino, t)
        for component in parsed.components:
            inode = fs.get_inode(ino)
            if not inode.is_dir:
                raise NotADirectory(f"{component!r} reached via a non-directory")
            t = self.read_dir_pages(fs, disk, ino, t)
            ino = fs.get_directory(ino).lookup(component)
            t = self.read_inode(fs, disk, ino, t)
        return fs, disk, fs.get_inode(ino), t

    def resolve_parent(
        self, process: Process, path: str, t: int
    ) -> Tuple[FFS, Disk, Inode, str, int]:
        parsed = PathName.parse(path)
        fs, disk, parent, t = self.resolve(process, str(parsed.dirname), t)
        if not parent.is_dir:
            raise NotADirectory(f"parent of {path!r} is not a directory")
        return fs, disk, parent, parsed.basename, t

    # ==================================================================
    # Name cache: memoizing walk, replay fast path, invalidation
    # ==================================================================
    def resolve_memo(
        self, process: Process, path: str, t: int
    ) -> Tuple[FFS, Disk, Inode, int]:
        """``resolve`` that also memoizes the walk into the name cache.

        Time and cache effects come from the very same ``meta_read`` /
        ``read_dir_pages`` calls the plain walk makes; the extra work is
        host-side only: the ordered touch-key sequence is recorded, and
        the fully-resident replay cost — one inode copy per inode-table
        read, zero for resident directory data pages — is computed
        analytically so the fast path can charge it without walking.
        """
        cache = self.dcache
        if cache is None:
            return self.resolve(process, path, t)
        parsed = PathName.parse(path)
        fs, disk = self.fs_for(parsed)
        fs_id = fs.fs_id
        page_size = self.config.page_size
        keys: List[PageKey] = []
        ino = ROOT_INO
        block = fs.inode_table_block(ino)
        keys.append(MetaKey(fs_id, block))
        t = self.meta_read(fs, disk, block, t)
        meta_reads = 1
        for component in parsed.components:
            inode = fs.get_inode(ino)
            if not inode.is_dir:
                raise NotADirectory(f"{component!r} reached via a non-directory")
            npages = max(inode.npages(page_size), 1)
            for index in range(min(npages, len(inode.blocks))):
                keys.append(FileKey(fs_id, ino, index))
            t = self.read_dir_pages(fs, disk, ino, t)
            ino = fs.get_directory(ino).lookup(component)
            block = fs.inode_table_block(ino)
            keys.append(MetaKey(fs_id, block))
            t = self.meta_read(fs, disk, block, t)
            meta_reads += 1
        inode = fs.get_inode(ino)
        cost = meta_reads * self.config.page_copy_ns(128)
        cache.store(
            path, fs, disk, inode, tuple(keys), cost,
            self.config.syscall_overhead_ns + cost,
        )
        return fs, disk, inode, t

    def walk_fast(self, path: str) -> Optional[WalkEntry]:
        """Replay a memoized walk if current and fully resident.

        Returns the entry after touching its whole key sequence (the
        exact hit-path ``touch_file`` effects, batched), or None — with
        *no* cache mutation — when the path is unmemoized, its
        generation expired, or any key is non-resident; the caller then
        takes the slow walk.

        Residency is verified, one lookup per key, only when the memory
        manager's file-eviction epoch moved since this entry last
        verified; while the epoch is unchanged nothing has left the
        pool, so the cells found then are still the pages' cells.
        """
        cache = self.dcache
        if cache is None:
            return None
        entry = cache.lookup(path)
        if entry is None:
            return None
        mm = self.mm
        if entry.epoch != mm.file_epoch:
            cells = mm.file_cells_of(entry.keys)
            if cells is None:
                return None
            entry.cells = cells
            entry.epoch = mm.file_epoch
        mm.reference_file_cells(entry.cells)
        return entry

    def namespace_changed(self, fs: FFS) -> None:
        """Expire memoized walks after any namespace mutation on ``fs``.

        Called by every handler that creates, removes, or moves a
        directory entry (``create``/``mkdir``/``rmdir``/``unlink``/
        ``rename``) — the only operations that can change a walk's
        outcome, its touch-key sequence (directories grow only via
        entry insertion), or its cost.
        """
        if self.dcache is not None:
            self.dcache.invalidate(fs.fs_id)

    # ==================================================================
    # Metadata dirtying and inode-cache drop paths
    # ==================================================================
    def dirty_meta(self, fs: FFS, ino: int, t: int) -> int:
        key = MetaKey(fs.fs_id, fs.inode_table_block(ino))
        victims = self.mm.touch_file(key, dirty=True)
        return self.page_cache.dispose_victims(victims, t)

    def dirty_dir_data(self, fs: FFS, dir_ino: int, t: int) -> int:
        """Writing a directory entry leaves the directory's data cached."""
        inode = fs.get_inode(dir_ino)
        victims: List[PageEntry] = []
        for index in range(len(inode.blocks)):
            victims.extend(
                self.mm.touch_file(FileKey(fs.fs_id, dir_ino, index), dirty=True)
            )
        return self.page_cache.dispose_victims(victims, t)

    def drop_cached_inode(self, fs: FFS, dead: Inode) -> None:
        npages = max(len(dead.blocks), dead.npages(self.config.page_size))
        for index in range(npages):
            self.mm.drop_file_page(FileKey(fs.fs_id, dead.ino, index))

    def drop_file_cache(self, fs: FFS, inode: Inode) -> None:
        for index in range(len(inode.blocks)):
            self.mm.drop_file_page(FileKey(fs.fs_id, inode.ino, index))

    # ==================================================================
    # Namespace syscall handlers
    # ==================================================================
    def sys_stat(self, process: Process, path: str):
        entry = self.walk_fast(path)
        if entry is not None:
            duration = entry.fast_elapsed_ns
            if self.inject is not None:
                duration = self.inject.probe_elapsed("stat", duration)
            sepoch = self.stat_epoch
            if entry.stat_epoch == sepoch:
                return entry.stat_cached, duration
            stat = StatResult.from_inode(entry.inode)
            entry.stat_cached = stat
            entry.stat_epoch = sepoch
            return stat, duration
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode, t = self.resolve_memo(process, path, t)
        duration = t - t0
        if self.inject is not None:
            duration = self.inject.probe_elapsed("stat", duration)
        return StatResult.from_inode(inode), duration

    def sys_stat_batch(self, process: Process, paths):
        """Vectored stat: resolve every path in one dispatch.

        Resolution warms the metadata cache cumulatively, exactly as a
        sequence of ``stat`` calls would, and each entry carries that
        call's simulated elapsed time.  A missing path fails the whole
        batch (the completed walks' cache effects remain, as with any
        partially-failed vectored call).

        Each path first tries the name-cache replay — bit-identical in
        time, hit accounting, and recency effects to the slow walk it
        skips, so the noise stream and the golden traces cannot tell
        the two apart — and falls back to the memoizing walk otherwise.
        Without a name cache no path is found, so every path takes
        ``resolve_memo``, which then is ``resolve``.
        """
        t0 = self.clock.now
        t = t0
        results: List[ProbeStat] = []
        append = results.append
        inject = self.inject
        overhead = self.config.syscall_overhead_ns
        cache = self.dcache
        # The fast loop is ``walk_fast`` and ``NameCache.lookup``
        # unrolled with everything bound locally: at full batch
        # throughput the per-probe budget is about a microsecond, so
        # each probe does one entry lookup, one generation compare, one
        # epoch compare, a cell re-reference, and result construction.
        # The local ``epoch`` mirror is refreshed after every slow walk
        # — the only point inside the loop where pages can leave the
        # file pool — and the name-cache counters are flushed on the way
        # out (no namespace mutation can interleave with a running batch).
        mm = self.mm
        cells_of = mm.file_cells_of
        reference = mm.reference_file_cells
        entries, entries_get, gen_get = (
            cache.hot_view() if cache is not None else ({}, {}.get, None)
        )
        probe_stat = ProbeStat
        epoch = mm.file_epoch
        # ``stat_batch`` is itself stat-preserving, so the stat epoch
        # cannot move while this loop runs.
        sepoch = self.stat_epoch
        hits = stale = 0
        for path in paths:
            entry = entries_get(path)
            if entry is not None:
                if entry.generation != gen_get(entry.fs_id, 0):
                    del entries[path]
                    stale += 1
                    entry = None
                else:
                    hits += 1
                    if entry.epoch != epoch:
                        cells = cells_of(entry.keys)
                        if cells is None:
                            entry = None
                        else:
                            entry.cells = cells
                            entry.epoch = epoch
            if entry is not None:
                reference(entry.cells)
                elapsed = entry.fast_elapsed_ns
                if inject is not None:
                    elapsed = inject.probe_elapsed("stat", elapsed)
                if entry.stat_epoch == sepoch:
                    stat = entry.stat_cached
                else:
                    stat = StatResult.from_inode(entry.inode)
                    entry.stat_cached = stat
                    entry.stat_epoch = sepoch
                append(probe_stat(stat, elapsed))
                t += elapsed
                continue
            start = t
            t += overhead
            fs, disk, inode, t = self.resolve_memo(process, path, t)
            epoch = mm.file_epoch
            elapsed = t - start
            if inject is not None:
                elapsed = inject.probe_elapsed("stat", elapsed)
                t = start + elapsed
            append(ProbeStat(StatResult.from_inode(inode), elapsed))
        if cache is not None:
            cache.hits += hits
            cache.misses += len(paths) - hits
            cache.stale += stale
        return results, t - t0

    def sys_mkdir(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, parent, name, t = self.resolve_parent(process, path, t)
        inode = fs.create(parent.ino, name, FileKind.DIRECTORY, self.clock.now)
        self.namespace_changed(fs)
        t = self.dirty_meta(fs, inode.ino, t)
        t = self.dirty_meta(fs, parent.ino, t)
        t = self.dirty_dir_data(fs, parent.ino, t)
        t = self.dirty_dir_data(fs, inode.ino, t)
        return None, t - t0

    def sys_rmdir(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, parent, name, t = self.resolve_parent(process, path, t)
        dead, _freed = fs.rmdir(parent.ino, name, self.clock.now)
        self.namespace_changed(fs)
        self.drop_cached_inode(fs, dead)
        t = self.dirty_meta(fs, parent.ino, t)
        t = self.dirty_dir_data(fs, parent.ino, t)
        return None, t - t0

    def sys_unlink(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, parent, name, t = self.resolve_parent(process, path, t)
        ino = fs.get_directory(parent.ino).lookup(name)
        if (fs.fs_id, ino) in self._open_counts:
            raise InvalidArgument(f"{path!r} is still open; close it before unlink")
        dead, _freed = fs.unlink(parent.ino, name, self.clock.now)
        self.namespace_changed(fs)
        self.drop_cached_inode(fs, dead)
        self._contents.pop((fs.fs_id, dead.ino), None)
        t = self.dirty_meta(fs, parent.ino, t)
        t = self.dirty_dir_data(fs, parent.ino, t)
        return None, t - t0

    def sys_rename(self, process: Process, old: str, new: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        old_parsed = PathName.parse(old)
        new_parsed = PathName.parse(new)
        if old_parsed.mount != new_parsed.mount:
            raise InvalidArgument("rename cannot cross filesystems")
        fs, disk, old_parent, old_name, t = self.resolve_parent(process, old, t)
        _fs, _disk, new_parent, new_name, t = self.resolve_parent(process, new, t)
        fs.rename(old_parent.ino, old_name, new_parent.ino, new_name, self.clock.now)
        self.namespace_changed(fs)
        t = self.dirty_meta(fs, old_parent.ino, t)
        t = self.dirty_meta(fs, new_parent.ino, t)
        t = self.dirty_dir_data(fs, old_parent.ino, t)
        t = self.dirty_dir_data(fs, new_parent.ino, t)
        return None, t - t0

    def sys_readdir(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode, t = self.resolve(process, path, t)
        if not inode.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        t = self.read_dir_pages(fs, disk, inode.ino, t)
        names = fs.get_directory(inode.ino).names()
        t += self.config.page_copy_ns(len(names) * DIRENT_BYTES)
        return names, t - t0

    def sys_utimes(self, process: Process, path: str, atime_s: int, mtime_s: int):
        """Set atime/mtime explicitly; ctime moves to *now* (POSIX).

        The ctime stamp is what makes FLDC's refresh observable: the
        refresh restores atime/mtime to the originals, but the change
        time still records when the restore happened.  The duration
        rides the injector's ``stat`` probe stream — utimes is a
        path-walk metadata probe with exactly stat's cost profile.
        """
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode, t = self.resolve(process, path, t)
        inode.atime = atime_s
        inode.mtime = mtime_s
        inode.stamp(self.clock.now, change=True)
        t = self.dirty_meta(fs, inode.ino, t)
        duration = t - t0
        if self.inject is not None:
            duration = self.inject.probe_elapsed("stat", duration)
        return None, duration


__all__ = ["NameLayer"]
