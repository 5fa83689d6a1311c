"""The file-I/O layer: descriptor syscalls over the VFS and page cache.

Everything reachable through a file descriptor lives here — ``open`` /
``create`` / ``close`` / ``read`` / ``write`` / ``pread`` / ``pwrite`` /
``seek`` / ``fsync`` / ``fstat`` plus the vectored ``pread_batch`` fast
path — together with the open-file registry (the count dict it shares
with the name layer keeps ``unlink`` honest) and the optional real-byte
content store behind reads and writes.

Descriptors on pipes are recognized here and delegated to the process
layer (:class:`~repro.sim.proc.syscalls.ProcLayer`), which owns pipe
buffers and blocking; descriptors on files charge simulated time
through :class:`~repro.sim.pagecache.PageCacheManager`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.clock import Clock
from repro.sim.config import MachineConfig
from repro.sim.disk import Disk
from repro.sim.dispatch import SyscallTable
from repro.sim.errors import BadFileDescriptor, InvalidArgument, IsADirectory
from repro.sim.fs.ffs import FFS
from repro.sim.fs.inode import FileKind, Inode, StatResult
from repro.sim.fs.namei import NameLayer
from repro.sim.fs.vfs import PathName
from repro.sim.pagecache import PageCacheManager
from repro.sim.proc.process import OpenFile, Process
from repro.sim.proc.syscalls import ProcLayer
from repro.sim.syscalls import ProbeRead, ReadResult
from repro.sim.vm.physmem import MemoryManager


class FileIO:
    """Descriptor-level file operations and the open-file registry."""

    def __init__(
        self,
        config: MachineConfig,
        clock: Clock,
        mm: MemoryManager,
        vfs: NameLayer,
        page_cache: PageCacheManager,
        procs: ProcLayer,
        contents: Dict[Tuple[int, int], bytearray],
        open_counts: Dict[Tuple[int, int], int],
    ) -> None:
        self.config = config
        self.clock = clock
        self.mm = mm
        self.vfs = vfs
        self.page_cache = page_cache
        self.procs = procs
        self.contents = contents
        #: ``(fs_id, ino)`` → live descriptor count; a key is present
        #: only while its count is positive (the name layer's unlink
        #: reads the same dict).
        self._open_count = open_counts
        #: Optional fault injector (repro.sim.inject.FaultInjector); when
        #: set, per-probe elapsed times pass through ``probe_elapsed`` so
        #: the batched and sequential paths observe one noise stream.
        self.inject: Optional[Any] = None
        #: Gate for the all-cached pread_batch pre-pass;
        #: ``Kernel(batch_paths=False)`` turns it off so the differential
        #: fuzzer can pin it against the per-probe ``pread_at`` loop.
        self.batch_paths: bool = True

    def register_syscalls(self, table: SyscallTable) -> None:
        table.register("open", self.sys_open)
        table.register("create", self.sys_create)
        table.register("close", self.sys_close)
        table.register("read", self.sys_read)
        table.register("pread", self.sys_pread)
        table.register("pread_batch", self.sys_pread_batch)
        table.register("write", self.sys_write)
        table.register("pwrite", self.sys_pwrite)
        table.register("seek", self.sys_seek)
        table.register("fsync", self.sys_fsync)
        table.register("fstat", self.sys_fstat)

    # ------------------------------------------------------------------
    # Open-file registry
    # ------------------------------------------------------------------
    def _track_open(self, fs_id: int, ino: int) -> None:
        self._open_count[(fs_id, ino)] = self._open_count.get((fs_id, ino), 0) + 1

    def release_fd(self, process: Process, entry: OpenFile) -> None:
        """Drop one descriptor's claim (close or process exit)."""
        if entry.kind == "file":
            fs, _ = self.vfs.mounts.filesystem(entry.fs_name)
            key = (fs.fs_id, entry.ino)
            count = self._open_count.get(key, 0) - 1
            if count > 0:
                self._open_count[key] = count
            else:
                self._open_count.pop(key, None)
        elif entry.kind == "pipe_r" and entry.pipe is not None:
            entry.pipe.readers -= 1
            self.procs.wake_all(entry.pipe.waiting_writers)
        elif entry.kind == "pipe_w" and entry.pipe is not None:
            entry.pipe.writers -= 1
            self.procs.wake_all(entry.pipe.waiting_readers)

    def file_of(self, entry: OpenFile) -> Tuple[FFS, Disk, Inode]:
        fs, _disk_id = self.vfs.mounts.filesystem(entry.fs_name)
        inode = fs.get_inode(entry.ino)
        return fs, self.vfs._disk_of_fs[fs.fs_id], inode

    # ------------------------------------------------------------------
    # Open / create / close
    # ------------------------------------------------------------------
    def sys_open(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode, t = self.vfs.resolve(process, path, t)
        if inode.is_dir:
            raise IsADirectory(f"{path!r} is a directory")
        entry = process.new_fd("file", fs_name=PathName.parse(path).mount, ino=inode.ino)
        self._track_open(fs.fs_id, inode.ino)
        return entry.fd, t - t0

    def sys_create(self, process: Process, path: str):
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, parent, name, t = self.vfs.resolve_parent(process, path, t)
        inode = fs.create(parent.ino, name, FileKind.FILE, self.clock.now)
        self.vfs.namespace_changed(fs)
        t = self.vfs.dirty_meta(fs, inode.ino, t)
        t = self.vfs.dirty_meta(fs, parent.ino, t)
        t = self.vfs.dirty_dir_data(fs, parent.ino, t)
        entry = process.new_fd("file", fs_name=PathName.parse(path).mount, ino=inode.ino)
        self._track_open(fs.fs_id, inode.ino)
        return entry.fd, t - t0

    def sys_close(self, process: Process, fd: int):
        entry = process.close_fd(fd)
        self.release_fd(process, entry)
        return None, self.config.syscall_overhead_ns

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def sys_read(self, process: Process, fd: int, nbytes: int):
        entry = process.lookup_fd(fd)
        if entry.kind == "pipe_r":
            return self.procs.pipe_read(process, entry, nbytes)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} is not readable")
        value, duration = self._do_read(process, entry, entry.pos, nbytes)
        entry.pos += value.nbytes
        return value, duration

    def sys_pread(self, process: Process, fd: int, offset: int, nbytes: int):
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support pread")
        value, duration = self._do_read(process, entry, offset, nbytes)
        if self.inject is not None:
            duration = self.inject.probe_elapsed("pread", duration)
        return value, duration

    def _do_read(self, process: Process, entry: OpenFile, offset: int, nbytes: int):
        t0 = self.clock.now
        value, finish = self.pread_at(entry, offset, nbytes, t0)
        return value, finish - t0

    def pread_at(
        self, entry: OpenFile, offset: int, nbytes: int, start: int
    ) -> Tuple[ReadResult, int]:
        """One positional read beginning at simulated time ``start``.

        Returns (ReadResult, finish_time).  Shared by the sequential
        read path (where ``start`` is the clock) and ``pread_batch``
        (where ``start`` is the cumulative batch time), so both charge
        bit-identical simulated time per probe.
        """
        if offset < 0 or nbytes < 0:
            raise InvalidArgument("negative offset or length")
        t = start + self.config.syscall_overhead_ns
        fs, disk, inode = self.file_of(entry)
        effective = min(nbytes, max(inode.size - offset, 0))
        if effective == 0:
            return ReadResult(0), t
        page = self.config.page_size
        first = offset // page
        last = (offset + effective - 1) // page
        t, _hits = self.page_cache.read_file_pages(
            fs, disk, inode, range(first, last + 1), t
        )
        t += self.config.page_copy_ns(effective)
        inode.stamp(start, access=True)
        data = None
        stored = self.contents.get((fs.fs_id, inode.ino))
        if stored is not None:
            data = bytes(stored[offset : offset + effective])
        return ReadResult(effective, data), t

    def sys_pread_batch(self, process: Process, fd: int, probes):
        """Vectored pread: the whole probe list in one dispatch.

        Each probe is charged exactly the simulated time an individual
        ``pread`` would have paid (including per-call overhead), walking
        the same cache and disk state in the same order, so the timing
        channel the ICLs read is bit-for-bit identical to the sequential
        path — only the host-side dispatch cost is amortized.

        Two tiers: the all-resident pre-pass below (on only with
        ``batch_paths``), then :meth:`pread_at` per probe, which is
        what a sequence of ``pread`` calls runs.
        """
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support pread")
        t0 = self.clock.now
        t = t0
        results: List[ProbeRead] = []
        inject = self.inject
        # Batch pre-pass: when every probe is an in-bounds, single-page
        # read of one constant (clipped) length — the ICL shape — and
        # every probed page is resident (one membership test against
        # the file's residency mirror), the whole batch is hits: one
        # batched policy update, then one elapsed value per probe.  The
        # walk stops at the first probe of another shape.  Everything
        # is *decided* before the pool is touched (the residency test
        # references the pages only when it passes, so it goes last),
        # so a failed check falls through to the per-probe loop with
        # nothing mutated; the effects are exactly those of one
        # ``pread_at`` hit per probe.
        if self.batch_paths and inject is None and len(probes) >= 8:
            fs, _disk, inode = self.file_of(entry)
            size = inode.size
            cfg = self.config
            page = cfg.page_size
            offset, nbytes = probes[0]
            length = nbytes if offset + nbytes <= size else size - offset
            pages: List[int] = []
            add_page = pages.append
            for offset, nbytes in probes:
                if (
                    0 <= offset < size
                    and nbytes > 0
                    and (nbytes if offset + nbytes <= size else size - offset) == length
                ):
                    first = offset // page
                    if first == (offset + length - 1) // page:
                        add_page(first)
                        continue
                break
            else:
                if self.mm.touch_file_pages_resident(fs.fs_id, inode.ino, pages):
                    elapsed = cfg.syscall_overhead_ns + cfg.page_copy_ns(length)
                    total = elapsed * len(probes)
                    stored = self.contents.get((fs.fs_id, inode.ino))
                    if stored is None:
                        # Without content, one shared immutable result.
                        results = [ProbeRead(length, elapsed)] * len(probes)
                    else:
                        results = [
                            ProbeRead(length, elapsed, bytes(stored[o : o + length]))
                            for o, _n in probes
                        ]
                    # Every probe is non-empty, so the last probe's
                    # start-time atime stamp survives, as in the
                    # per-probe loop.
                    inode.stamp(t0 + total - elapsed, access=True)
                    return results, total
        append = results.append
        for offset, nbytes in probes:
            value, finish = self.pread_at(entry, offset, nbytes, t)
            elapsed = finish - t
            if inject is not None:
                elapsed = inject.probe_elapsed("pread", elapsed)
            append(ProbeRead(value.nbytes, elapsed, value.data))
            t += elapsed
        return results, t - t0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def sys_write(self, process: Process, fd: int, data):
        entry = process.lookup_fd(fd)
        if entry.kind == "pipe_w":
            return self.procs.pipe_write(process, entry, data)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} is not writable")
        value, duration = self._do_write(process, entry, entry.pos, data)
        entry.pos += value
        return value, duration

    def sys_pwrite(self, process: Process, fd: int, offset: int, data):
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support pwrite")
        return self._do_write(process, entry, offset, data)

    def _do_write(self, process: Process, entry: OpenFile, offset: int, data):
        payload = data if isinstance(data, (bytes, bytearray)) else None
        nbytes = len(payload) if payload is not None else int(data)
        if offset < 0 or nbytes < 0:
            raise InvalidArgument("negative offset or length")
        if nbytes == 0:
            return 0, self.config.syscall_overhead_ns
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode = self.file_of(entry)
        t = self.page_cache.write_file_pages(fs, disk, inode, offset, nbytes, t)
        t += self.config.page_copy_ns(nbytes)
        t = self.vfs.dirty_meta(fs, inode.ino, t)
        t = self.page_cache.throttle_dirty(t)
        inode.stamp(self.clock.now, modify=True, change=True)
        if payload is not None:
            stored = self.contents.setdefault((fs.fs_id, inode.ino), bytearray())
            if len(stored) < offset:
                stored.extend(b"\x00" * (offset - len(stored)))
            stored[offset : offset + nbytes] = payload
        return nbytes, t - t0

    # ------------------------------------------------------------------
    # Position, durability, attributes
    # ------------------------------------------------------------------
    def sys_seek(self, process: Process, fd: int, offset: int):
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support seek")
        if offset < 0:
            raise InvalidArgument("negative seek offset")
        entry.pos = offset
        return offset, self.config.syscall_overhead_ns

    def sys_fsync(self, process: Process, fd: int):
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support fsync")
        t0 = self.clock.now
        t = t0 + self.config.syscall_overhead_ns
        fs, disk, inode = self.file_of(entry)
        blocks = inode.blocks
        dirty_blocks = [
            blocks[index]
            for index in self.mm.clean_file_pages(fs.fs_id, inode.ino, len(blocks))
        ]
        count = len(dirty_blocks)
        t = self.page_cache.write_block_runs(disk, dirty_blocks, t)
        return count, t - t0

    def sys_fstat(self, process: Process, fd: int):
        entry = process.lookup_fd(fd)
        if entry.kind != "file":
            raise BadFileDescriptor(f"fd {fd} does not support fstat")
        fs, disk, inode = self.file_of(entry)
        t = self.config.syscall_overhead_ns
        return StatResult.from_inode(inode), t
