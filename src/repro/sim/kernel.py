"""The simulated kernel: subsystem assembly and the scheduler loop.

Executes syscalls on behalf of generator-coroutine processes, charging
each one simulated time assembled from the machine model.  The actual
machinery lives in layered subsystems (see ``ARCHITECTURE.md``):

* :class:`~repro.sim.dispatch.SyscallTable` — name → handler registry;
  each subsystem registers its own handlers;
* :class:`~repro.sim.fs.namei.NameLayer` — path walking, metadata I/O,
  and the namespace syscalls;
* :class:`~repro.sim.fileio.FileIO` — descriptor syscalls and the
  open-file registry;
* :class:`~repro.sim.pagecache.PageCacheManager` — data-page movement
  between memory and disk (clustered fills, writebacks, throttling);
* :class:`~repro.sim.vm.faults.VMLayer` — anonymous-memory syscalls and
  fault servicing;
* :class:`~repro.sim.proc.syscalls.ProcLayer` — process creation,
  process-control syscalls, pipes, and the time/CPU syscalls
  (``gettime`` / ``compute`` / ``sleep``).

What remains here is what genuinely spans subsystems: construction and
wiring, the scheduler loop (``run`` / ``_step`` / ``_execute``) and exit
cleanup.  ``spawn`` and ``spawn_with_pipe_ends`` delegate to the process
layer.

Lifetime rule: nothing a ``Kernel`` owns refers back to it or to its
:class:`~repro.obs.Observability`.  Subsystems are handed the parts
they use (clock, scheduler, obs, shared dicts), never a bound method of
the kernel, so a finished machine — page pools, file systems, obs ring —
is freed by reference counting the moment its driver drops it, without
waiting for a cyclic-GC pass.  :attr:`Kernel.oracle` is therefore built
on each access rather than stored.

Processes see *only* :class:`~repro.sim.syscalls.SyscallResult` values.
Tests and the experiment harness use :class:`Oracle` for ground truth.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.obs import Observability
from repro.sim.cache.base import AnonKey, FileKey
from repro.sim.clock import Clock
from repro.sim.config import MachineConfig, PlatformSpec, linux22
from repro.sim.disk import Disk
from repro.sim.dispatch import BLOCK, SyscallTable
from repro.sim.errors import InvalidArgument, SimOSError
from repro.sim.fileio import FileIO
from repro.sim.fs.dcache import NameCache
from repro.sim.fs.ffs import FFS, ROOT_INO
from repro.sim.fs.inode import Inode
from repro.sim.fs.namei import STAT_PRESERVING_SYSCALLS, NameLayer
from repro.sim.fs.vfs import MountTable, PathName
from repro.sim.pagecache import PageCacheManager
from repro.sim.proc.process import PipeBuffer, Process, ProcessState
from repro.sim.proc.scheduler import Scheduler
from repro.sim.proc.syscalls import ProcLayer
from repro.sim.syscalls import Syscall, SyscallResult
from repro.sim.vm.faults import VMLayer
from repro.sim.vm.physmem import MemoryManager

__all__ = ["Kernel", "Oracle", "BLOCK", "CG_BYTES_DEFAULT"]

# Default cylinder-group footprint: 16 MiB of data blocks per group
# ("a few consecutive cylinders" at 2001 densities), independent of the
# configured page size.
CG_BYTES_DEFAULT = 16 * 1024 * 1024


class Kernel:
    """One simulated machine plus its operating system."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        platform: PlatformSpec = linux22,
        *,
        fs_class: type = FFS,
        obs: Optional[Observability] = None,
        event_capacity: Optional[int] = None,
        name_cache: bool = True,
        batch_paths: bool = True,
    ) -> None:
        self.config = config or MachineConfig()
        self.platform = platform
        self.clock = Clock()
        cfg = self.config
        # Always-on observability stamped with this machine's simulated
        # clock; per-syscall instruments are push-style, everything else
        # (disk/daemon/scheduler stats) is pulled at collect() time.
        # Pass a disabled instance to opt out (the overhead benchmark's
        # baseline); stats sources are never registered on a disabled
        # registry so the shared DISABLED instance stays empty.
        # ``event_capacity`` sizes the event ring (multi-tenant arena
        # runs scale it with N so early ``kernel.spawn`` events — which
        # the JSONL validator's pid check needs — survive the run).
        if obs is not None:
            self.obs = obs
        elif event_capacity is not None:
            self.obs = Observability(self.clock, event_capacity=event_capacity)
        else:
            self.obs = Observability(self.clock)

        self.data_disk_list = [Disk(cfg.disk, disk_id=i) for i in range(cfg.data_disks)]
        self.swap_disk = Disk(cfg.disk, disk_id=cfg.data_disks)
        if self.obs.enabled:
            for disk in self.data_disk_list:
                self.obs.metrics.register_stats(f"disk.{disk.disk_id}", disk.stats)
            self.obs.metrics.register_stats("disk.swap", self.swap_disk.stats)

        swap_pages = self.swap_disk.capacity_blocks(cfg.page_size)
        self.mm = MemoryManager(
            cfg, platform, swap_capacity_pages=swap_pages, obs=self.obs
        )

        blocks_per_cg = max(CG_BYTES_DEFAULT // cfg.page_size, 64)
        self.mounts = MountTable()
        self._fs_by_id: Dict[int, FFS] = {}
        self._disk_of_fs: Dict[int, Disk] = {}
        for i, disk in enumerate(self.data_disk_list):
            fs = fs_class(
                fs_id=i,
                total_blocks=disk.capacity_blocks(cfg.page_size),
                block_bytes=cfg.page_size,
                blocks_per_cg=blocks_per_cg,
                alloc_gap=platform.ffs_alloc_gap,
            )
            self.mounts.mount(f"mnt{i}", fs, disk.disk_id)
            self._fs_by_id[fs.fs_id] = fs
            self._disk_of_fs[fs.fs_id] = disk

        self.scheduler = Scheduler()
        if self.obs.enabled:
            self.obs.metrics.register_stats("sched", self.scheduler.stats)
        # Real byte content, present only for files written with bytes.
        self.contents: Dict[Tuple[int, int], bytearray] = {}
        # (fs_id, ino) -> live descriptor count, present only while
        # positive: FileIO keeps it, unlink in the name layer reads it.
        open_counts: Dict[Tuple[int, int], int] = {}

        # --- subsystem assembly (order follows the data dependencies) --
        self.page_cache = PageCacheManager(
            cfg, self.mm, self.swap_disk, self._fs_by_id, self._disk_of_fs
        )
        # ``name_cache=False`` builds an identical machine without walk
        # memoization — the twin the dcache differential tests compare
        # against (simulated behaviour must be bit-identical either way).
        self.vfs = NameLayer(
            cfg,
            self.clock,
            self.mm,
            self.page_cache,
            self.mounts,
            self._disk_of_fs,
            self.contents,
            open_counts,
            name_cache=NameCache() if name_cache else None,
        )
        self.procs = ProcLayer(cfg, self.clock, self.scheduler, self.obs)
        self.fileio = FileIO(
            cfg, self.clock, self.mm, self.vfs, self.page_cache, self.procs,
            self.contents, open_counts,
        )
        self.vm = VMLayer(cfg, self.clock, self.mm, self.swap_disk, self.page_cache)
        # ``batch_paths=False`` builds the scalar compatibility kernel:
        # every batch tier stands down and the plain per-probe and
        # per-page paths run instead.  The differential fuzzer runs twin
        # kernels in both modes and requires bit-identical traces, obs
        # records, and schedules (simulated behaviour must not depend on
        # the mode).
        self.vm.batch_paths = batch_paths
        self.fileio.batch_paths = batch_paths
        self.page_cache.batch_paths = batch_paths

        self.syscalls = SyscallTable()
        self.vfs.register_syscalls(self.syscalls)
        self.fileio.register_syscalls(self.syscalls)
        self.vm.register_syscalls(self.syscalls)
        self.procs.register_syscalls(self.syscalls)
        # The dispatch loop does one dict get per syscall; bind the
        # table's live mapping once.
        self._handlers: Dict[str, Callable] = self.syscalls.mapping()
        # pid -> first-attempt clock of a blocked call (syscall records).
        self._first_attempt_ns: Dict[int, int] = {}

    @property
    def oracle(self) -> "Oracle":
        """Ground truth for tests and the harness (a fresh view per access)."""
        return Oracle(self)

    # ==================================================================
    # Process lifecycle and the scheduler loop
    # ==================================================================
    def spawn(self, gen: Generator, name: str = "") -> Process:
        return self.procs.spawn(gen, name)

    def spawn_with_pipe_ends(
        self,
        gen_factory: Callable[..., Generator],
        ends: List[Tuple[PipeBuffer, str]],
        name: str = "",
    ) -> Process:
        """Spawn a process holding descriptors on pre-made pipes.

        See :meth:`~repro.sim.proc.syscalls.ProcLayer.spawn_with_pipe_ends`.
        """
        return self.procs.spawn_with_pipe_ends(gen_factory, ends, name)

    def make_pipe(self) -> PipeBuffer:
        """Create an unattached pipe for host-side pipeline wiring."""
        return self.procs.make_pipe()

    def share_pipe_end(self, process: Process, pipe: PipeBuffer, kind: str) -> int:
        """Give ``process`` a new descriptor on an existing pipe end."""
        return self.procs.share_pipe_end(process, pipe, kind)

    def run(self, max_steps: Optional[int] = None) -> None:
        """Run until every process finishes (or ``max_steps`` syscalls)."""
        self.run_until_blocked(max_steps)
        blocked = self.scheduler.blocked()
        if blocked:
            names = ", ".join(p.name for p in blocked)
            raise RuntimeError(f"deadlock: blocked processes remain: {names}")

    def run_until_blocked(self, max_steps: Optional[int] = None) -> int:
        """Dispatch until no process is READY; returns syscalls executed.

        The one dispatch loop, also the arena's slice primitive
        (:mod:`repro.sim.arena`): between grants every client is BLOCKED
        on ``arena_park``, so blocked processes left over are for the
        caller to judge — :meth:`run` calls them a deadlock.  Bound
        methods are hoisted: these are the simulator's hottest lines.
        """
        next_ready = self.scheduler.next_ready
        advance_to = self.clock.advance_to
        step = self._step
        steps = 0
        try:
            while True:
                process = next_ready()
                if process is None:
                    return steps
                advance_to(process.ready_at)
                step(process)
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    raise RuntimeError(f"exceeded max_steps={max_steps}")
        finally:
            # Attribution ends with the dispatch loop: host-side records
            # emitted after it must not inherit the last pid.
            self.obs.set_pid(None)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn one process, run the machine to idle, return its result."""
        process = self.spawn(gen, name)
        self.run()
        return process.result

    def _step(self, process: Process) -> None:
        # Attribute everything this dispatch records — kernel events from
        # handlers *and* ICL spans opened in the generator body below —
        # to the process being stepped.  Host-side metadata only.  The
        # guard skips the two attribute writes on consecutive dispatches
        # of the same process — the overwhelmingly common schedule.
        obs = self.obs
        if obs.current_pid != process.pid:
            obs.set_pid(process.pid)
        retry = process.retry_syscall  # always present: Process is slotted
        if retry is not None:
            self._execute(process, retry)
            return
        try:
            if process.pending_exception is not None:
                exc = process.pending_exception
                process.pending_exception = None
                item = process.gen.throw(exc)
            else:
                # ``pending_value`` is None before the first step, and
                # ``send(None)`` is how a generator starts.
                item = process.gen.send(process.pending_value)
        except StopIteration as stop:
            self._exit_process(process, stop.value)
            return
        if not isinstance(item, Syscall):
            raise TypeError(
                f"{process.name} yielded {item!r}; processes must yield Syscall objects"
            )
        self._execute(process, item)

    def _execute(self, process: Process, syscall: Syscall) -> None:
        handler = self._handlers.get(syscall.name)
        if handler is None:
            raise InvalidArgument(f"unknown syscall {syscall.name!r}")
        if syscall.name not in STAT_PRESERVING_SYSCALLS:
            # Before dispatch, not after: a handler that errors out
            # midway may still have mutated inode fields.
            self.vfs.stat_epoch += 1
        obs = self.obs
        start = self.clock.now
        process.stats.syscalls += 1
        try:
            outcome = handler(process, *syscall.args)
        except SimOSError as err:
            # Deliver the failure into the process after the base overhead.
            obs.record_syscall_error(syscall.name)
            overhead = self.config.syscall_overhead_ns
            if obs.syscall_records:
                self._record_syscall(process, syscall, start, overhead, error=err.errno_name)
            process.pending_exception = err
            process.retry_syscall = None
            self.scheduler.make_ready(process, start + overhead)
            return
        if outcome is BLOCK:
            if obs.syscall_records:  # one record per call, not per attempt
                self._first_attempt_ns.setdefault(process.pid, start)
            process.retry_syscall = syscall
            self.scheduler.block(process)
            return
        value, duration = outcome
        obs.record_syscall(syscall.name, duration)
        if obs.syscall_records:
            self._record_syscall(process, syscall, start, duration)
        finish = start + duration
        process.pending_value = SyscallResult(value, finish - start, start, finish)
        process.retry_syscall = None
        self.scheduler.make_ready(process, finish)

    def _record_syscall(self, process: Process, syscall: Syscall, start: int,
                        elapsed: int, **error: str) -> None:
        """Emit the opt-in ``kernel.syscall`` record of one finished call."""
        self.obs.event(
            "kernel.syscall", syscall=syscall.name, args=syscall.args,
            start_ns=self._first_attempt_ns.pop(process.pid, start),
            elapsed_ns=elapsed, **error,
        )

    def _exit_process(self, process: Process, result: Any) -> None:
        process.result = result
        self.obs.event("kernel.exit", pid=process.pid, comm=process.name)
        self.scheduler.finish(process)
        for fd in list(process.fd_table):
            self.fileio.release_fd(process, process.fd_table.pop(fd))
        keys = [AnonKey(process.pid, page) for page in process.address_space.touched]
        self.mm.release_process(process.pid, keys)
        for waiter_pid in process.waiters:
            waiter = self.scheduler.processes.get(waiter_pid)
            if waiter is not None and waiter.state is ProcessState.BLOCKED:
                self.scheduler.make_ready(waiter, self.clock.now)
        process.waiters.clear()


class Oracle:
    """Ground-truth inspection for tests and the experiment harness.

    Nothing in :mod:`repro.icl`, :mod:`repro.toolbox`, or
    :mod:`repro.apps` may import this — the whole point of the paper is
    that the ICLs work without it.
    """

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel

    # --- filesystem ground truth --------------------------------------
    def _inode_at(self, path: str) -> Tuple[FFS, Inode]:
        parsed = PathName.parse(path)
        fs, _disk_id = self._kernel.mounts.filesystem(parsed.mount)
        ino = ROOT_INO
        for component in parsed.components:
            ino = fs.get_directory(ino).lookup(component)
        return fs, fs.get_inode(ino)

    def inode_of(self, path: str) -> Inode:
        return self._inode_at(path)[1]

    def file_blocks(self, path: str) -> List[int]:
        """The file's true on-disk block addresses, in page order."""
        return list(self._inode_at(path)[1].blocks)

    def cached_file_pages(self, path: str) -> Set[int]:
        """Which page indexes of the file are currently cached."""
        fs, inode = self._inode_at(path)
        mm = self._kernel.mm
        return {
            index
            for index in range(len(inode.blocks))
            if mm.file_cached(FileKey(fs.fs_id, inode.ino, index))
        }

    def cached_fraction(self, path: str) -> float:
        fs, inode = self._inode_at(path)
        total = inode.npages(self._kernel.config.page_size)
        if total == 0:
            return 0.0
        return len(self.cached_file_pages(path)) / total

    # --- memory ground truth -------------------------------------------
    def resident_anon_pages(self, pid: int) -> int:
        return self._kernel.mm.resident_anon_pages(pid)

    def resident_anon_bytes(self, pid: int) -> int:
        return self.resident_anon_pages(pid) * self._kernel.config.page_size

    def file_pool_used_pages(self) -> int:
        return self._kernel.mm.file_pool_used()

    def daemon_stats(self):
        return self._kernel.mm.daemon_stats

    def cache_stats(self):
        """Policy-level hit/miss/eviction accounting (file/unified pool)."""
        return self._kernel.mm.file_pool_stats()

    def swap_used_slots(self) -> int:
        return self._kernel.mm.swap.used_slots

    # --- experiment control ---------------------------------------------
    def flush_file_cache(self) -> int:
        """Drop every file/metadata page (dirty pages are discarded).

        Models the paper's between-run "flush the file cache" step; it is
        experiment setup, not something an ICL may call.
        """
        mm = self._kernel.mm
        doomed = list(mm.file_keys())
        for key in doomed:
            mm.drop_file_page(key)
        return len(doomed)

    def advance_time(self, ns: int) -> None:
        """Idle the machine forward (e.g. to cross an inode-time second)."""
        self._kernel.clock.advance(ns)

    def disk_stats(self, disk_index: int = 0):
        return self._kernel.data_disk_list[disk_index].stats

    def swap_disk_stats(self):
        return self._kernel.swap_disk.stats
