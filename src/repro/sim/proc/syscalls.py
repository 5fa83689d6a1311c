"""The process layer: process creation, process-control syscalls, pipes.

Owns everything that is about *processes talking to the kernel about
processes*: creating them (the pid counter, :meth:`ProcLayer.spawn`,
:meth:`ProcLayer.spawn_with_pipe_ends` and the ``kernel.spawn`` event),
``getpid`` / ``spawn`` / ``waitpid`` / ``pipe``, the pipe buffers
themselves (blocking reads and writes, EPIPE/EOF semantics, waiter
wake-ups), and the host-side pipeline wiring helpers (:meth:`make_pipe`,
:meth:`share_pipe_end`) the kernel exposes.  The time and CPU syscalls
(``gettime`` / ``compute`` / ``sleep``) live here too: they read only
the clock, the configuration and the per-CPU busy times.

The scheduler loop and exit cleanup stay in
:class:`~repro.sim.kernel.Kernel`.  This layer holds the scheduler,
clock and obs it is given and nothing that refers back to the kernel,
so a finished machine is freed by reference counting alone.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Tuple

from repro.obs import Observability
from repro.sim.clock import Clock
from repro.sim.config import MachineConfig
from repro.sim.dispatch import BLOCK, SyscallTable
from repro.sim.errors import BadFileDescriptor, InvalidArgument
from repro.sim.proc.process import OpenFile, PipeBuffer, Process, ProcessState
from repro.sim.proc.scheduler import Scheduler
from repro.sim.syscalls import ReadResult


class ProcLayer:
    """Process creation and control, pipe buffers, and the time syscalls."""

    def __init__(
        self,
        config: MachineConfig,
        clock: Clock,
        scheduler: Scheduler,
        obs: Observability,
    ) -> None:
        self.config = config
        self.clock = clock
        self.scheduler = scheduler
        self.obs = obs
        self._next_pid = 1
        # When each simulated CPU next falls idle (``compute``).
        self._cpu_free_at = [0] * config.cpus

    def register_syscalls(self, table: SyscallTable) -> None:
        table.register("getpid", self.sys_getpid)
        table.register("spawn", self.sys_spawn)
        table.register("waitpid", self.sys_waitpid)
        table.register("pipe", self.sys_pipe)
        table.register("gettime", self.sys_gettime)
        table.register("compute", self.sys_compute)
        table.register("sleep", self.sys_sleep)

    # ------------------------------------------------------------------
    # Process creation
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Create a READY process running ``gen`` at the current time."""
        process = Process(self._next_pid, gen, name)
        self._next_pid += 1
        self._admit(process)
        return process

    def spawn_with_pipe_ends(
        self,
        gen_factory: Callable[..., Generator],
        ends: List[Tuple[PipeBuffer, str]],
        name: str = "",
    ) -> Process:
        """Spawn a process holding descriptors on pre-made pipes.

        The shell's fd-inheritance equivalent: ``ends`` is a list of
        (pipe, "pipe_r"|"pipe_w") pairs; the factory is called with the
        resulting fd numbers, in order, to build the process body.
        """
        process = Process(self._next_pid, iter(()), name)
        self._next_pid += 1
        fds = [self.share_pipe_end(process, pipe, kind) for pipe, kind in ends]
        process.gen = gen_factory(*fds)
        self._admit(process)
        return process

    def _admit(self, process: Process) -> None:
        process.ready_at = self.clock.now
        self.scheduler.add(process)
        # Host-side metadata only (simulated time untouched): the spawn
        # event is what lets exporters and the JSONL validator know the
        # full set of pids a stream may legitimately be attributed to.
        self.obs.event("kernel.spawn", pid=process.pid, comm=process.name)

    # ------------------------------------------------------------------
    # Wake-ups
    # ------------------------------------------------------------------
    def wake_all(self, pids: List[int]) -> None:
        """Ready every still-blocked pid in the list, then clear it."""
        for pid in pids:
            waiter = self.scheduler.processes.get(pid)
            if waiter is not None and waiter.state is ProcessState.BLOCKED:
                self.scheduler.make_ready(waiter, self.clock.now)
        pids.clear()

    # ------------------------------------------------------------------
    # Process-control handlers
    # ------------------------------------------------------------------
    def sys_getpid(self, process: Process):
        return process.pid, self.config.gettime_overhead_ns

    def sys_spawn(self, process: Process, gen: Generator, name: str = ""):
        child = self.spawn(gen, name)
        return child.pid, self.config.syscall_overhead_ns

    def sys_waitpid(self, process: Process, pid: int):
        target = self.scheduler.lookup(pid)
        if target is None:
            raise InvalidArgument(f"no such process {pid}")
        if target.done:
            return target.result, self.config.syscall_overhead_ns
        if process.pid not in target.waiters:
            target.waiters.append(process.pid)
        return BLOCK

    # ------------------------------------------------------------------
    # Time and CPU
    # ------------------------------------------------------------------
    def sys_gettime(self, process: Process):
        overhead = self.config.gettime_overhead_ns
        return self.clock.now + overhead, overhead

    def sys_compute(self, process: Process, ns: int):
        if ns < 0:
            raise InvalidArgument("negative compute time")
        slot = min(range(len(self._cpu_free_at)), key=self._cpu_free_at.__getitem__)
        start = max(self.clock.now, self._cpu_free_at[slot])
        finish = start + ns
        self._cpu_free_at[slot] = finish
        process.stats.cpu_ns += ns
        return None, finish - self.clock.now

    def sys_sleep(self, process: Process, ns: int):
        if ns < 0:
            raise InvalidArgument("negative sleep time")
        return None, ns

    # ------------------------------------------------------------------
    # Pipes
    # ------------------------------------------------------------------
    def make_pipe(self) -> PipeBuffer:
        """Create an unattached pipe for host-side pipeline wiring.

        The shell equivalent: create the pipe, then hand each end to a
        process with :meth:`share_pipe_end` before spawning it.
        """
        pipe = PipeBuffer()
        pipe.readers = 0
        pipe.writers = 0
        return pipe

    def sys_pipe(self, process: Process):
        pipe = PipeBuffer()
        r = process.new_fd("pipe_r", pipe=pipe)
        w = process.new_fd("pipe_w", pipe=pipe)
        return (r.fd, w.fd), self.config.syscall_overhead_ns

    def share_pipe_end(self, process: Process, pipe: PipeBuffer, kind: str) -> int:
        """Give ``process`` a new descriptor on an existing pipe end.

        Used by spawn helpers that wire parent/child pipelines together
        (the counterpart of fd inheritance across fork/exec).
        """
        if kind == "pipe_r":
            pipe.readers += 1
        elif kind == "pipe_w":
            pipe.writers += 1
        else:
            raise InvalidArgument(f"bad pipe end {kind!r}")
        return process.new_fd(kind, pipe=pipe).fd

    def pipe_write(self, process: Process, entry: OpenFile, data):
        pipe = entry.pipe
        nbytes = len(data) if isinstance(data, (bytes, bytearray)) else int(data)
        if nbytes <= 0:
            raise InvalidArgument("pipe write needs a positive length")
        if pipe.read_closed:
            raise BadFileDescriptor("pipe has no readers (EPIPE)")
        if pipe.space == 0:
            if process.pid not in pipe.waiting_writers:
                pipe.waiting_writers.append(process.pid)
            return BLOCK
        take = min(nbytes, pipe.space)
        pipe.buffered += take
        pipe.total_through += take
        self.wake_all(pipe.waiting_readers)
        duration = self.config.syscall_overhead_ns + self.config.page_copy_ns(take)
        return take, duration

    def pipe_read(self, process: Process, entry: OpenFile, nbytes: int):
        pipe = entry.pipe
        if nbytes <= 0:
            raise InvalidArgument("pipe read needs a positive length")
        if pipe.buffered == 0:
            if pipe.write_closed:
                return ReadResult(0), self.config.syscall_overhead_ns
            if process.pid not in pipe.waiting_readers:
                pipe.waiting_readers.append(process.pid)
            return BLOCK
        take = min(nbytes, pipe.buffered)
        pipe.buffered -= take
        self.wake_all(pipe.waiting_writers)
        duration = self.config.syscall_overhead_ns + self.config.page_copy_ns(take)
        return ReadResult(take), duration


__all__ = ["ProcLayer"]
