"""Process control blocks, open-file table entries, and pipes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Generator, List, Optional

from repro.sim.errors import BadFileDescriptor
from repro.sim.vm.address_space import AddressSpace


class ProcessState(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class OpenFile:
    """One open-file-table entry (regular file or pipe end)."""

    fd: int
    kind: str  # "file" | "pipe_r" | "pipe_w"
    fs_name: str = ""
    ino: int = 0
    pos: int = 0
    pipe: Optional["PipeBuffer"] = None


class PipeBuffer:
    """A bounded byte-count pipe between two processes.

    Only *lengths* flow through pipes (content is synthetic at this
    layer); the cost model charges a kernel-mediated copy per byte, the
    "extra copy of all data through the operating system via the pipe
    mechanism" the paper blames for gbp's residual overhead (§4.1.3).
    """

    CAPACITY = 64 * 1024

    def __init__(self) -> None:
        self.buffered = 0
        self.readers = 1
        self.writers = 1
        self.waiting_readers: List[int] = []
        self.waiting_writers: List[int] = []
        self.total_through = 0

    @property
    def space(self) -> int:
        return self.CAPACITY - self.buffered

    @property
    def write_closed(self) -> bool:
        return self.writers == 0

    @property
    def read_closed(self) -> bool:
        return self.readers == 0


@dataclass
class ProcessStats:
    """Per-process accounting, readable through the oracle."""

    syscalls: int = 0
    cpu_ns: int = 0
    blocked_ns: int = 0


class Process:
    """A generator coroutine plus its kernel-side state.

    ``__slots__`` keeps the PCB compact and makes the dispatch loop's
    attribute loads (``retry_syscall``, ``pending_value``, ``stats``)
    fixed-offset reads instead of dict probes.
    """

    __slots__ = (
        "pid",
        "name",
        "gen",
        "state",
        "ready_at",
        "queued_seq",
        "pending_value",
        "pending_exception",
        "retry_syscall",
        "result",
        "address_space",
        "fd_table",
        "_next_fd",
        "waiters",
        "stats",
    )

    def __init__(self, pid: int, gen: Generator, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"proc{pid}"
        self.gen = gen
        self.state = ProcessState.READY
        self.ready_at = 0
        # ``seq`` of this process's one live scheduler queue entry; 0
        # while it has none (blocked or done).  Written by the scheduler.
        self.queued_seq = 0
        # The value to send into the generator on the next step (None on
        # first step), or the exception to throw.
        self.pending_value: Any = None
        self.pending_exception: Optional[BaseException] = None
        # A syscall to re-execute on wake-up (set while blocked on a pipe
        # or waitpid), instead of advancing the generator.
        self.retry_syscall: Any = None
        self.result: Any = None
        self.address_space = AddressSpace(pid)
        self.fd_table: Dict[int, OpenFile] = {}
        self._next_fd = 3  # reserve 0-2 in the spirit of stdio
        self.waiters: List[int] = []
        self.stats = ProcessStats()

    @property
    def done(self) -> bool:
        return self.state is ProcessState.DONE

    def new_fd(self, entry_kind: str, **fields: Any) -> OpenFile:
        entry = OpenFile(fd=self._next_fd, kind=entry_kind, **fields)
        self.fd_table[entry.fd] = entry
        self._next_fd += 1
        return entry

    def lookup_fd(self, fd: int) -> OpenFile:
        entry = self.fd_table.get(fd)
        if entry is None:
            raise BadFileDescriptor(f"{self.name}: fd {fd} is not open")
        return entry

    def close_fd(self, fd: int) -> OpenFile:
        entry = self.fd_table.pop(fd, None)
        if entry is None:
            raise BadFileDescriptor(f"{self.name}: fd {fd} is not open")
        return entry

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r}, state={self.state.value})"
