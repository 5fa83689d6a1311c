"""Unit tests for the process/scheduler building blocks."""

import pytest

from repro.sim.cache.base import FileKey
from repro.sim.cache.lru import LRUPolicy
from repro.sim.errors import BadFileDescriptor
from repro.sim.proc.process import OpenFile, PipeBuffer, Process, ProcessState
from repro.sim.proc.scheduler import COMPACT_MIN_ENTRIES, Scheduler


def idle():
    yield


class TestProcess:
    def test_fd_numbers_start_past_stdio(self):
        process = Process(1, idle())
        entry = process.new_fd("file", fs_name="mnt0", ino=2)
        assert entry.fd == 3

    def test_fd_lookup_and_close(self):
        process = Process(1, idle())
        entry = process.new_fd("file", fs_name="mnt0", ino=2)
        assert process.lookup_fd(entry.fd) is entry
        assert process.close_fd(entry.fd) is entry
        with pytest.raises(BadFileDescriptor):
            process.lookup_fd(entry.fd)
        with pytest.raises(BadFileDescriptor):
            process.close_fd(entry.fd)

    def test_default_name_from_pid(self):
        assert Process(7, idle()).name == "proc7"
        assert Process(7, idle(), "worker").name == "worker"

    def test_repr_mentions_state(self):
        assert "ready" in repr(Process(1, idle()))


class TestPipeBuffer:
    def test_space_accounting(self):
        pipe = PipeBuffer(1)
        assert pipe.space == PipeBuffer.CAPACITY
        pipe.buffered = 100
        assert pipe.space == PipeBuffer.CAPACITY - 100

    def test_closed_flags(self):
        pipe = PipeBuffer(1)
        assert not pipe.write_closed and not pipe.read_closed
        pipe.writers = 0
        pipe.readers = 0
        assert pipe.write_closed and pipe.read_closed


class TestScheduler:
    def _proc(self, pid, at):
        process = Process(pid, idle())
        process.ready_at = at
        return process

    def test_earliest_ready_first(self):
        sched = Scheduler()
        late = self._proc(1, 100)
        early = self._proc(2, 10)
        sched.add(late)
        sched.add(early)
        assert sched.next_ready() is early
        assert sched.next_ready() is late

    def test_fifo_among_equal_deadlines(self):
        sched = Scheduler()
        first = self._proc(1, 50)
        second = self._proc(2, 50)
        sched.add(first)
        sched.add(second)
        assert sched.next_ready() is first
        assert sched.next_ready() is second

    def test_blocked_processes_are_skipped(self):
        sched = Scheduler()
        process = self._proc(1, 0)
        sched.add(process)
        sched.block(process)
        assert sched.next_ready() is None
        assert sched.blocked() == [process]

    def test_wake_requeues(self):
        sched = Scheduler()
        process = self._proc(1, 0)
        sched.add(process)
        sched.block(process)
        sched.make_ready(process, 42)
        woken = sched.next_ready()
        assert woken is process
        assert woken.ready_at == 42

    def test_stale_heap_entries_ignored(self):
        sched = Scheduler()
        process = self._proc(1, 10)
        sched.add(process)
        sched.make_ready(process, 5)  # supersedes the first entry
        got = sched.next_ready()
        assert got is process
        assert sched.next_ready() is None  # stale (10) entry dropped

    def test_live_and_runnable_counts(self):
        sched = Scheduler()
        a = self._proc(1, 0)
        b = self._proc(2, 0)
        sched.add(a)
        sched.add(b)
        assert sched.runnable_count() == 2
        sched.finish(b)
        assert sched.runnable_count() == 1
        assert sched.live_count() == 1
        assert sched.lookup(2) is b  # finished PCBs stay reachable

    def test_blocked_count_tracks_transitions(self):
        sched = Scheduler()
        a = self._proc(1, 0)
        b = self._proc(2, 0)
        sched.add(a)
        sched.add(b)
        sched.block(a)
        assert sched.blocked_count() == 1
        assert sched.runnable_count() == 1
        sched.block(a)  # idempotent: already blocked
        assert sched.blocked_count() == 1
        sched.make_ready(a, 5)
        assert sched.blocked_count() == 0
        assert sched.runnable_count() == 2
        sched.block(b)
        sched.finish(b)  # finishing a blocked process
        assert sched.blocked_count() == 0
        assert sched.blocked() == []

    def test_single_runner_uses_fast_slot(self):
        sched = Scheduler()
        solo = self._proc(1, 0)
        sched.add(solo)
        for at in range(1, 50):
            assert sched.next_ready() is solo
            sched.make_ready(solo, at)
        assert sched.next_ready() is solo
        assert sched.stats.fast_dispatches == 50
        assert sched.stats.dispatches == 50

    def test_fast_slot_spills_to_heap_in_order(self):
        sched = Scheduler()
        first = self._proc(1, 30)
        second = self._proc(2, 10)  # arrives later but is ready earlier
        sched.add(first)  # occupies the fast slot
        sched.add(second)  # forces a spill; ordering must survive
        assert sched.next_ready() is second
        assert sched.next_ready() is first
        assert sched.next_ready() is None

    def test_heap_compaction_drops_stale_entries(self):
        sched = Scheduler()
        procs = [self._proc(pid, pid) for pid in range(1, 41)]
        for p in procs:
            sched.add(p)
        # Re-ready everyone repeatedly: each make_ready leaves a stale
        # heap entry behind, then block() triggers the compaction sweep.
        for p in procs[1:]:
            sched.make_ready(p, p.pid + 100)
            sched.make_ready(p, p.pid + 200)
        for p in procs[1:]:
            sched.block(p)
        assert sched.stats.heap_compactions >= 1
        # Invariant: once past the minimum size, stale entries never
        # outnumber live ones two-to-one.
        assert (
            len(sched._heap) < COMPACT_MIN_ENTRIES
            or len(sched._heap) <= 2 * sched.runnable_count()
        )
        assert sched.next_ready() is procs[0]

    def test_waitpid_semantics_survive_pruning(self):
        sched = Scheduler()
        child = self._proc(9, 0)
        sched.add(child)
        child.result = "answer"
        sched.finish(child)
        assert sched.lookup(9) is child
        assert sched.lookup(9).result == "answer"
        assert 9 not in sched.processes


class TestCachePolicyHelpers:
    def test_remove_many(self):
        policy = LRUPolicy()
        keys = [FileKey(0, 1, i) for i in range(4)]
        for key in keys:
            policy.touch(key)
        assert policy.remove_many(keys[:2] + [FileKey(0, 9, 9)]) == 2
        assert len(policy) == 2
