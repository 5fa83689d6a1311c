"""Unit tests for the process/scheduler building blocks."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class NaiveScheduler:
    """Reference ready queue: one sorted entry list, no fast slot, no compaction.

    An entry ``(ready_at, seq, pid)`` dispatches iff its process is READY
    and still due at ``ready_at`` — the validity rule the real scheduler
    applies on every pop and sweep.
    """

    def __init__(self, wake_delay=None):
        self.entries = []
        self.seq = 0
        self.state = {}  # pid -> "ready" | "blocked" | "done"; reaped pids leave
        self.ready_at = {}
        self.dispatches = 0
        self.wake_delay = wake_delay

    def due(self, pid, at):
        """The ready time ``make_ready(pid, at)`` will record."""
        return at + self.wake_delay(pid, at) if self.wake_delay else at

    def valid(self, entry):
        at, _seq, pid = entry
        return self.state.get(pid) == "ready" and self.ready_at[pid] == at

    def make_ready(self, pid, at):
        at = self.due(pid, at)
        self.state[pid] = "ready"
        self.ready_at[pid] = at
        self.seq += 1
        bisect.insort(self.entries, (at, self.seq, pid))

    def next_ready(self):
        while self.entries:
            entry = self.entries.pop(0)
            if self.valid(entry):
                self.dispatches += 1
                return entry[2]
        return None

    def live(self):
        return sorted(p for p, s in self.state.items() if s != "done")

    def count(self, state):
        return sum(1 for s in self.state.values() if s == state)


SCHED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "ready", "ready", "ready", "ready", "block", "block",
                         "finish", "reap", "next"]),
        st.integers(min_value=0, max_value=63),  # which process
        st.integers(min_value=0, max_value=12),  # ready time: small, so ties repeat
    ),
    min_size=40,
    max_size=200,
)


def test_scheduler_matches_naive_reference():
    """Dispatch order and counts equal a model without the fast paths.

    Compaction only drops entries that fail the validity rule, so it is
    exact as long as a dropped entry can never pass the rule again: the
    generator never readies a process at the time of one of its queued
    entries that has gone stale (in the kernel, a process has at most
    one queued entry at a time).
    """
    compactions = []

    @settings(max_examples=100, deadline=None)
    @given(ops=SCHED_OPS, hooked=st.booleans())
    def check(ops, hooked):
        hook = (lambda pid, at: (pid + at) % 3) if hooked else None
        sched = Scheduler()
        sched.wake_delay_hook = hook
        model = NaiveScheduler(hook)
        procs = {}
        for kind, pick, at in ops:
            live = model.live()
            if kind == "add":
                pid = len(procs) + 1
                procs[pid] = process = Process(pid, idle())
                process.ready_at = at
                sched.add(process)
                model.make_ready(pid, at)
            elif kind == "reap":
                pid = pick % (len(procs) + 2)  # pid 0 and len+1 never existed
                expected = model.state.get(pid) == "done"
                assert sched.reap(pid) is expected
                if expected:
                    del model.state[pid]
            elif kind == "next":
                got = sched.next_ready()
                want = model.next_ready()
                assert (got.pid if got is not None else None) == want
            elif live:
                pid = live[pick % len(live)]
                if kind == "ready":
                    due = model.due(pid, at)
                    if any(
                        e[2] == pid and e[0] == due and not model.valid(e)
                        for e in model.entries
                    ):
                        continue  # would revive a stale entry
                    sched.make_ready(procs[pid], at)
                    model.make_ready(pid, at)
                elif kind == "block":
                    sched.block(procs[pid])
                    model.state[pid] = "blocked"
                else:
                    sched.finish(procs[pid])
                    model.state[pid] = "done"
            assert sched.stats.dispatches == model.dispatches
            assert sched.runnable_count() == model.count("ready")
            assert sched.blocked_count() == model.count("blocked")
        compactions.append(sched.stats.heap_compactions)

    check()
    assert any(compactions), "no example compacted the heap"


class TestCachePolicyHelpers:
    def test_remove_many(self):
        policy = LRUPolicy()
        keys = [FileKey(0, 1, i) for i in range(4)]
        for key in keys:
            policy.touch(key)
        assert policy.remove_many(keys[:2] + [FileKey(0, 9, 9)]) == 2
        assert len(policy) == 2
