"""Multi-tenant arena: N resumable clients interleaved on one shared kernel.

Every experiment before this layer drove one ICL to completion against a
private kernel; the paper's hardest open question — probes from one
gray-box client perturbing the very state another client is inferring
(Heisenberg + interference, §4.1.2/§6) — needs many clients on *one*
machine.  The arena supplies the multiplexing half of ROADMAP item 1;
PR 7's attribution plane (pid-stamped obs, ``ObsView``,
``interference_matrix``) supplies the accounting half.

Mechanism
---------
The arena registers one extra syscall, ``arena_park``, on the shared
kernel's dispatch table, and removes it when :meth:`Arena.run` ends so
the kernel holds no reference back to the arena.  Each client is one
kernel process running a *shell* generator (:meth:`Arena._shell`): the
shell forwards its body's syscalls to the kernel unchanged — including
re-throwing kernel-delivered errors, so ``ICL._retry`` works untouched —
and yields ``arena_park`` at every step boundary.  The park handler
blocks the caller through the kernel's standard BLOCK/retry protocol
unless the arena has granted that pid its next turn.  Granting is: mark
the pid, make the process ready, and run the machine to quiescence
(:meth:`Kernel.run_until_blocked`).
One grant therefore runs exactly one client turn, plus any kernel-level
wakeups the turn causes (children, pipe peers), which proceed by
simulated readiness exactly as under :meth:`Kernel.run`.

Step boundaries come from two sources: ICLs constructed with
``step_markers=True`` yield the host-side :data:`STEP` sentinel after
each probe batch (``ICL.checkpoint``), and bodies without markers are
parked every ``quantum`` completed syscalls.  ``arena_park`` has zero
simulated duration and preserves the stat epoch, so a parked-and-resumed
client observes byte-identical timings to an unparked one — at N=1 an
arena client's result is bit-identical to ``Kernel.run_process`` on the
same body (the equivalence the acceptance test pins).

Determinism
-----------
Clients are spawned in sorted-name order (pids and policy indices are
independent of :meth:`Arena.add_client` call order), per-client RNG
streams derive from ``(seed, name)`` (:func:`client_rng`), and every
policy decision is a pure function of ``(seed, name, turn)``: same seed
⇒ byte-identical obs stream, which ``obs.export.stream_digest`` pins.

Scalability
-----------
A grant is O(log N): the turn order lives in one heap of
``(policy key, index)`` entries, one entry per live client, so no policy
ever scans the client table per dispatch; the scheduler underneath
``reap()``s finished clients for the same reason.  The
tracked ``bench_arena.py`` suite gates per-step cost at N=1024 within
3x of N=1.
"""

from __future__ import annotations

import heapq
import random
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sim.dispatch import BLOCK
from repro.sim.inject import _fnv1a, _splitmix64
from repro.sim.proc.process import Process, ProcessState
from repro.sim.syscalls import Syscall

__all__ = [
    "ARENA_PARK",
    "STEP",
    "StepBoundary",
    "Arena",
    "ArenaClient",
    "InterleavePolicy",
    "RoundRobinPolicy",
    "WeightedPolicy",
    "SeededRandomPolicy",
    "POLICIES",
    "make_policy",
    "client_rng",
]

#: The arena's gate syscall: zero simulated duration, stat-preserving.
ARENA_PARK = "arena_park"

_PARK = Syscall(ARENA_PARK, ())
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class StepBoundary:
    """Sentinel a client body yields between probe batches.

    Not a syscall: only an arena shell may consume it.  A body that
    yields :data:`STEP` into a bare ``kernel.run_process`` hits the
    kernel's standard "must yield Syscall" TypeError — which is why
    ``ICL(step_markers=...)`` defaults to off and the sequential drive
    loops stay valid unmodified.

    A boundary may carry a ``tag`` — any hashable label.  Tagged
    boundaries park exactly like :data:`STEP`, but the shell records
    ``(tag, simulated now)`` in the client's :attr:`ArenaClient.step_log`
    before parking.  The log is host-side bookkeeping only (nothing is
    emitted to ``obs``, no simulated time passes), so tagged and untagged
    runs produce byte-identical obs streams; the covert-channel harness
    uses it to align sender and receiver turns cell by cell without
    perturbing the timing channel it is measuring.
    """

    __slots__ = ("tag",)

    def __init__(self, tag: Any = None) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return "STEP" if self.tag is None else f"STEP({self.tag!r})"


#: The shared marker instance ``ICL.checkpoint`` yields.
STEP = StepBoundary()


def client_rng(seed: int, name: str) -> random.Random:
    """A client's probe RNG: a pure function of ``(seed, name)``.

    Shared by the arena and the single-client equivalence harness, so an
    N=1 arena run and a bare ``run_process`` of the same body draw the
    identical stream — and so the stream never depends on the order
    clients were added or spawned.
    """
    return random.Random(_splitmix64((seed ^ _fnv1a(name)) & _MASK64))


class ArenaClient:
    """One tenant: a named body factory plus its arena bookkeeping.

    The factory is called once, at the client's first grant, with this
    object — bodies draw randomness from :attr:`rng` and can read their
    own :attr:`pid`/:attr:`name`.  After the client finishes,
    :attr:`result` holds the body's return value and the ``*_ns`` /
    ``syscalls`` fields its kernel-side accounting (collected before the
    PCB is reaped).
    """

    __slots__ = (
        "name",
        "kind",
        "weight",
        "quantum",
        "factory",
        "index",
        "rng",
        "pid",
        "process",
        "turns",
        "parks",
        "done",
        "result",
        "syscalls",
        "cpu_ns",
        "blocked_ns",
        "finished_ns",
        "step_log",
    )

    def __init__(
        self,
        name: str,
        factory: Callable[["ArenaClient"], Generator],
        kind: str = "",
        weight: float = 1.0,
        quantum: Optional[int] = None,
    ) -> None:
        if weight <= 0:
            raise ValueError("client weight must be positive")
        if quantum is not None and quantum < 1:
            raise ValueError("quantum must be >= 1 syscalls (or None)")
        self.name = name
        self.kind = kind
        self.weight = weight
        self.quantum = quantum
        self.factory = factory
        self.index = -1
        self.rng: random.Random = random.Random(0)
        self.pid = -1
        self.process: Optional[Process] = None
        self.turns = 0
        self.parks = 0
        self.done = False
        self.result: Any = None
        self.syscalls = 0
        self.cpu_ns = 0
        self.blocked_ns = 0
        self.finished_ns = 0
        #: ``(tag, simulated now)`` per tagged step boundary, in park
        #: order — the slice-alignment primitive for sender/receiver
        #: protocols (see :class:`StepBoundary`).
        self.step_log: List[Tuple[Any, int]] = []

    def __repr__(self) -> str:
        state = "done" if self.done else f"turns={self.turns}"
        return f"ArenaClient({self.name!r}, kind={self.kind!r}, {state})"


# ======================================================================
# Interleaving policies
# ======================================================================
class InterleavePolicy:
    """Deterministic turn order over parked clients.

    :meth:`bind` is called once with the sorted client names and weights
    plus the arena seed; :meth:`key` returns the heap key under which
    client ``index``'s ``turn``-th grant competes.  Keys must be a pure
    function of ``(seed, name, turn)`` — never of construction order or
    host state — and every key embeds the sorted index as the final
    tie-break, so the whole schedule is reproducible from the seed.
    """

    name = "policy"

    def bind(self, names: Sequence[str], weights: Sequence[float], seed: int) -> None:
        self._weights = list(weights)

    def key(self, index: int, turn: int) -> Tuple[Any, int]:
        raise NotImplementedError


class RoundRobinPolicy(InterleavePolicy):
    """Strict rotation: every client gets turn *t* before any gets *t+1*."""

    name = "round-robin"

    def key(self, index: int, turn: int) -> Tuple[Any, int]:
        return (turn, index)


class WeightedPolicy(InterleavePolicy):
    """Stride scheduling: a client's ``turn``-th grant runs at virtual
    time ``(turn + 1) / weight``, so a weight-3 client receives three
    turns for every one a weight-1 client gets, smoothly interleaved
    rather than in bursts.  Weights come from ``add_client``; ``bind``
    validates them.
    """

    name = "weighted"

    def bind(self, names: Sequence[str], weights: Sequence[float], seed: int) -> None:
        super().bind(names, weights, seed)
        for name, weight in zip(names, weights):
            if weight <= 0:
                raise ValueError(f"client {name!r} has non-positive weight")

    def key(self, index: int, turn: int) -> Tuple[Any, int]:
        return ((turn + 1) / self._weights[index], index)


class SeededRandomPolicy(InterleavePolicy):
    """Random interleaving, reproducible and order-independent.

    Each client owns a counter-indexed splitmix64 stream keyed by
    ``(seed, fnv1a(name))`` — the same construction as
    :mod:`repro.sim.inject` — and its ``turn``-th grant competes under
    draw number ``turn``.  Hashing the *name* (not the index) makes the
    schedule invariant under client-list reordering, which the
    determinism test asserts.
    """

    name = "random"

    def bind(self, names: Sequence[str], weights: Sequence[float], seed: int) -> None:
        super().bind(names, weights, seed)
        self._bases = [
            _splitmix64((seed ^ _fnv1a(name)) & _MASK64) for name in names
        ]

    def key(self, index: int, turn: int) -> Tuple[Any, int]:
        draw = _splitmix64((self._bases[index] + turn * _GOLDEN) & _MASK64)
        return (draw, index)


POLICIES: Dict[str, Callable[[], InterleavePolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    WeightedPolicy.name: WeightedPolicy,
    SeededRandomPolicy.name: SeededRandomPolicy,
}


def make_policy(name: str) -> InterleavePolicy:
    """Policy by CLI name (``round-robin``, ``weighted``, ``random``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown interleave policy {name!r}; choose from {', '.join(POLICIES)}"
        ) from None


# ======================================================================
# The arena
# ======================================================================
class Arena:
    """Interleave N resumable clients on one shared kernel.

    Construct with a kernel (the arena registers ``arena_park`` on its
    live dispatch table until :meth:`run` ends — one arena per kernel at
    a time), add clients, then :meth:`run` once.  ``seed`` feeds both the
    policy schedule and the per-client RNG streams.
    """

    def __init__(
        self,
        kernel: Any,
        policy: Optional[InterleavePolicy] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.seed = seed
        self.clients: List[ArenaClient] = []
        self._by_name: Dict[str, ArenaClient] = {}
        self._grant_pid: Optional[int] = None
        self._parked: Set[int] = set()
        self._ran = False
        #: Kernel dispatches executed across every slice of the run.
        self.total_steps = 0
        #: Grants issued (== sum of per-client ``turns``).
        self.total_turns = 0
        kernel.syscalls.register(ARENA_PARK, self._sys_arena_park)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_client(
        self,
        name: str,
        factory: Callable[[ArenaClient], Generator],
        *,
        kind: str = "",
        weight: float = 1.0,
        quantum: Optional[int] = None,
    ) -> ArenaClient:
        """Register one client; bodies start only when :meth:`run` grants.

        ``factory(client)`` must return a generator yielding ``Syscall``
        objects and (optionally) :data:`STEP` markers.  ``quantum``
        additionally parks the client every that-many completed syscalls
        — the knob for marker-less background jobs; ``None`` trusts the
        body's own markers entirely.
        """
        if self._ran:
            raise RuntimeError("arena already ran; build a new one")
        if name in self._by_name:
            raise ValueError(f"duplicate client name {name!r}")
        client = ArenaClient(name, factory, kind=kind, weight=weight, quantum=quantum)
        self.clients.append(client)
        self._by_name[name] = client
        return client

    def client(self, name: str) -> ArenaClient:
        return self._by_name[name]

    # ------------------------------------------------------------------
    # The gate syscall and the shell
    # ------------------------------------------------------------------
    def _sys_arena_park(self, process: Process) -> Any:
        if process.pid == self._grant_pid:
            # Consume the grant; zero duration, so a park the policy
            # immediately waves through leaves no simulated trace.
            self._grant_pid = None
            return None, 0
        self._parked.add(process.pid)
        return BLOCK

    def _shell(self, client: ArenaClient) -> Generator:
        # Opening park: the policy owns the very first body step too,
        # and the body (with any construction-time RNG draws) is built
        # only once a grant arrives.
        yield _PARK
        body = client.factory(client)
        send: Any = None
        throw: Optional[BaseException] = None
        since_park = 0
        while True:
            try:
                if throw is not None:
                    item = body.throw(throw)
                    # Release it now: its traceback holds the kernel's
                    # dispatch frames, and this frame outlives the throw.
                    throw = None
                else:
                    item = body.send(send)
            except StopIteration as stop:
                return stop.value
            if isinstance(item, StepBoundary):
                if item.tag is not None:
                    client.step_log.append((item.tag, self.kernel.clock.now))
                send = None
                since_park = 0
                client.parks += 1
                yield _PARK
                continue
            if not isinstance(item, Syscall):
                raise TypeError(
                    f"arena client {client.name!r} yielded {item!r}; "
                    "bodies must yield Syscall objects or STEP"
                )
            try:
                send = yield item
            except Exception as exc:
                # Kernel-delivered errno (SimOSError, TransientError):
                # re-deliver into the body before counting the quantum —
                # the body's retry/except logic decides what it means.
                send = None
                throw = exc
                continue
            since_park += 1
            if client.quantum is not None and since_park >= client.quantum:
                since_park = 0
                client.parks += 1
                yield _PARK

    # ------------------------------------------------------------------
    # The grant loop
    # ------------------------------------------------------------------
    def run(self, max_turns: Optional[int] = None) -> List[ArenaClient]:
        """Interleave every client to completion; returns them sorted.

        Raises RuntimeError on genuine deadlock: a live client blocked
        in the kernel (not parked) with no grantable peer left whose
        turn could wake it.
        """
        if self._ran:
            raise RuntimeError("arena already ran; build a new one")
        self._ran = True
        try:
            return self._run(max_turns)
        finally:
            self.kernel.syscalls.unregister(ARENA_PARK)

    def _run(self, max_turns: Optional[int]) -> List[ArenaClient]:
        if not self.clients:
            return []
        kernel = self.kernel
        scheduler = kernel.scheduler
        # Sorted-name spawn: pids, policy indices, and therefore the
        # whole schedule are independent of add_client order.
        ordered = sorted(self.clients, key=lambda c: c.name)
        procs: List[Process] = []
        for index, client in enumerate(ordered):
            client.index = index
            client.rng = client_rng(self.seed, client.name)
            process = kernel.spawn(self._shell(client), client.name)
            client.process = process
            client.pid = process.pid
            procs.append(process)
        self.policy.bind(
            [c.name for c in ordered], [c.weight for c in ordered], self.seed
        )
        # Opening slice: every shell runs to its first park.
        self.total_steps += kernel.run_until_blocked()
        # One heap entry per live client; a grant is O(log N).
        heap: List[Tuple[Any, int]] = [
            (self.policy.key(index, 0), index) for index in range(len(ordered))
        ]
        heapq.heapify(heap)
        skipped: List[Tuple[Any, int]] = []
        while heap or skipped:
            if not heap:
                # Every remaining client was kernel-blocked at its last
                # pop.  If none has since parked or finished (a peer's
                # slice can wake them), no grant can ever free them.
                if not any(
                    ordered[index].pid in self._parked or ordered[index].done
                    or procs[index].state is ProcessState.DONE
                    for _key, index in skipped
                ):
                    self._raise_deadlock(ordered)
                for entry in skipped:
                    heapq.heappush(heap, entry)
                skipped.clear()
            key, index = heapq.heappop(heap)
            client = ordered[index]
            process = procs[index]
            if client.done:
                continue
            if process.state is ProcessState.DONE:
                # Finished mid-slice (woken by a peer's turn, e.g. a
                # pipe counterpart) without parking again.
                self._finalize(client)
                continue
            if client.pid not in self._parked:
                # Kernel-blocked (waitpid, pipe): not grantable now;
                # retry after the next successful grant.
                skipped.append((key, index))
                continue
            self._parked.discard(client.pid)
            self._grant_pid = client.pid
            scheduler.make_ready(process, kernel.clock.now)
            self.total_steps += kernel.run_until_blocked()
            self.total_turns += 1
            client.turns += 1
            if max_turns is not None and self.total_turns > max_turns:
                raise RuntimeError(f"arena exceeded max_turns={max_turns}")
            if process.state is ProcessState.DONE:
                self._finalize(client)
            else:
                heapq.heappush(
                    heap, (self.policy.key(client.index, client.turns), client.index)
                )
            if skipped:
                for entry in skipped:
                    heapq.heappush(heap, entry)
                skipped.clear()
        # Clients are done; anything runnable they left behind already
        # ran inside slices, so remaining blocked processes (abandoned
        # children, half-closed pipes) are a real deadlock.
        self.total_steps += kernel.run_until_blocked()
        if scheduler.blocked_count():
            names = ", ".join(p.name for p in scheduler.blocked())
            raise RuntimeError(
                f"arena: blocked processes remain after all clients finished: {names}"
            )
        return ordered

    def _finalize(self, client: ArenaClient) -> None:
        client.done = True
        self._parked.discard(client.pid)
        process = client.process
        assert process is not None  # spawned before any grant
        client.result = process.result
        client.syscalls = process.stats.syscalls
        client.cpu_ns = process.stats.cpu_ns
        client.blocked_ns = process.stats.blocked_ns
        client.finished_ns = self.kernel.clock.now
        if not process.waiters:
            # Result and stats are collected; drop the PCB so `finished`
            # stays O(live) across thousand-client runs.
            self.kernel.scheduler.reap(client.pid)

    def _raise_deadlock(self, ordered: List[ArenaClient]) -> None:
        stuck = [
            c.name
            for c in ordered
            if not c.done and c.pid not in self._parked
        ]
        raise RuntimeError(
            "arena deadlock: clients blocked in the kernel with no grantable "
            "peer: " + ", ".join(stuck)
        )
