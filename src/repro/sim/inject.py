"""Deterministic fault and noise injection for the simulated kernel.

The paper's ICLs survive on a *noisy* machine: scheduling interference,
timer granularity, and background I/O all contaminate the timing channel
(DESIGN.md names them as the enemies).  The stock simulator is perfectly
quiet, so this module supplies the enemies on demand — deterministically,
so every noisy run is exactly reproducible from ``(seed, config)``.

A :class:`FaultInjector` wraps the kernel's
:class:`~repro.sim.dispatch.SyscallTable` (the PR-4 dispatch hooks make
this non-invasive) and composes four injector families:

* **latency noise** — per-probe jitter, rare large spikes, and timer
  quantization applied *inside* the probe syscalls (``pread`` / ``stat``
  / ``touch`` and their vectored forms), so batched and sequential
  probing observe the identical noise stream, plus whole-call jitter for
  everything else;
* **transient faults** — EAGAIN/EINTR-style
  :class:`~repro.sim.errors.TransientError` raised before the handler
  runs (no partial side effects), which callers must absorb with bounded
  retries; consecutive failures per syscall are capped so retry loops
  always terminate;
* **scheduler interference** — a deterministic delay added each time a
  process is made ready, modelling stolen scheduler slots and coarse
  timers;
* **background interference processes** — real simulated processes that
  dirty the page cache, burn CPU, spike memory pressure, and age
  directories, spawned beside the workload under test.

Determinism: every draw comes from a counter-indexed splitmix64 stream
keyed by ``(seed, domain, kind)`` with a host-independent FNV-1a string
hash — never from Python's global RNG and never from host state — so the
fault schedule is a pure function of the injection config and the
simulated machine's own dispatch order.  Two kernels running the same
workload under the same config observe byte-identical schedules, which
is what the differential fuzzer and the ``--jobs N`` parallel-trial
property tests assert.

Everything is **off by default**: a kernel without an installed injector
pays one ``is None`` check per probe, and an installed injector with an
empty config is bit-identical to no injector at all (the golden traces
prove the quiet path).

Every injected action is observable: ``inject.fault`` events and
``inject.*`` counters land in the kernel's ``obs`` stream on the same
simulated timeline as the ICL's reaction (``icl.retry``,
``icl.low_confidence``), so a fault is always joinable to its response.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.sim.clock import MICROS, MILLIS, SECONDS
from repro.sim.dispatch import BLOCK, Handler, SyscallTable
from repro.sim.errors import Interrupted, SimOSError, TryAgain
from repro.sim import syscalls as sc

MIB = 1024 * 1024

__all__ = [
    "LatencyNoise",
    "TransientFaults",
    "InterferenceSpec",
    "InjectionConfig",
    "FaultInjector",
    "noise_profile",
    "interference_bodies",
    "NOISE_DOMAINS",
    "PROBE_SYSCALLS",
    "DEFAULT_FAULT_SYSCALLS",
]

#: Syscalls whose noise is injected per probe inside the kernel layers
#: (so batched and sequential forms share one stream); the dispatch
#: wrapper never adds call-level jitter to these.  ``utimes`` is a
#: path-walk metadata probe with stat's exact cost profile, so it rides
#: the stat stream (but stays fault-ineligible: it mutates).
PROBE_SYSCALLS = frozenset(
    {
        "pread",
        "pread_batch",
        "stat",
        "stat_batch",
        "utimes",
        "touch",
        "touch_range",
        "touch_batch",
    }
)

#: Idempotent, retry-safe syscalls eligible for transient faults by
#: default.  Mutating calls (write/create/unlink/...) are excluded so a
#: retry never duplicates a side effect.
DEFAULT_FAULT_SYSCALLS = frozenset(
    {
        "pread",
        "pread_batch",
        "stat",
        "stat_batch",
        "fstat",
        "touch",
        "touch_range",
        "touch_batch",
        "open",
        "readdir",
    }
)


# ======================================================================
# Deterministic draws (host-independent, counter-indexed)
# ======================================================================
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_2_POW_MINUS_53 = 2.0 ** -53

#: Block sizes: a stream's first refill computes 8 draws and each later
#: one twice as many, up to 512, so a stream that draws a handful of
#: values never pays for hundreds.  Larger peeks are computed in
#: 512-draw chunks.
_BLOCK_MIN = 8
_BLOCK_MAX = 512
#: Bits per packed lane: a 64-bit state times a 64-bit constant fits.
_LANE_BITS = 128


def _fnv1a(text: str, basis: int = _FNV_OFFSET) -> int:
    """FNV-1a over utf-8 bytes — stable across processes and hosts."""
    h = basis
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


class _Lanes:
    """Constants for running splitmix64 over ``n`` packed lanes at once."""

    __slots__ = ("ones", "steps", "mask", "unpack", "nbytes")

    def __init__(self, n: int) -> None:
        width = _LANE_BITS // 8
        self.nbytes = width * n
        # Lane k holds 1, and k * golden: a state plus it stays under
        # 2**75 for k < 2**10, far inside its lane before the mask.
        self.ones = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little")
        self.steps = _GOLDEN * int.from_bytes(
            b"".join(k.to_bytes(width, "little") for k in range(n)), "little"
        )
        self.mask = self.ones * _MASK64
        self.unpack = struct.Struct("<" + "Q8x" * n).unpack


#: Layouts by block size (8, 16, ... 512), each built when a refill first
#: needs it: constants, so every stream may share them, and a run that
#: installs no injector never pays their ~140 KB.
_LANES: Dict[int, _Lanes] = {}


def _draw_block(base: int, start: int, n: int) -> List[float]:
    """Draws ``start .. start+n-1`` of the stream at ``base``; ``n`` is a
    power of two, at least 8.

    Each draw's 64-bit state sits in its own 128-bit lane of one int, so
    each splitmix64 step is one big-int operation for all ``n`` draws.
    A lane never carries into its neighbour: the states are masked to
    64 bits, every right shift is masked back to its lane before the
    next multiply (so a lane's product with a 64-bit constant fits its
    128 bits); the last shift leaves the 53 bits the float takes, and
    the mask after it drops what came in from the next lane.
    For ``v < 2**53``, ``v * 2**-53`` is ``v / 2**53`` exactly, so each
    element is bit-identical to the sequential draw.
    """
    if n > _BLOCK_MAX:
        block: List[float] = []
        for first in range(start, start + n, _BLOCK_MAX):
            block += _draw_block(base, first, _BLOCK_MAX)
        return block
    lanes = _LANES.get(n)
    if lanes is None:
        lanes = _LANES[n] = _Lanes(n)
    mask = lanes.mask
    first = (base + (start + 1) * _GOLDEN) & _MASK64
    x = (first * lanes.ones + lanes.steps) & mask
    x = ((x ^ (x >> 30)) & mask) * _MIX1 & mask
    x = ((x ^ (x >> 27)) & mask) * _MIX2 & mask
    x = ((x ^ (x >> 31)) >> 11) & mask
    return list(map(_2_POW_MINUS_53.__mul__, lanes.unpack(x.to_bytes(lanes.nbytes, "little"))))


class _Stream:
    """One counter-indexed random stream: draw k is splitmix64(base+k).

    Draws are computed a block at a time: ``_block`` holds draws
    ``_start .. _end - 1``.  The counter only moves forward.
    """

    __slots__ = ("base", "counter", "_start", "_end", "_block", "_size")

    def __init__(self, base: int) -> None:
        self.base = base
        self.counter = 0
        self._start = self._end = 0
        self._block: List[float] = []
        self._size = _BLOCK_MIN

    def _refill(self, need: int) -> None:
        """Compute a block of at least ``need`` draws from the counter on."""
        size = self._size
        if size < _BLOCK_MAX:
            self._size = size * 2
        size = max(size, 1 << (need - 1).bit_length())
        self._start = self.counter
        self._end = self.counter + size
        self._block = _draw_block(self.base, self.counter, size)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of the draw."""
        counter = self.counter
        if counter >= self._end:
            self._refill(1)
        self.counter = counter + 1
        return self._block[counter - self._start]

    def peek_floats(self, n: int) -> List[float]:
        """The next ``n`` :meth:`next_float` values, without consuming them."""
        if self.counter + n > self._end:
            self._refill(n)
        k = self.counter - self._start
        return self._block[k : k + n]


# ======================================================================
# Injector configuration
# ======================================================================
@dataclass(frozen=True)
class LatencyNoise:
    """Additive timing noise on syscall observations.

    ``jitter_ns`` adds a uniform [0, jitter_ns) delay to every affected
    observation; ``spike_prob``/``spike_ns`` add a rare large delay (a
    probe queued behind someone else's disk I/O); ``granularity_ns``
    rounds the final elapsed time up to the timer's tick — the coarse
    clock that §5's outlier machinery exists to survive.  Probe syscalls
    receive the noise per probe; all other syscalls per call.
    """

    jitter_ns: int = 0
    spike_prob: float = 0.0
    spike_ns: int = 0
    granularity_ns: int = 0

    def __post_init__(self) -> None:
        # Simulated time is integer nanoseconds (repro.sim.clock): a
        # float or bool duration would leak into the clock.
        for name in ("jitter_ns", "spike_ns", "granularity_ns"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int (nanoseconds), got {value!r}")
        if self.jitter_ns < 0 or self.spike_ns < 0 or self.granularity_ns < 0:
            raise ValueError("latency noise durations must be >= 0")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError("spike_prob must be a probability")

    @property
    def active(self) -> bool:
        return bool(
            self.jitter_ns or (self.spike_prob and self.spike_ns) or self.granularity_ns
        )


@dataclass(frozen=True)
class TransientFaults:
    """EAGAIN/EINTR-style failures injected before the handler runs.

    ``max_consecutive`` caps back-to-back failures of one syscall name
    so a bounded retry loop is guaranteed to make progress.
    """

    fail_prob: float = 0.0
    errno: str = "EAGAIN"
    syscalls: frozenset = DEFAULT_FAULT_SYSCALLS
    max_consecutive: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError("fail_prob must be a probability")
        if self.errno not in ("EAGAIN", "EINTR"):
            raise ValueError(f"unsupported transient errno {self.errno!r}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")

    @property
    def active(self) -> bool:
        return self.fail_prob > 0.0 and bool(self.syscalls)


@dataclass(frozen=True)
class InterferenceSpec:
    """One background interference process.

    ``kind`` selects the behaviour; intensity in [0, 1] scales how hard
    it works inside each burst/rest cycle.  All processes stop once the
    simulated clock passes the horizon given to
    :meth:`FaultInjector.spawn_interference`.
    """

    kind: str  # cache_dirtier | cpu_hog | memory_hog | dir_ager
    intensity: float = 0.5

    KINDS = ("cache_dirtier", "cpu_hog", "memory_hog", "dir_ager")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown interference kind {self.kind!r}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError("intensity must be in (0, 1]")


@dataclass(frozen=True)
class InjectionConfig:
    """Everything a :class:`FaultInjector` does, as data.

    The default config is completely inert: installing it leaves the
    machine bit-identical to an uninstrumented one.

    ``touch_latency``, when given, replaces ``latency`` for the page-
    touch probe stream only.  A 150 ns in-memory touch is far less
    likely to straddle an interrupt or a scheduling quantum than a
    millisecond-scale disk probe, so realistic profiles give touches a
    much rarer, smaller spike than reads and stats; leaving it ``None``
    applies ``latency`` to touches too.
    """

    seed: int = 0
    latency: Optional[LatencyNoise] = None
    touch_latency: Optional[LatencyNoise] = None
    faults: Optional[TransientFaults] = None
    sched_jitter_ns: int = 0
    interference: Tuple[InterferenceSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.sched_jitter_ns < 0:
            raise ValueError("sched_jitter_ns must be >= 0")

    @property
    def inert(self) -> bool:
        return (
            (self.latency is None or not self.latency.active)
            and (self.touch_latency is None or not self.touch_latency.active)
            and (self.faults is None or not self.faults.active)
            and not self.sched_jitter_ns
            and not self.interference
        )


#: The injector families :func:`noise_profile` can switch independently.
NOISE_DOMAINS = ("latency", "faults", "sched", "background")


def noise_profile(
    level: float,
    seed: int = 0,
    domains: Optional[Sequence[str]] = None,
) -> InjectionConfig:
    """The standard noise ladder used by the robustness sweep.

    ``level`` in [0, 1] scales every injector together: probe jitter and
    disk-scale latency spikes, transient fault probability, scheduler
    interference, and (from level 0.3 up) background processes.  Level
    0.0 is the inert config; 1.0 is a hostile machine.  The documented
    noise budget for the hardened ICLs (see EXPERIMENTS.md) is level
    0.5 — the point where this profile injects ~5% probe spikes at disk
    scale plus ~5% transient faults.

    ``domains`` restricts the ladder to a subset of
    :data:`NOISE_DOMAINS` (``latency``, ``faults``, ``sched``,
    ``background``); ``None`` keeps every family.  A filtered profile is
    how an ablation attributes an accuracy or channel-capacity loss to
    one knob: the surviving families draw from the same per-family
    streams they would in the full profile, so e.g. the fault schedule
    of a faults-only run is byte-identical to the full run's.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError("noise level must be in [0, 1]")
    if domains is None:
        selected = frozenset(NOISE_DOMAINS)
    else:
        selected = frozenset(domains)
        unknown = selected - frozenset(NOISE_DOMAINS)
        if unknown:
            raise ValueError(
                f"unknown noise domain(s): {', '.join(sorted(unknown))}"
                f" (choose from {', '.join(NOISE_DOMAINS)})"
            )
    if level == 0.0:
        return InjectionConfig(seed=seed)
    interference: Tuple[InterferenceSpec, ...] = ()
    if "background" in selected and level >= 0.3:
        interference = (
            InterferenceSpec("cache_dirtier", intensity=level),
            InterferenceSpec("cpu_hog", intensity=level),
        )
        if level >= 0.7:
            interference += (
                InterferenceSpec("memory_hog", intensity=level),
                InterferenceSpec("dir_ager", intensity=level),
            )
    latency = touch_latency = None
    if "latency" in selected:
        latency = LatencyNoise(
            jitter_ns=int(20 * MICROS * level),
            spike_prob=0.10 * level,
            spike_ns=8 * MILLIS,
            granularity_ns=int(10 * MICROS * level),
        )
        # Page touches see interference per scheduling quantum, not per
        # 150 ns store: spikes are ~200x rarer and interrupt-scale, and
        # quantization would swamp the touch signal entirely.
        touch_latency = LatencyNoise(
            jitter_ns=int(100 * level),
            spike_prob=0.0005 * level,
            spike_ns=400 * MICROS,
        )
    return InjectionConfig(
        seed=seed,
        latency=latency,
        touch_latency=touch_latency,
        faults=TransientFaults(fail_prob=0.10 * level) if "faults" in selected else None,
        sched_jitter_ns=int(50 * MICROS * level) if "sched" in selected else 0,
        interference=interference,
    )


class _Noise:
    """One latency family bound to one stream: the terms each call draws.

    ``spike_prob`` is 0 unless both ``spike_prob`` and ``spike_ns`` are
    set, so a spike is drawn only then; ``tick`` is the timer
    granularity (0 for none).
    """

    __slots__ = ("stream", "jitter_ns", "spike_prob", "spike_ns", "tick")

    def __init__(self, stream: _Stream, latency: LatencyNoise) -> None:
        self.stream = stream
        self.jitter_ns = latency.jitter_ns
        spikes = bool(latency.spike_prob and latency.spike_ns)
        self.spike_prob = latency.spike_prob if spikes else 0.0
        self.spike_ns = latency.spike_ns
        self.tick = latency.granularity_ns


# ======================================================================
# The injector
# ======================================================================
class FaultInjector:
    """Wraps a kernel's syscall table with a deterministic fault plan.

    Usage::

        injector = FaultInjector(noise_profile(0.5, seed=7))
        injector.install(kernel)
        injector.spawn_interference(kernel, horizon_ns=2 * SECONDS)
        ...run workload...
        injector.uninstall()

    ``schedule`` records every injected action (in injection order) and
    :meth:`schedule_digest` hashes it for byte-identity assertions.
    """

    def __init__(self, config: Optional[InjectionConfig] = None) -> None:
        self.config = config or InjectionConfig()
        self._streams: Dict[Tuple[str, str], _Stream] = {}
        # Bound on first use: (domain, kind) -> _Noise, or None for a
        # family that draws nothing; fault streams by syscall name.
        self._noise: Dict[Tuple[str, str], Optional[_Noise]] = {}
        self._fault_streams: Dict[str, _Stream] = {}
        self._wake_stream: Optional[_Stream] = None
        self._saved: Dict[str, Handler] = {}
        self._kernel: Optional[Any] = None
        self._consecutive: Dict[str, int] = {}
        self._obs: Any = None
        #: Every injected action: (domain, kind, index, detail).
        self.schedule: List[Tuple[str, str, int, int]] = []
        self.faults_injected = 0
        self.spikes_injected = 0
        self.jitter_total_ns = 0

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------
    def _stream(self, domain: str, kind: str) -> _Stream:
        key = (domain, kind)
        stream = self._streams.get(key)
        if stream is None:
            base = _fnv1a(f"{domain}/{kind}", _splitmix64(self.config.seed & _MASK64))
            stream = _Stream(base)
            self._streams[key] = stream
        return stream

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, kernel: Any) -> "FaultInjector":
        """Wrap ``kernel``'s dispatch table and layer hooks."""
        if self._kernel is not None:
            raise RuntimeError("injector is already installed")
        self._kernel = kernel
        self._obs = kernel.obs
        table: SyscallTable = kernel.syscalls
        for name in list(table.mapping()):
            self._saved[name] = table.override(name, self._wrap(name, table.get(name)))
        latency, touch = self.config.latency, self.config.touch_latency
        if (latency is not None and latency.active) or (
            touch is not None and touch.active
        ):
            kernel.fileio.inject = self
            kernel.vfs.inject = self
            kernel.vm.inject = self
        if self.config.sched_jitter_ns:
            kernel.scheduler.wake_delay_hook = self._wake_delay
        return self

    def uninstall(self) -> None:
        """Restore the stock handlers and hooks."""
        kernel = self._kernel
        if kernel is None:
            return
        table: SyscallTable = kernel.syscalls
        for name, handler in self._saved.items():
            table.override(name, handler)
        self._saved.clear()
        if kernel.fileio.inject is self:
            kernel.fileio.inject = None
        if kernel.vfs.inject is self:
            kernel.vfs.inject = None
        if kernel.vm.inject is self:
            kernel.vm.inject = None
        if kernel.scheduler.wake_delay_hook == self._wake_delay:
            kernel.scheduler.wake_delay_hook = None
        self._kernel = None
        self._obs = None

    # ------------------------------------------------------------------
    # Dispatch-level wrapper: transient faults + call-level jitter
    # ------------------------------------------------------------------
    def _wrap(self, name: str, handler: Handler) -> Handler:
        faults = self.config.faults
        fault_eligible = (
            faults is not None and faults.active and name in faults.syscalls
        )
        latency = self.config.latency
        call_jitter = (
            latency is not None and latency.active and name not in PROBE_SYSCALLS
        )

        def injected(process: Any, *args: Any) -> Any:
            if fault_eligible and self._draw_fault(name):
                raise self._make_fault(name)
            outcome = handler(process, *args)
            if not call_jitter or outcome is BLOCK:
                return outcome
            value, duration = outcome
            return value, self._noisy_ns("call", name, duration)

        return injected

    def _draw_fault(self, name: str) -> bool:
        faults = self.config.faults
        assert faults is not None
        stream = self._fault_streams.get(name)
        if stream is None:
            stream = self._fault_streams[name] = self._stream("fault", name)
        if stream.next_float() >= faults.fail_prob:
            self._consecutive[name] = 0
            return False
        streak = self._consecutive.get(name, 0)
        if streak >= faults.max_consecutive:
            # Cap the losing streak so bounded retries always succeed.
            self._consecutive[name] = 0
            return False
        self._consecutive[name] = streak + 1
        return True

    def _make_fault(self, name: str) -> SimOSError:
        faults = self.config.faults
        assert faults is not None
        self.faults_injected += 1
        index = self._fault_streams[name].counter
        self.schedule.append(("fault", name, index, 1))
        obs = self._obs
        if obs is not None:
            obs.count("inject.fault")
            obs.count(f"inject.fault.{name}")
            obs.event("inject.fault", syscall=name, errno=faults.errno)
        if faults.errno == "EINTR":
            return Interrupted(f"injected EINTR in {name}")
        return TryAgain(f"injected EAGAIN in {name}")

    # ------------------------------------------------------------------
    # Latency noise (probe-level hook and call-level helper)
    # ------------------------------------------------------------------
    def probe_elapsed(self, kind: str, elapsed_ns: int) -> int:
        """Noise one probe observation; called from the kernel layers.

        ``kind`` is the probe family (``pread``/``stat``/``touch``), so
        the vectored and sequential forms of one family consume the same
        stream in the same order — a batched sweep observes exactly the
        noise its sequential twin would have.
        """
        return self._noisy_ns("probe", kind, elapsed_ns)

    def probe_noise_block(
        self, kind: str, elapsed_ns: int, n: int
    ) -> Optional[Tuple[List[int], Callable[[int], None]]]:
        """``n`` sequential :meth:`probe_elapsed` calls, drawn as one block.

        Returns ``None`` when the family draws nothing (the probes keep
        ``elapsed_ns``).  Otherwise returns ``(times, commit)``:
        ``times[i]`` is what the i-th of ``n`` sequential
        ``probe_elapsed(kind, elapsed_ns)`` calls would return — same
        draws in the same order, same truncation and tick — and
        ``commit(k)`` applies exactly the first ``k`` calls' side
        effects (stream counter, spike schedule and counters, jitter
        total).  Nothing changes until ``commit``, so a caller can
        read the times, decide how many probes it keeps, and commit
        only those.
        """
        noise = self._bound("probe", kind)
        if noise is None:
            return None
        stream = noise.stream
        jitter_ns, spike_prob, spike_ns = noise.jitter_ns, noise.spike_prob, noise.spike_ns
        per_call = bool(jitter_ns) + bool(spike_prob)
        draws = stream.peek_floats(per_call * n)
        if jitter_ns:
            times = [elapsed_ns + int(draw * jitter_ns) for draw in draws[0::per_call]]
        else:
            times = [elapsed_ns] * n
        spike_calls: List[int] = []
        if spike_prob:
            spike_calls = [
                i for i, draw in enumerate(draws[per_call - 1 :: per_call]) if draw < spike_prob
            ]
            for i in spike_calls:
                times[i] += spike_ns
        tick = noise.tick
        if tick:
            times = [-(-total // tick) * tick for total in times]
        first = stream.counter

        def commit(k: int) -> None:
            stream.counter = first + per_call * k
            # A spike is scheduled at the counter just past call i's draws.
            for i in spike_calls:
                if i >= k:
                    break
                self._note_spike(kind, first + per_call * (i + 1), spike_ns)
            self.jitter_total_ns += sum(times[:k]) - k * elapsed_ns

        return times, commit

    def _bound(self, domain: str, kind: str) -> Optional[_Noise]:
        """The noise a ``(domain, kind)`` observation draws, bound on first
        use; ``None`` when its family is inactive (no stream is made)."""
        try:
            return self._noise[domain, kind]
        except KeyError:
            pass
        latency = self.config.latency
        if kind == "touch" and self.config.touch_latency is not None:
            latency = self.config.touch_latency
        noise = None
        if latency is not None and latency.active:
            noise = _Noise(self._stream(domain, kind), latency)
        self._noise[domain, kind] = noise
        return noise

    def _note_spike(self, kind: str, index: int, spike_ns: int) -> None:
        self.spikes_injected += 1
        self.schedule.append(("spike", kind, index, spike_ns))
        obs = self._obs
        if obs is not None:
            obs.count("inject.spike")
            obs.count(f"inject.spike.{kind}")

    def _noisy_ns(self, domain: str, kind: str, elapsed_ns: int) -> int:
        noise = self._bound(domain, kind)
        if noise is None:
            return elapsed_ns
        stream = noise.stream
        total = elapsed_ns
        if noise.jitter_ns:
            total += int(stream.next_float() * noise.jitter_ns)
        if noise.spike_prob and stream.next_float() < noise.spike_prob:
            total += noise.spike_ns
            self._note_spike(kind, stream.counter, noise.spike_ns)
        tick = noise.tick
        if tick:
            total = -(-total // tick) * tick
        self.jitter_total_ns += total - elapsed_ns
        return total

    # ------------------------------------------------------------------
    # Scheduler interference
    # ------------------------------------------------------------------
    def _wake_delay(self, pid: int, at: int) -> int:
        stream = self._wake_stream
        if stream is None:
            stream = self._wake_stream = self._stream("sched", "wake")
        delay = int(stream.next_float() * self.config.sched_jitter_ns)
        if delay:
            self.jitter_total_ns += delay
        return delay

    # ------------------------------------------------------------------
    # Background interference processes
    # ------------------------------------------------------------------
    def spawn_interference(self, kernel: Any, horizon_ns: int, mount: str = "mnt0") -> List[Any]:
        """Spawn this config's interference processes onto ``kernel``.

        Each runs until the simulated clock passes ``horizon_ns``
        (absolute), then exits, so ``kernel.run()`` still terminates.
        Returns the spawned :class:`~repro.sim.proc.process.Process`es.
        """
        spawned = []
        for name, gen in interference_bodies(self.config, horizon_ns, mount):
            spawned.append(kernel.spawn(gen, name))
            if kernel.obs is not None:
                kernel.obs.count("inject.interference_procs")
        return spawned

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def schedule_digest(self) -> int:
        """Order-sensitive 64-bit digest of every injected action."""
        h = _FNV_OFFSET
        for domain, kind, index, detail in self.schedule:
            h = _fnv1a(f"{domain}|{kind}|{index}|{detail}", h)
        return h

    def stats(self) -> Dict[str, int]:
        return {
            "faults_injected": self.faults_injected,
            "spikes_injected": self.spikes_injected,
            "jitter_total_ns": self.jitter_total_ns,
            "schedule_entries": len(self.schedule),
        }


# ======================================================================
# Interference process bodies
# ======================================================================
def _interference_rng(seed: int) -> random.Random:
    return random.Random(seed & _MASK64)


def _cache_dirtier(spec: InterferenceSpec, seed: int, horizon_ns: int, mount: str) -> Generator:
    """Stream reads and writes through the page cache until the horizon.

    Creates its own working file, then alternates bursts of random
    preads (pulling pages in, evicting the victim's) with write bursts
    (dirtying pages and provoking writeback) and short rests.  Shrugs
    off its own injected transients — interference must keep interfering
    on the machine it is making hostile.
    """
    rng = _interference_rng(seed)
    path = f"{mount}/.inject-dirtier-{seed & 0xFFFF:04x}"
    size = int(2 * MIB + 6 * MIB * spec.intensity)
    fd = (yield sc.create(path)).value
    yield sc.write(fd, size)
    burst = max(int(8 * spec.intensity), 2)
    rest_ns = int(20 * MILLIS * (1.0 - 0.8 * spec.intensity)) + 1 * MILLIS
    while True:
        now = (yield sc.gettime()).value
        if now >= horizon_ns:
            break
        for _ in range(burst):
            offset = rng.randrange(max(size - 64 * 1024, 1))
            try:
                yield sc.pread(fd, offset, 64 * 1024)
            except SimOSError:
                continue
        try:
            yield sc.pwrite(fd, rng.randrange(max(size // 2, 1)), 128 * 1024)
        except SimOSError:
            pass
        yield sc.sleep(rest_ns)
    yield sc.close(fd)
    return "dirtier-done"


def _cpu_hog(spec: InterferenceSpec, seed: int, horizon_ns: int, mount: str) -> Generator:
    """Burn CPU in bursts, contending for the machine's compute slots."""
    rng = _interference_rng(seed)
    burst_ns = int(1 * MILLIS + 4 * MILLIS * spec.intensity)
    rest_ns = int(10 * MILLIS * (1.0 - 0.8 * spec.intensity)) + 1 * MILLIS
    while True:
        now = (yield sc.gettime()).value
        if now >= horizon_ns:
            break
        yield sc.compute(burst_ns + rng.randrange(1 * MILLIS))
        yield sc.sleep(rest_ns)
    return "hog-done"


def _memory_hog(spec: InterferenceSpec, seed: int, horizon_ns: int, mount: str) -> Generator:
    """Spike memory pressure: allocate, touch, hold, release, repeat."""
    rng = _interference_rng(seed)
    page = 4096
    spike_bytes = int(4 * MIB + 12 * MIB * spec.intensity)
    hold_ns = int(30 * MILLIS * spec.intensity) + 5 * MILLIS
    rest_ns = int(40 * MILLIS * (1.0 - 0.8 * spec.intensity)) + 5 * MILLIS
    while True:
        now = (yield sc.gettime()).value
        if now >= horizon_ns:
            break
        region = (yield sc.vm_alloc(spike_bytes, "inject-memhog")).value
        npages = spike_bytes // page
        step = max(npages // 64, 1)
        try:
            yield sc.touch_batch(region, 0, npages, step)
        except SimOSError:
            pass
        yield sc.sleep(hold_ns + rng.randrange(1 * MILLIS))
        yield sc.vm_free(region)
        yield sc.sleep(rest_ns)
    return "memhog-done"


def _dir_ager(spec: InterferenceSpec, seed: int, horizon_ns: int, mount: str) -> Generator:
    """Churn a scratch directory: create/delete bursts fragment layout."""
    rng = _interference_rng(seed)
    scratch = f"{mount}/.inject-ager-{seed & 0xFFFF:04x}"
    try:
        yield sc.mkdir(scratch)
    except SimOSError:
        pass
    live: List[str] = []
    serial = 0
    burst = max(int(6 * spec.intensity), 2)
    rest_ns = int(25 * MILLIS * (1.0 - 0.8 * spec.intensity)) + 2 * MILLIS
    while True:
        now = (yield sc.gettime()).value
        if now >= horizon_ns:
            break
        for _ in range(burst):
            name = f"{scratch}/a{serial}"
            serial += 1
            try:
                fd = (yield sc.create(name)).value
                yield sc.write(fd, rng.randrange(1, 32) * 1024)
                yield sc.close(fd)
                live.append(name)
            except SimOSError:
                continue
        while len(live) > burst:
            victim = live.pop(rng.randrange(len(live)))
            try:
                yield sc.unlink(victim)
            except SimOSError:
                continue
        yield sc.sleep(rest_ns)
    return "ager-done"


_INTERFERENCE_FACTORIES = {
    "cache_dirtier": _cache_dirtier,
    "cpu_hog": _cpu_hog,
    "memory_hog": _memory_hog,
    "dir_ager": _dir_ager,
}

def interference_bodies(
    config: InjectionConfig, horizon_ns: int, mount: str = "mnt0"
) -> List[Tuple[str, Generator]]:
    """The config's interference processes as ``(name, generator)`` pairs.

    :meth:`FaultInjector.spawn_interference` spawns these free-running
    beside a ``kernel.run()`` workload; an arena caller instead wants to
    *interleave* them as quantum-parked clients (a free-running sleeper
    would burn its whole horizon inside the first slice, because
    ``run_until_blocked`` advances the clock to future-ready processes).
    Each body's seed derives from ``(config.seed, kind, index)``.
    """
    bodies: List[Tuple[str, Generator]] = []
    for index, spec in enumerate(config.interference):
        seed = _splitmix64(
            _fnv1a(f"interference/{spec.kind}/{index}", config.seed & _MASK64)
        )
        factory = _INTERFERENCE_FACTORIES[spec.kind]
        bodies.append(
            (
                f"inject-{spec.kind}{index}",
                factory(spec, seed, horizon_ns, f"/{mount}"),
            )
        )
    return bodies


# Re-exported convenience: the horizon helper most callers want.
def horizon_after(kernel: Any, ns: int = 2 * SECONDS) -> int:
    """An absolute interference horizon ``ns`` past the kernel's clock."""
    return kernel.clock.now + ns
