"""``repro.obs`` — the unified observability layer.

One :class:`Observability` instance belongs to each simulated kernel
(``kernel.obs``): a metrics registry plus a structured event stream,
both stamped with the kernel's *simulated* clock.  It is always-on and
cheap — hot-path instruments are plain attribute bumps, and everything
pull-style (disk stats, page-daemon stats, scheduler stats) costs
nothing until :meth:`Observability.collect` reads it.

ICLs accept an ``obs=`` keyword (default: the shared :data:`DISABLED`
no-op instance); pass ``kernel.obs`` to put inference-phase spans such
as ``fccd.probe_batch`` and ``mac.alloc_round`` on the same simulated
timeline as kernel events such as ``kernel.reclaim`` — the join the
paper's whole methodology rests on.

:func:`capture_metrics` is the runner-side bridge: inside its context,
every enabled ``Observability`` constructed (i.e. each trial kernel)
registers itself, and the capture's merged samples travel back across
the process pool as plain dicts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    EventStream,
    NULL_SPAN,
    Span,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BOUNDS_NS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SnapshotStats,
    merge_samples,
)

__all__ = [
    "Observability", "DISABLED", "capture_metrics", "MetricsCapture",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "SnapshotStats",
    "EventStream", "Span", "merge_samples",
    "DEFAULT_LATENCY_BOUNDS_NS", "DEFAULT_EVENT_CAPACITY",
]


class Observability:
    """Metrics + events for one simulated machine.

    ``clock`` is anything with a ``now`` property (the kernel's
    :class:`~repro.sim.clock.Clock`); with no clock, records are stamped
    at time 0.  A disabled instance skips all recording with one branch
    per call and never registers with an active capture.
    """

    def __init__(self, clock: Any = None, *, enabled: bool = True,
                 event_capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        self._clock = clock
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.events = EventStream(self.now, capacity=event_capacity)
        # Per-syscall (counter, histogram) pairs, cached by name so the
        # kernel's dispatch loop pays one dict lookup, not an f-string
        # plus two registry lookups, per call.
        self._syscall_instruments: Dict[str, tuple] = {}
        #: Pid of the currently-dispatched process (attribution source
        #: for events, spans, and the per-pid syscall ledger); ``None``
        #: host-side.  Written by :meth:`set_pid` from the kernel's
        #: step loop.
        self.current_pid: Optional[int] = None
        #: Per-pid syscall ledger: ``{pid: {syscall_name: count}}``.
        #: Kept out of the metrics registry so cross-trial merges never
        #: collide across pids; exported as one ``pid_stats`` record per
        #: pid by :meth:`dump_records`.
        self.syscalls_by_pid: Dict[int, Dict[str, int]] = {}
        # (pid, its ledger dict) memo: consecutive syscalls from the
        # same process — the common schedule — skip the outer lookup.
        self._ledger_pid: Optional[int] = None
        self._ledger: Dict[str, int] = {}
        #: Opt-in strace: when set, the kernel emits one ``kernel.syscall``
        #: event per completed or failed call, carrying ``syscall``,
        #: ``args``, ``start_ns`` (of the first attempt, so a call that
        #: blocked shows its whole wait), ``elapsed_ns`` and, for a
        #: failure, ``error`` (the errno name).  Off by default: the
        #: records are the one part of the stream that grows per call.
        self.syscall_records = False
        if enabled and _ACTIVE_CAPTURE is not None:
            _ACTIVE_CAPTURE.attach(self)

    def now(self) -> int:
        return self._clock.now if self._clock is not None else 0

    def set_pid(self, pid: Optional[int]) -> None:
        """Attribute subsequent records to ``pid`` (``None`` detaches).

        Called by the kernel once per dispatched process; two attribute
        writes, so it is safe on the hottest loop.
        """
        self.current_pid = pid
        self.events.current_pid = pid

    # -- metrics ---------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).value += amount

    def gauge_set(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).value = value

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def record_syscall(self, name: str, elapsed_ns: int) -> None:
        """Hot path: one count, one latency observation, one ledger bump.

        The per-pid ledger attributes the call to :attr:`current_pid`
        (three dict operations — cheap next to the histogram's bucket
        search).  Ledger invariant, checked by the kernel fuzzer: the
        per-pid counts sum to the aggregate ``.calls`` counters.
        """
        if not self.enabled:
            return
        pair = self._syscall_instruments.get(name)
        if pair is None:
            pair = (
                self.metrics.counter(f"kernel.syscall.{name}.calls"),
                self.metrics.histogram(f"kernel.syscall.{name}.latency_ns"),
            )
            self._syscall_instruments[name] = pair
        pair[0].value += 1
        pair[1].observe(elapsed_ns)
        pid = self.current_pid
        if pid is not None:
            if pid == self._ledger_pid:
                by_pid = self._ledger
            else:
                by_pid = self.syscalls_by_pid.get(pid)
                if by_pid is None:
                    self.syscalls_by_pid[pid] = by_pid = {}
                self._ledger_pid = pid
                self._ledger = by_pid
            by_pid[name] = by_pid.get(name, 0) + 1

    def record_syscall_error(self, name: str) -> None:
        if self.enabled:
            self.metrics.counter(f"kernel.syscall.{name}.errors").value += 1

    # -- events ----------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        if self.enabled:
            self.events.emit(name, **attrs)

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return NULL_SPAN
        return self.events.span(name, **attrs)

    def span_batch(self, name: str, probes: int, **attrs: Any):
        """One span standing in for ``probes`` individual probes.

        The batched ICL paths emit one span per vectored syscall instead
        of per probe; the ``probes`` attribute keeps the probe count the
        observe driver reports, so trace volume scales with batches
        while the analysis still sees how many probes each batch held.
        """
        if not self.enabled:
            return NULL_SPAN
        return self.events.span(name, probes=probes, **attrs)

    # -- export ----------------------------------------------------------
    def collect(self) -> List[Dict[str, Any]]:
        """Every metric as plain-dict samples (events stay in the ring)."""
        if not self.enabled:
            return []
        return self.metrics.collect()

    def dump_records(self) -> Iterator[Dict[str, Any]]:
        """Metrics, per-pid ledgers, then events/spans (``write_jsonl``-ready)."""
        from repro.obs.export import event_records

        yield from self.collect()
        for pid in sorted(self.syscalls_by_pid):
            yield {
                "type": "pid_stats",
                "pid": pid,
                "syscalls": dict(self.syscalls_by_pid[pid]),
            }
        yield from event_records(self.events)


#: Shared no-op instance — the default ``obs`` for ICLs so the
#: instrumentation costs one branch when nobody is watching.  Never
#: flip its ``enabled`` flag; create a real instance instead.
DISABLED = Observability(enabled=False)


# ----------------------------------------------------------------------
# Per-trial capture (the runner-side bridge)
# ----------------------------------------------------------------------
class MetricsCapture:
    """Collects samples from every Observability born inside a capture."""

    def __init__(self) -> None:
        self._sources: List[Observability] = []

    def attach(self, obs: Observability) -> None:
        self._sources.append(obs)

    def samples(self) -> List[Dict[str, Any]]:
        """Merged samples across all attached sources (picklable)."""
        return merge_samples(*(obs.collect() for obs in self._sources))


_ACTIVE_CAPTURE: Optional[MetricsCapture] = None


@contextmanager
def capture_metrics() -> Iterator[MetricsCapture]:
    """Capture the metrics of every kernel built inside the context.

    Used by :func:`repro.experiments.runner._invoke` so each trial's
    simulator metrics ride back to the parent process alongside the
    trial's value.  Nesting restores the previous capture on exit.
    """
    global _ACTIVE_CAPTURE
    saved = _ACTIVE_CAPTURE
    capture = MetricsCapture()
    _ACTIVE_CAPTURE = capture
    try:
        yield capture
    finally:
        _ACTIVE_CAPTURE = saved
