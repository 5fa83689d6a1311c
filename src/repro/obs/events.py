"""Structured events and nestable spans on the simulated clock.

An :class:`EventStream` is a bounded ring of plain-dict records, each
stamped with *simulated* time so ICL-side activity and kernel-side
activity land on one timeline:

* **point events** — ``stream.emit("kernel.reclaim", pages=32)`` record
  a single instant;
* **spans** — ``with stream.span("fccd.probe_batch", offset=0): ...``
  record an interval with ``start_ns``/``end_ns``, so a kernel event
  can be *joined* against the ICL phase it happened inside.

Spans nest: a span started while another is open records that span's id
as its ``parent_id``.  Because several simulated processes can
interleave on one kernel, spans may also *close* out of strict LIFO
order — ending a span removes it from the open set wherever it sits.
Misuse mirrors :class:`~repro.toolbox.timers.Stopwatch`: ``end()``
before ``start()`` raises ``RuntimeError``, as does ending twice.
Spans left open are surfaced by :meth:`EventStream.unclosed` and, in
strict mode, :meth:`EventStream.check_closed` raises.

**Attribution.**  The stream carries a :attr:`EventStream.current_pid`
slot, set by the kernel to the pid of the currently-dispatched process
(see ``Kernel._step``).  Every record emitted and every span *started*
while a pid is current is stamped with it (``"pid"``) — host-side
metadata only, invisible to simulated time — which is what lets N
clients sharing one kernel each read back a filtered stream
(:class:`repro.obs.views.ObsView`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

DEFAULT_EVENT_CAPACITY = 100_000


class Span:
    """One timed interval; usable as a context manager or explicitly.

    ``attrs`` may be amended any time before ``end()`` (e.g. recording
    an outcome discovered mid-span); the final dict is what lands in
    the stream's record.
    """

    __slots__ = ("stream", "name", "attrs", "span_id", "parent_id",
                 "start_ns", "end_ns", "pid")

    def __init__(self, stream: "EventStream", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.stream = stream
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self.pid: Optional[int] = None

    def start(self) -> "Span":
        if self.span_id is not None:
            raise RuntimeError(f"span {self.name!r} started twice")
        self.span_id = self.stream._open_span(self)
        self.start_ns = self.stream.now()
        self.pid = self.stream.current_pid
        return self

    def end(self) -> int:
        """Close the span; returns its simulated duration in ns."""
        if self.span_id is None:
            raise RuntimeError("Span.end() before start()")
        if self.end_ns is not None:
            raise RuntimeError(f"span {self.name!r} ended twice")
        self.end_ns = self.stream.now()
        self.stream._close_span(self)
        return self.end_ns - self.start_ns

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "span", "name": self.name, "span_id": self.span_id,
            "parent_id": self.parent_id, "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.start_ns is not None and self.end_ns is not None:
            record["elapsed_ns"] = self.end_ns - self.start_ns
        if self.pid is not None:
            record["pid"] = self.pid
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class _NullSpan:
    """Shared no-op span handed out by a disabled observability layer."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: Dict[str, Any] = {}

    def start(self) -> "_NullSpan":
        return self

    def end(self) -> int:
        return 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class EventStream:
    """Bounded ring of event/span records stamped by ``now``."""

    def __init__(self, now: Callable[[], int],
                 capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("event capacity must be positive")
        self.now = now
        self.records: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._open: List[Span] = []
        self._next_span_id = 1
        #: Pid of the currently-dispatched simulated process (set by the
        #: kernel's step loop, ``None`` between dispatches / host-side).
        #: Stamped onto every emitted record and every started span.
        self.current_pid: Optional[int] = None

    # -- recording -------------------------------------------------------
    def emit(self, name: str, **attrs: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {"type": "event", "name": name,
                                  "t_ns": self.now()}
        if self.current_pid is not None:
            record["pid"] = self.current_pid
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        return record

    def span(self, name: str, **attrs: Any) -> Span:
        """A new (not yet started) span; use ``with`` or call start()."""
        return Span(self, name, attrs)

    def _open_span(self, span: Span) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        if self._open:
            span.parent_id = self._open[-1].span_id
        self._open.append(span)
        return span_id

    def _close_span(self, span: Span) -> None:
        # Processes interleave, so the closing span need not be the
        # innermost open one; remove it wherever it sits.
        self._open.remove(span)
        self.records.append(span.as_record())

    # -- inspection ------------------------------------------------------
    def unclosed(self) -> List[Span]:
        """Spans started but never ended, outermost first."""
        return list(self._open)

    def check_closed(self) -> None:
        """Raise if any span is still open (strict teardown check)."""
        if self._open:
            names = ", ".join(s.name for s in self._open)
            raise RuntimeError(f"unclosed span(s): {names}")

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("name") == name]

    def spans(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["type"] == "span"]

    def events(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["type"] == "event"]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()
