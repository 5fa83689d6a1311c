"""``repro.obs.profile`` — the host-time hot-path section profiler.

Everything else in ``repro.obs`` is stamped with *simulated* time; this
module is the one deliberate exception.  It answers the question the
perf roadmap item needs answered — *where does the host CPU actually go
when the simulator runs?* — by accumulating ``perf_counter_ns``
intervals into named, get-or-create sections:

* ``sched.next_ready`` — the scheduler pop in ``Kernel.run``;
* ``proc.advance`` — generator resumption (the ICL/user host code that
  runs between syscalls);
* ``syscall.<name>`` — each syscall handler, measured around the
  dispatch-table call (errors are not sampled).

ICL host code (analysis loops included) runs inside a generator resume,
so it counts in ``proc.advance``: a section inside it would be counted
twice.

The profiler is *flat* — no stack, no self-time bookkeeping — because
simulated processes interleave and spans of host work close out of LIFO
order.  Every section brackets a disjoint stretch of host time, so the
shares in :meth:`Profiler.rows` are over all sections and sum to 1.
What runs inside a handler is for an outside-in tracer to split up
(the e2e benchmark's ``--trace`` times ``FileIO.pread_at``,
``NameLayer.resolve_memo`` and ``VMLayer.touch_one`` as callees of the
batch handlers).

The profiler is **off by default** and global (:data:`PROFILER`), so a
hook costs one attribute load and two branches when it is off::

    profiling = PROFILER.enabled
    t0 = perf_counter_ns() if profiling else 0
    ... work ...
    if profiling:
        PROFILER.add("section.name", perf_counter_ns() - t0)

The disabled path is measured by ``benchmarks/bench_obs_overhead.py``
to be indistinguishable from noise — which is what lets the hooks stay
compiled-in everywhere.  Enable with :meth:`Profiler.enable` (or
``bench_core_speed.py --profile``), read results with
:meth:`Profiler.rows` / :meth:`Profiler.report`.  Do not toggle
``enabled`` while a kernel is mid-run: loops hoist the flag and would
mix sampled and unsampled iterations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.views import render_table

__all__ = ["Section", "Profiler", "PROFILER"]


class Section:
    """One named accumulator: call count and total host nanoseconds."""

    __slots__ = ("name", "calls", "total_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_ns = 0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    def __repr__(self) -> str:
        return f"Section({self.name!r}, calls={self.calls}, total_ns={self.total_ns})"


class Profiler:
    """Get-or-create section registry with a negligible disabled path."""

    __slots__ = ("enabled", "_sections")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._sections: Dict[str, Section] = {}

    # -- control -------------------------------------------------------
    def enable(self) -> "Profiler":
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Forget all sections entirely."""
        self._sections.clear()

    # -- recording -----------------------------------------------------
    def add(self, name: str, elapsed_ns: int) -> None:
        """Record one sample (call when :attr:`enabled` — see module doc)."""
        section = self._sections.get(name)
        if section is None:
            self._sections[name] = section = Section(name)
        section.calls += 1
        section.total_ns += elapsed_ns

    # -- reporting -----------------------------------------------------
    def rows(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        """Sections as plain dicts, largest total first (JSON-ready).

        ``share`` is a fraction of the total over all sections, so the
        shares of an untruncated table sum to 1.
        """
        ordered = sorted(
            (s for s in self._sections.values() if s.calls),
            key=lambda s: s.total_ns,
            reverse=True,
        )
        if top is not None:
            ordered = ordered[:top]
        total = sum(s.total_ns for s in self._sections.values()) or 1
        return [
            {
                "section": s.name,
                "calls": s.calls,
                "total_ms": round(s.total_ns / 1e6, 3),
                "ns_per_call": round(s.mean_ns, 1),
                "share": round(s.total_ns / total, 4),
            }
            for s in ordered
        ]

    def report(self, top: Optional[int] = None) -> str:
        """Aligned text table of the hottest sections."""
        rows = self.rows(top)
        header = ["section", "calls", "total-ms", "ns/call", "share"]
        cells = [
            [
                str(r["section"]),
                str(r["calls"]),
                f"{r['total_ms']:.3f}",
                f"{r['ns_per_call']:.0f}",
                f"{float(str(r['share'])) * 100:.1f}%",
            ]
            for r in rows
        ]
        return render_table(header, cells, left=True)


#: The process-wide profiler every hook points at.  Off by default; the
#: hooks' disabled path is one attribute load and two branches.
PROFILER = Profiler()
