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
  dispatch-table call (errors are not sampled);
* subsystem sections inside the batch fast paths
  (``pread_batch.fallback``, ``stat_batch.walk``, ``touch_batch.fault``)
  that split vectored-call time into its fast-loop and fallback parts;
* ``icl.*`` sections around the ICLs' host-side analysis loops.

The profiler itself is *flat* — no stack, no self-time bookkeeping —
because simulated processes interleave and spans of host work close out
of LIFO order.  Top-level sections (``sched.next_ready``,
``proc.advance``, ``syscall.*``, ``icl.*``) bracket disjoint stretches
of host time; the dotted batch subsections (``pread_batch.*`` etc.)
deliberately nest *inside* their ``syscall.<name>`` section, so read
them as a drill-down of that section, not as additional wall time.

The profiler is **off by default** and global (:data:`PROFILER`), so
hot paths hook it with one attribute load and one branch::

    if PROFILER.enabled:
        _t0 = perf_counter_ns()
        ... work ...
        PROFILER.add("section.name", perf_counter_ns() - _t0)
    else:
        ... work ...

The disabled path costs a single predictable branch per hook — measured
by ``benchmarks/bench_obs_overhead.py`` to be indistinguishable from
noise — which is what lets the hooks stay compiled-in everywhere.
Enable with :meth:`Profiler.enable` (or ``bench_core_speed.py
--profile``), read results with :meth:`Profiler.rows` /
:meth:`Profiler.report`.  Do not toggle ``enabled`` while a kernel is
mid-run: loops hoist the flag and would mix sampled and unsampled
iterations.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.obs.views import render_table

__all__ = ["Section", "Profiler", "PROFILER"]

#: Layer prefixes of the top-level sections.  Any other dotted name
#: (``stat_batch.walk``) is a drill-down nested inside its parent.
TOP_LEVEL_PREFIXES = ("syscall.", "sched.", "proc.", "icl.")


def _is_top_level(name: str) -> bool:
    return name.startswith(TOP_LEVEL_PREFIXES) or "." not in name


class Section:
    """One named accumulator: call count and total host nanoseconds.

    Hot loops may hold the section and bump the two counters directly
    (``sec.calls += 1; sec.total_ns += dt``) instead of paying the
    registry lookup in :meth:`Profiler.add` per sample.
    """

    __slots__ = ("name", "calls", "total_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_ns = 0

    def add(self, elapsed_ns: int) -> None:
        self.calls += 1
        self.total_ns += elapsed_ns

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

    def reset(self) -> None:
        """Drop every accumulated sample (sections stay registered)."""
        for section in self._sections.values():
            section.calls = 0
            section.total_ns = 0

    def clear(self) -> None:
        """Forget all sections entirely."""
        self._sections.clear()

    # -- recording -----------------------------------------------------
    def section(self, name: str) -> Section:
        """The named section, created on first use."""
        section = self._sections.get(name)
        if section is None:
            self._sections[name] = section = Section(name)
        return section

    def add(self, name: str, elapsed_ns: int) -> None:
        """Record one sample (call when :attr:`enabled` — see module doc)."""
        section = self._sections.get(name)
        if section is None:
            self._sections[name] = section = Section(name)
        section.calls += 1
        section.total_ns += elapsed_ns

    def time(self) -> int:
        """The profiler's clock (host ``perf_counter_ns``)."""
        return perf_counter_ns()

    # -- reporting -----------------------------------------------------
    def rows(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        """Sections as plain dicts, largest total first (JSON-ready).

        ``share`` is a fraction of the top-level total: top-level rows
        sum to 1, a drill-down reads as its slice of the same time.
        """
        ordered = sorted(
            (s for s in self._sections.values() if s.calls),
            key=lambda s: s.total_ns,
            reverse=True,
        )
        if top is not None:
            ordered = ordered[:top]
        total = sum(
            s.total_ns for s in self._sections.values() if _is_top_level(s.name)
        ) or 1
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
#: hooks' disabled path is one attribute load and one branch.
PROFILER = Profiler()
