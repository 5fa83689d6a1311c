"""Per-client views over a shared kernel's observability stream.

When N ICLs share one kernel (the multi-tenant arena of ROADMAP item 1),
``kernel.obs`` holds one interleaved stream.  Attribution (every record
stamped with the dispatching pid — see :mod:`repro.obs.events`) makes
that stream separable again: an :class:`ObsView` is one client's
read-only window, and :func:`interference_matrix` is the cross-client
report — who evicted whom, the paper's probe-perturbation tension as a
literal table.

Pid ``0`` is the *unattributed* bucket: records emitted host-side
(setup, teardown) before/after any process is current, and eviction
victims whose owner predates attribution.  Keeping it as a real bucket
makes the views a partition — the union of every per-pid view equals
the full stream, record for record — which is the invariant the fuzz
suite checks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "UNATTRIBUTED",
    "render_table",
    "ObsView",
    "split_by_pid",
    "interference_matrix",
    "render_matrix",
    "process_names",
    "client_rollup",
    "channel_summary",
]

#: The pid bucket for records no simulated process was dispatched for.
UNATTRIBUTED = 0


def render_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], *, left: bool = False
) -> str:
    """String cells in columns two spaces apart, under a dashed rule.

    Each column is as wide as its widest cell.  Cells are right-justified;
    ``left=True`` left-justifies them and strips each line's trailing
    padding.  Every text table in the package renders through here.
    """
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(header)]

    def line(cells: Sequence[str]) -> str:
        if left:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    return "\n".join([line(header), "  ".join("-" * w for w in widths), *map(line, rows)])


def split_by_pid(
    records: Iterable[Dict[str, Any]],
) -> Dict[int, List[Dict[str, Any]]]:
    """Partition records into per-pid lists (``0`` = unattributed).

    Every record lands in exactly one bucket, so concatenating the
    buckets in pid order is a permutation of the input — no record is
    dropped or duplicated.
    """
    buckets: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        pid = record.get("pid", UNATTRIBUTED)
        bucket = buckets.get(pid)
        if bucket is None:
            buckets[pid] = bucket = []
        bucket.append(record)
    return buckets


def interference_matrix(
    records: Iterable[Dict[str, Any]],
) -> Dict[int, Dict[int, int]]:
    """Who-evicted-whom counts from ``kernel.reclaim`` events.

    ``matrix[instigator][victim]`` counts reclaim events where
    ``instigator``'s miss forced an eviction whose majority victim was
    ``victim``.  Exactly one cell increments per reclaim event, so the
    sum over all cells equals the stream's reclaim-event count — the
    row-sum invariant the fuzzer asserts.  Diagonal cells are
    self-interference (a process thrashing its own pages); off-diagonal
    cells are the cross-client perturbation the paper is about.
    """
    matrix: Dict[int, Dict[int, int]] = {}
    for record in records:
        if record.get("type") != "event" or record.get("name") != "kernel.reclaim":
            continue
        attrs = record.get("attrs") or {}
        instigator = int(attrs.get("instigator_pid", UNATTRIBUTED))
        victim = int(attrs.get("victim_pid", UNATTRIBUTED))
        row = matrix.get(instigator)
        if row is None:
            matrix[instigator] = row = {}
        row[victim] = row.get(victim, 0) + 1
    return matrix


def process_names(records: Iterable[Dict[str, Any]]) -> Dict[int, str]:
    """``{pid: comm}`` from the stream's ``kernel.spawn`` events."""
    names: Dict[int, str] = {}
    for record in records:
        if record.get("type") == "event" and record.get("name") == "kernel.spawn":
            attrs = record.get("attrs") or {}
            if "pid" in attrs:
                names[int(attrs["pid"])] = str(attrs.get("comm", ""))
    return names


def render_matrix(
    matrix: Mapping[int, Mapping[int, int]],
    names: Optional[Mapping[int, str]] = None,
    top: Optional[int] = 16,
) -> str:
    """The interference matrix as an aligned text table.

    Rows are instigators, columns victims; pid 0 renders as ``(kernel)``.

    ``top`` bounds the table for multi-tenant streams: only the ``top``
    instigators by row-sum and ``top`` victims by column-sum are
    printed, with a trailing note counting the elided rows/columns and
    the evictions they account for — a 1024-client arena renders a
    readable hot-spot table instead of a 1024x1024 wall.  Pass ``None``
    to print everything; matrices within the bound render exactly as
    before.
    """
    names = names or {}

    def label(pid: int) -> str:
        if pid == UNATTRIBUTED:
            return "(kernel)"
        comm = names.get(pid)
        return f"{pid}:{comm}" if comm else str(pid)

    row_sums = {pid: sum(row.values()) for pid, row in matrix.items()}
    col_sums: Dict[int, int] = {}
    for row in matrix.values():
        for victim, count in row.items():
            col_sums[victim] = col_sums.get(victim, 0) + count
    instigators = sorted(matrix)
    victims = sorted(col_sums)
    elided_note = ""
    if top is not None and (len(instigators) > top or len(victims) > top):
        # Hottest first for the cut, sorted by pid for the display.
        keep_rows = sorted(
            sorted(instigators, key=lambda p: (-row_sums[p], p))[:top]
        )
        keep_cols = sorted(
            sorted(victims, key=lambda p: (-col_sums[p], p))[:top]
        )
        dropped_rows = [p for p in instigators if p not in set(keep_rows)]
        dropped_cols = [p for p in victims if p not in set(keep_cols)]
        dropped_evictions = sum(row_sums[p] for p in dropped_rows)
        elided_note = (
            f"... {len(dropped_rows)} evictor row(s) and "
            f"{len(dropped_cols)} victim column(s) elided "
            f"({dropped_evictions} evictions outside the top-{top} rows)"
        )
        instigators = keep_rows
        victims = keep_cols
    else:
        victims = sorted(set(victims) | set(instigators))
    header = ["evictor \\ victim"] + [label(p) for p in victims] + ["row-sum"]
    rows: List[List[str]] = []
    for instigator in instigators:
        row = matrix[instigator]
        rows.append(
            [label(instigator)]
            + [str(row.get(victim, 0)) for victim in victims]
            + [str(row_sums[instigator])]
        )
    table = render_table(header, rows)
    return f"{table}\n{elided_note}" if elided_note else table


def client_rollup(
    records: Iterable[Dict[str, Any]],
) -> Dict[int, Dict[str, int]]:
    """Per-pid accounting in one pass over a dumped record stream.

    Returns ``{pid: {records, spans, probes, syscalls, evictions_caused,
    evictions_suffered}}``.  ``probes`` sums the ``probes`` attribute of
    batch spans (``span_batch``), ``syscalls`` the per-pid ledger rows
    (``pid_stats`` records).  The arena report is built from this
    instead of N :class:`ObsView` accessors because each view accessor
    re-scans the stream — O(N * records) across a thousand clients,
    versus one scan here.
    """
    rollup: Dict[int, Dict[str, int]] = {}

    def cell(pid: int) -> Dict[str, int]:
        entry = rollup.get(pid)
        if entry is None:
            rollup[pid] = entry = {
                "records": 0,
                "spans": 0,
                "probes": 0,
                "syscalls": 0,
                "evictions_caused": 0,
                "evictions_suffered": 0,
            }
        return entry

    for record in records:
        rtype = record.get("type")
        if rtype == "pid_stats":
            entry = cell(int(record.get("pid", UNATTRIBUTED)))
            entry["syscalls"] += sum((record.get("syscalls") or {}).values())
            continue
        if rtype not in ("event", "span"):
            continue
        pid = record.get("pid", UNATTRIBUTED)
        entry = cell(pid)
        entry["records"] += 1
        if rtype == "span":
            entry["spans"] += 1
            attrs = record.get("attrs") or {}
            probes = attrs.get("probes")
            if probes:
                entry["probes"] += int(probes)
        elif record.get("name") == "kernel.reclaim":
            attrs = record.get("attrs") or {}
            instigator = int(attrs.get("instigator_pid", UNATTRIBUTED))
            victim = int(attrs.get("victim_pid", UNATTRIBUTED))
            cell(instigator)["evictions_caused"] += 1
            cell(victim)["evictions_suffered"] += 1
    return rollup


class ObsView:
    """One client's filtered, read-only window onto a shared stream.

    Construct with the shared :class:`~repro.obs.Observability` and the
    client's pid (e.g. ``ObsView(kernel.obs, probe_proc.pid)``).  The
    view never copies eagerly and never mutates the underlying stream;
    each accessor re-reads it, so a view stays valid across further
    kernel runs.
    """

    def __init__(self, obs: Any, pid: int) -> None:
        self.obs = obs
        self.pid = pid

    # -- the filtered stream -------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every event/span record attributed to this view's pid."""
        return [
            r for r in self.obs.events
            if r.get("pid", UNATTRIBUTED) == self.pid
        ]

    def events(self) -> List[Dict[str, Any]]:
        return [r for r in self.records() if r["type"] == "event"]

    def spans(self) -> List[Dict[str, Any]]:
        return [r for r in self.records() if r["type"] == "span"]

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records() if r.get("name") == name]

    # -- per-client accounting -----------------------------------------
    def syscall_counts(self) -> Dict[str, int]:
        """This client's per-syscall call counts (the per-pid ledger)."""
        return dict(self.obs.syscalls_by_pid.get(self.pid, {}))

    # -- cross-client interference -------------------------------------
    def interference_matrix(self) -> Dict[int, Dict[int, int]]:
        """The whole machine's who-evicted-whom matrix.

        Deliberately *not* filtered to this pid: interference is a
        relation between clients, and each tenant of a gray-box system
        can see the machine-wide contention it is part of.
        """
        return interference_matrix(self.obs.events)

    def evictions_caused(self) -> int:
        """Reclaim events this client's misses forced (its matrix row)."""
        return sum(self.interference_matrix().get(self.pid, {}).values())

    def evictions_suffered(self) -> int:
        """Reclaim events whose majority victim was this client."""
        return sum(
            row.get(self.pid, 0)
            for row in self.interference_matrix().values()
        )

    def __repr__(self) -> str:
        return f"ObsView(pid={self.pid}, records={len(self.records())})"


def channel_summary(
    records: Iterable[Dict[str, Any]],
) -> Dict[int, Dict[str, Any]]:
    """Per-pid covert-channel activity from ``channel.*`` spans.

    Returns ``{pid: {role, cells, total_ns, mean_cell_ns}}`` where
    ``role`` is ``"tx"`` or ``"rx"`` (from the span name's
    ``tx_cell``/``rx_cell`` suffix) and the durations come from each
    span's ``end_ns - start_ns``.  The defender's eviction-free view of
    who is signalling: a sender's per-cell cost is the channel's
    footprint, a receiver's cell count times mean duration bounds how
    fast it can possibly sample.
    """
    summary: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        name = record.get("name", "")
        if not name.startswith("channel."):
            continue
        start, end = record.get("start_ns"), record.get("end_ns")
        if start is None or end is None:
            continue
        pid = record.get("pid", UNATTRIBUTED)
        entry = summary.get(pid)
        if entry is None:
            summary[pid] = entry = {
                "role": "rx" if name.endswith("rx_cell") else "tx",
                "cells": 0,
                "total_ns": 0,
            }
        entry["cells"] += 1
        entry["total_ns"] += int(end) - int(start)
    for entry in summary.values():
        entry["mean_cell_ns"] = (
            entry["total_ns"] / entry["cells"] if entry["cells"] else 0.0
        )
    return summary
