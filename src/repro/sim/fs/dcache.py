"""Name-lookup cache (dcache): memoized path walks for the stat fast path.

Path resolution is the dominant cost of every metadata probe: each
``stat`` re-parses the path, re-walks the component chain, and re-runs
the per-component dictionary churn even when every inode-table block and
directory data page it will touch is already resident.  FLDC's entire
information channel is ``stat`` (i-number order approximates layout
order), so that slow walk sits on the critical path of every stat-heavy
experiment.

This module memoizes *fully resolved* walks.  A :class:`WalkEntry`
records everything a repeat resolution of the same path string needs:

* the filesystem and disk the walk landed on, and the final i-number;
* the exact, ordered sequence of page keys the walk touches — the root
  inode-table block, then per component the parent directory's data
  pages followed by the child's inode-table block;
* the walk's **fully-resident replay cost**.  When every key is cached,
  a walk charges exactly one ``page_copy_ns(128)`` per inode-table
  read and *zero* time per resident directory data page, so the cost is
  ``(components + 1) * page_copy_ns(128)`` — computed once at memoize
  time.

The fast path (``NameLayer``) looks the keys' cells up through the
cache policy's ``cells_of``, re-references them with one
``reference_cells`` call and charges the memoized cost; simulated time
and every cache side effect (hit counts, recency updates) are
bit-identical to the slow walk.  If *any* key is absent the lookup
mutates nothing and the caller falls back to the slow walk, which
re-memoizes.

Invalidation is deliberately coarse: a per-filesystem **generation
counter** bumped on every namespace mutation (``create`` / ``mkdir`` /
``rmdir`` / ``unlink`` / ``rename``).  An entry stamped with an old
generation is discarded on lookup.  Residency changes (evictions, the
oracle's ``flush_file_cache``) need no generation bump — they bump the
memory manager's file-eviction epoch, and the cell lookup that follows
detects any non-resident key and falls back.  File *data* growth
never invalidates either: walks touch directory data and inode-table
pages only, and directory pages can only grow via a namespace mutation.

The cache is host-side machinery: it changes no simulated behaviour,
so its statistics are **not** registered with the observability layer
(the golden traces pin the metric set).  Tests read :attr:`NameCache.stats`
directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import SnapshotStats
from repro.sim.cache.base import PageKey


@dataclass
class NameCacheStats(SnapshotStats):
    """Host-side accounting for the name cache (not an obs metric).

    ``hits``/``misses`` count :meth:`NameCache.lookup` outcomes; a
    ``stale`` lookup (entry found but generation-expired) also counts as
    a miss.  ``invalidations`` counts generation bumps, not discarded
    entries — expiry is lazy.

    The live counters are plain attributes on :class:`NameCache` (one
    attribute hop per lookup instead of two); :attr:`NameCache.stats`
    assembles this snapshot on demand.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    invalidations: int = 0


class WalkEntry:
    """One memoized path walk (see module docstring for the fields).

    ``inode`` is the resolved :class:`Inode` object itself, not just the
    i-number: inode objects are only ever *created* by ``create`` (a
    generation-bumping namespace mutation) and are mutated in place
    thereafter, so a current-generation entry's inode reference is
    always the live one.

    ``epoch``/``cells`` memoize the residency verification: when
    ``cells_of`` finds every key resident, the entry records the memory
    manager's file-eviction epoch and the keys' cells.  While the epoch
    is unchanged no page has left the pool, so a repeat fast-path hit
    re-references those cells — skipping every per-key lookup — with
    the same effects as a clean touch per key.
    """

    __slots__ = (
        "generation", "fs", "disk", "fs_id", "ino", "inode", "keys",
        "resident_cost_ns", "fast_elapsed_ns", "epoch", "cells",
        "stat_epoch", "stat_cached",
    )

    def __init__(
        self,
        generation: int,
        fs: Any,
        disk: Any,
        inode: Any,
        keys: Tuple[PageKey, ...],
        resident_cost_ns: int,
        fast_elapsed_ns: int,
    ) -> None:
        self.generation = generation
        self.fs = fs
        self.disk = disk
        self.fs_id: int = fs.fs_id
        self.ino: int = inode.ino
        self.inode = inode
        self.keys = keys
        self.resident_cost_ns = resident_cost_ns
        # Syscall overhead + resident cost, pre-summed: what a fully
        # resident stat charges before injector noise.
        self.fast_elapsed_ns = fast_elapsed_ns
        self.epoch: int = -1  # no residency verification yet
        self.cells: Any = None
        # Memoized StatResult, valid while NameLayer.stat_epoch is
        # unchanged (no possibly-mutating syscall dispatched since).
        self.stat_epoch: int = -1
        self.stat_cached: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalkEntry(gen={self.generation}, fs={self.fs_id}, ino={self.ino}, "
            f"keys={len(self.keys)}, cost={self.resident_cost_ns})"
        )


class NameCache:
    """Path-string → :class:`WalkEntry`, generation-checked on lookup.

    Bounded FIFO (insertion order): the bound only protects host memory
    against unbounded path churn; which entries survive has no simulated
    effect, so no recency bookkeeping is spent on lookups.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("name cache capacity must be >= 1")
        self._entries: "OrderedDict[str, WalkEntry]" = OrderedDict()
        self._capacity = capacity
        self._generation: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.invalidations = 0

    @property
    def stats(self) -> NameCacheStats:
        """A snapshot of the live counters (see :class:`NameCacheStats`)."""
        return NameCacheStats(
            hits=self.hits,
            misses=self.misses,
            stale=self.stale,
            invalidations=self.invalidations,
        )

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def generation_of(self, fs_id: int) -> int:
        return self._generation.get(fs_id, 0)

    def invalidate(self, fs_id: int) -> None:
        """Bump ``fs_id``'s generation: every memoized walk on it expires."""
        self._generation[fs_id] = self._generation.get(fs_id, 0) + 1
        self.invalidations += 1

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def hot_view(self) -> Tuple[Any, Any, Any]:
        """``(entries, entries.get, generation.get)`` for fused loops.

        ``stat_batch`` inlines :meth:`lookup` — an entry is current when
        ``entry.generation == generation_get(entry.fs_id, 0)``; a stale
        entry must be deleted from ``entries``.  The caller is
        responsible for accounting: accumulate locally, then flush into
        :attr:`hits` / :attr:`misses` / :attr:`stale` before returning,
        so the counters are exact at every syscall boundary.
        """
        return self._entries, self._entries.get, self._generation.get

    def lookup(self, path: str) -> Optional[WalkEntry]:
        """A current-generation entry for ``path``, or None."""
        entry = self._entries.get(path)
        if entry is None:
            self.misses += 1
            return None
        if entry.generation != self._generation.get(entry.fs_id, 0):
            del self._entries[path]
            self.stale += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self,
        path: str,
        fs: Any,
        disk: Any,
        inode: Any,
        keys: Tuple[PageKey, ...],
        resident_cost_ns: int,
        fast_elapsed_ns: int,
    ) -> WalkEntry:
        entries = self._entries
        if path not in entries and len(entries) >= self._capacity:
            entries.popitem(last=False)
        entry = WalkEntry(
            self._generation.get(fs.fs_id, 0), fs, disk, inode, keys,
            resident_cost_ns, fast_elapsed_ns,
        )
        entries[path] = entry
        return entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["NameCache", "NameCacheStats", "WalkEntry"]
