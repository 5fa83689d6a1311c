"""Common types for page-replacement policies.

Pages are identified by small tuples so they hash fast and print
readably:

* ``FileKey(fs_id, ino, page_index)``  — file data pages
* ``MetaKey(fs_id, block)``            — inode/metadata blocks
* ``AnonKey(pid, page_index)``         — anonymous (heap) pages
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.obs.metrics import SnapshotStats


class FileKey(NamedTuple):
    fs_id: int
    ino: int
    index: int


class MetaKey(NamedTuple):
    fs_id: int
    block: int


class AnonKey(NamedTuple):
    pid: int
    index: int


PageKey = Union[FileKey, MetaKey, AnonKey]


class PageEntry(NamedTuple):
    """A victim nomination: which page, and whether it needs writeback."""

    key: PageKey
    dirty: bool


@dataclass
class CacheStats(SnapshotStats):
    """Access accounting shared by every replacement policy.

    ``hits``/``misses`` count :meth:`CachePolicy.touch` calls on
    present/absent pages, ``evictions`` counts victims surrendered by
    :meth:`CachePolicy.pop_victims`, and ``demotions`` counts
    drop-behind moves (:meth:`CachePolicy.demote` on a present page).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    demotions: int = 0


class CachePolicy(ABC):
    """Interface every replacement policy implements.

    Policies never perform I/O and never enforce capacity; they only
    maintain recency/reference state and nominate victims on demand.
    Every policy maintains a :class:`CacheStats`; hit/miss accounting is
    centralized in the base class's :meth:`touch` / :meth:`touch_cached`
    template methods, so subclasses implement only the two stat-free
    primitives :meth:`_reference` and :meth:`_insert` (plus eviction
    accounting inside ``pop_victims`` / ``demote``).
    """

    def __init__(self) -> None:
        self.stats = CacheStats()

    # Access template: one shared hit/miss bookkeeping path ------------
    def touch(self, key: PageKey, dirty: bool = False) -> None:
        """Record an access; inserts the page if it is not present."""
        if self._reference(key, dirty):
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            self._insert(key, dirty)

    def touch_cached(self, key: PageKey, dirty: bool = False) -> bool:
        """Touch the page only if present; True on a hit.

        The batched-syscall fast path's primitive: one policy lookup,
        no insert, no miss accounting on the absent case (the caller
        falls back to the full :meth:`touch` path, which counts it).
        Shared here so every policy gets the fused form for free.
        """
        if self._reference(key, dirty):
            self.stats.hits += 1
            return True
        return False

    # Batched update primitives ----------------------------------------
    #
    # Re-referencing resident pages in bulk goes through *cells*: a cell
    # is whatever lets this policy re-reference one resident page
    # without hashing its key again (clock hands out its frame objects;
    # key-addressed policies use the key itself).  A page's cell is
    # handed out when it is inserted (:meth:`insert_absent`,
    # :meth:`insert_absent_many`) or looked up (:meth:`cells_of`).
    # Cells are identity-stable while the page stays resident — across
    # hits and dirtying — and are invalidated by removal.  The memory
    # manager's residency index keeps them beside its presence bits (the
    # vectorized fault and read paths), and the name cache keeps a
    # walk's cells while the file-eviction epoch says nothing has left
    # the pool.
    def cells_of(self, keys: Sequence[PageKey]) -> Optional[List[Any]]:
        """The cells of ``keys`` in order if every key is resident, else None.

        Mutates nothing: no stats, no recency movement.  Repeated keys
        get repeated cells, so ``reference_cells(cells_of(keys))`` has
        exactly the effect of a clean :meth:`touch_cached` per key.
        Key-addressed policies keep this default: their cell is the key.
        """
        contains = self.contains
        for key in keys:
            if not contains(key):
                return None
        return list(keys)

    def reference_cells(self, cells: Sequence[Any], dirty: bool = False) -> None:
        """Re-reference resident pages by cell; ≡ ``len(cells)`` touch hits.

        Precondition: every cell belongs to a currently-resident page.
        Must leave recency/reference/dirty state and the hit count
        exactly as that many individual :meth:`touch` calls (all hits)
        in cell order would.
        """
        reference = self._reference
        for key in cells:
            reference(key, dirty)
        self.stats.hits += len(cells)

    def insert_absent(self, key: PageKey, dirty: bool) -> Any:
        """Insert one absent page; ≡ a :meth:`touch` miss.  Returns its cell.

        The miss half of a caller that already tried :meth:`touch_cached`:
        no second membership probe, and no lookup to find the new cell.
        """
        self.stats.misses += 1
        return self._insert(key, dirty)

    def insert_absent_many(self, keys: Sequence[PageKey], dirty: bool) -> List[Any]:
        """Insert absent pages as one batch; ≡ ``len(keys)`` touch misses.

        Precondition: no key is present and the caller has verified
        capacity (no reclaim may be needed at any intermediate step).
        Returns the new pages' cells in key order.
        """
        insert = self._insert
        cells = [insert(key, dirty) for key in keys]
        self.stats.misses += len(keys)
        return cells

    @abstractmethod
    def _reference(self, key: PageKey, dirty: bool) -> bool:
        """Re-reference ``key`` iff present; True on a hit.

        Must update recency/reference state and the dirty bit exactly
        as a hit in the policy's replacement discipline demands, and
        must NOT touch :attr:`stats` — the template methods do that.
        """

    @abstractmethod
    def _insert(self, key: PageKey, dirty: bool) -> Any:
        """Insert an absent page as the most recently used (no stats).

        Returns the new page's cell (see the batched update primitives).
        """

    @abstractmethod
    def contains(self, key: PageKey) -> bool:
        """True if the page is currently cached."""

    @abstractmethod
    def is_dirty(self, key: PageKey) -> bool:
        """True if the page is cached and has unwritten modifications."""

    @abstractmethod
    def mark_clean(self, key: PageKey) -> None:
        """Clear the dirty bit after a writeback (no-op if absent)."""

    def clean_cells(self, cells: Sequence[Any]) -> None:
        """Clear the dirty bits of resident pages by cell; ≡ a
        :meth:`mark_clean` per page.

        Key-addressed policies keep this default: their cell is the key.
        """
        mark_clean = self.mark_clean
        for key in cells:
            mark_clean(key)

    @abstractmethod
    def remove(self, key: PageKey) -> bool:
        """Drop the page (truncate/unlink/free); True if it was present."""

    @abstractmethod
    def pop_victims(self, count: int) -> List[PageEntry]:
        """Remove and return up to ``count`` victims, best-first."""

    def demote(self, key: PageKey) -> None:
        """Make the page the next eviction candidate (drop-behind).

        Called after a written-back page's data is safely on disk so
        streaming writers recycle their own pages.  Policies without a
        meaningful "front" may ignore it; the default is a no-op.
        """

    @abstractmethod
    def flush_oldest_dirty(self, count: int) -> List[PageKey]:
        """Clean and demote the first ``count`` dirty non-anon pages.

        The bdflush primitive.  Takes the first ``count`` keys of
        :meth:`keys` that are dirty and not :class:`AnonKey`, then, in
        that order, applies ``mark_clean(key); demote(key)`` to each, and
        returns them.  Policies implement it as one walk over their own
        storage, so a flush costs a flag test per page passed over rather
        than a hash lookup.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached pages."""

    @abstractmethod
    def keys(self) -> Iterator[PageKey]:
        """Iterate over cached page keys (oracle/testing use)."""

    # Convenience shared by all policies -------------------------------
    def remove_many(self, keys: Iterable[PageKey]) -> int:
        removed = 0
        for key in keys:
            if self.remove(key):
                removed += 1
        return removed
