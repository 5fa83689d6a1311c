"""Strict least-recently-used replacement.

Used directly by the ``netbsd15`` personality's fixed-size buffer cache
and as the reference policy in tests (its behaviour is the easiest to
reason about, so property tests compare other policies against it).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List

from repro.sim.cache.base import AnonKey, CachePolicy, PageEntry, PageKey


_ABSENT = object()


class LRUPolicy(CachePolicy):
    """OrderedDict-backed LRU; most recent at the back, victims from the front."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: "OrderedDict[PageKey, bool]" = OrderedDict()

    def _reference(self, key: PageKey, dirty: bool) -> bool:
        pages = self._pages
        previous = pages.pop(key, _ABSENT)
        if previous is _ABSENT:
            return False
        pages[key] = previous or dirty
        return True

    def _insert(self, key: PageKey, dirty: bool) -> PageKey:
        self._pages[key] = dirty
        return key

    def reference_cells(self, cells, dirty: bool = False) -> None:
        """Batched LRU hit: cells are keys; one reorder pass per batch.

        ``_reference`` pops and re-appends with the or'd dirty bit; for
        a known-present key that is exactly ``move_to_end`` (plus a
        value store when dirtying), so the fused loop skips the pop.
        """
        pages = self._pages
        move = pages.move_to_end
        if dirty:
            for key in cells:
                pages[key] = True
                move(key)
        else:
            for key in cells:
                move(key)
        self.stats.hits += len(cells)

    def insert_absent_many(self, keys, dirty: bool):
        """Batched insert at the MRU end, in key order."""
        pages = self._pages
        for key in keys:
            pages[key] = dirty
        self.stats.misses += len(keys)
        return list(keys)

    def contains(self, key: PageKey) -> bool:
        return key in self._pages

    def is_dirty(self, key: PageKey) -> bool:
        return self._pages.get(key, False)

    def mark_clean(self, key: PageKey) -> None:
        if key in self._pages:
            self._pages[key] = False

    def remove(self, key: PageKey) -> bool:
        return self._pages.pop(key, None) is not None

    def pop_victims(self, count: int) -> List[PageEntry]:
        victims: List[PageEntry] = []
        while self._pages and len(victims) < count:
            key, dirty = self._pages.popitem(last=False)
            victims.append(PageEntry(key, dirty))
        self.stats.evictions += len(victims)
        return victims

    def demote(self, key: PageKey) -> None:
        if key in self._pages:
            self._pages.move_to_end(key, last=False)
            self.stats.demotions += 1

    def flush_oldest_dirty(self, count: int) -> List[PageKey]:
        """One pass from the LRU end, skipping anon pages."""
        if count <= 0:
            return []
        found: List[PageKey] = []
        for key, dirty in self._pages.items():
            if dirty and not isinstance(key, AnonKey):
                found.append(key)
                if len(found) >= count:
                    break
        pages = self._pages
        move = pages.move_to_end
        for key in found:
            pages[key] = False
            move(key, last=False)
        self.stats.demotions += len(found)
        return found

    def __len__(self) -> int:
        return len(self._pages)

    def keys(self) -> Iterator[PageKey]:
        return iter(self._pages.keys())
