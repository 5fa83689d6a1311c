"""Clock (second-chance) replacement — the ``linux22`` personality.

An approximation of LRU: pages sit on a circular list with a reference
bit; the hand sweeps, clearing bits, and evicts the first unreferenced
page it finds.  Because the hand moves in insertion order and scans clear
long runs of bits, eviction proceeds in *chunks* of pages inserted
together — the spatial-locality property Figure 1 of the paper measures
(the presence of one probed page predicts its neighbours).

Victim preference mirrors Linux 2.2: the kernel ran ``shrink_mmap``
(page/buffer-cache pages) to exhaustion before ever calling ``swap_out``
on process memory, so file pages are reclaimed first, absolutely, and
anonymous pages are touched only when no file page remains.  That
asymmetry is what lets gb-fastsort's granted buffers coexist with heavy
file streaming without paging (§4.3.3) and gives MAC its "available =
everything but competitors' anonymous memory" semantics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Tuple

from repro.sim.cache.base import AnonKey, CachePolicy, PageEntry, PageKey


class _Frame:
    __slots__ = ("referenced", "dirty")

    def __init__(self, dirty: bool) -> None:
        self.referenced = True
        self.dirty = dirty


class ClockPolicy(CachePolicy):
    """Second-chance over two insertion-ordered rings (file, then anon).

    Each ring is an OrderedDict walked from the front; giving a page a
    second chance moves it to the back (equivalent to the hand passing
    it and wrapping around), which keeps victim selection O(1) amortized.
    """

    def __init__(self) -> None:
        super().__init__()
        self._file_ring: "OrderedDict[PageKey, _Frame]" = OrderedDict()
        self._anon_ring: "OrderedDict[PageKey, _Frame]" = OrderedDict()

    def _ring_of(self, key: PageKey) -> "OrderedDict[PageKey, _Frame]":
        return self._anon_ring if isinstance(key, AnonKey) else self._file_ring

    def _reference(self, key: PageKey, dirty: bool) -> bool:
        frame = self._ring_of(key).get(key)
        if frame is None:
            return False
        frame.referenced = True
        frame.dirty = frame.dirty or dirty
        return True

    def _insert(self, key: PageKey, dirty: bool) -> _Frame:
        """A page's cell is its frame: identity-stable while resident."""
        frame = self._ring_of(key)[key] = _Frame(dirty)
        return frame

    def cells_of(self, keys):
        """The frames of ``keys``, one ring lookup each; None if one is absent."""
        ring_of = self._ring_of
        frames = []
        for key in keys:
            frame = ring_of(key).get(key)
            if frame is None:
                return None
            frames.append(frame)
        return frames

    def reference_cells(self, cells, dirty: bool = False) -> None:
        """Batched clock hit: a reference-bit store per frame, no hashing."""
        if dirty:
            for frame in cells:
                frame.referenced = True
                frame.dirty = True
        else:
            for frame in cells:
                frame.referenced = True
        self.stats.hits += len(cells)

    def insert_absent_many(self, keys, dirty: bool):
        """Batched insert at the back of the ring; returns the new frames."""
        cells = []
        append = cells.append
        ring_of = self._ring_of
        for key in keys:
            frame = _Frame(dirty)
            ring_of(key)[key] = frame
            append(frame)
        self.stats.misses += len(keys)
        return cells

    def contains(self, key: PageKey) -> bool:
        return key in self._ring_of(key)

    def is_dirty(self, key: PageKey) -> bool:
        frame = self._ring_of(key).get(key)
        return bool(frame and frame.dirty)

    def mark_clean(self, key: PageKey) -> None:
        frame = self._ring_of(key).get(key)
        if frame is not None:
            frame.dirty = False

    def clean_cells(self, cells) -> None:
        """Batched writeback: a dirty-bit store per frame, no hashing."""
        for frame in cells:
            frame.dirty = False

    def remove(self, key: PageKey) -> bool:
        return self._ring_of(key).pop(key, None) is not None

    def demote(self, key: PageKey) -> None:
        ring = self._ring_of(key)
        frame = ring.get(key)
        if frame is not None:
            frame.referenced = False
            ring.move_to_end(key, last=False)
            self.stats.demotions += 1

    def flush_oldest_dirty(self, count: int) -> List[PageKey]:
        """One pass over the file ring (anon pages never sit on it)."""
        if count <= 0:
            return []
        found: List[Tuple[PageKey, _Frame]] = []
        for key, frame in self._file_ring.items():
            if frame.dirty:
                found.append((key, frame))
                if len(found) >= count:
                    break
        move = self._file_ring.move_to_end
        for key, frame in found:
            frame.dirty = False
            frame.referenced = False
            move(key, last=False)
        self.stats.demotions += len(found)
        return [key for key, _frame in found]

    @staticmethod
    def _sweep(ring: "OrderedDict[PageKey, _Frame]", victims: List[PageEntry],
               count: int) -> None:
        # Each pass around the ring clears every reference bit, so the
        # loop terminates: by the second pass a page is unreferenced
        # unless re-touched, and pop_victims runs atomically.
        while ring and len(victims) < count:
            key, frame = ring.popitem(last=False)
            if frame.referenced:
                frame.referenced = False
                ring[key] = frame  # second chance: rotate to back
            else:
                victims.append(PageEntry(key, frame.dirty))

    def pop_victims(self, count: int) -> List[PageEntry]:
        victims: List[PageEntry] = []
        self._sweep(self._file_ring, victims, count)
        if len(victims) < count:
            self._sweep(self._anon_ring, victims, count)
        self.stats.evictions += len(victims)
        return victims

    def __len__(self) -> int:
        return len(self._file_ring) + len(self._anon_ring)

    def keys(self) -> Iterator[PageKey]:
        yield from self._file_ring.keys()
        yield from self._anon_ring.keys()
