"""Byte-per-page residency mirrors for the vectorized fault/read paths.

Per-key dict residency (hash a ``FileKey``/``AnonKey``, probe the
policy's OrderedDict) costs a Python-level hash per page.  But the page
*indexes* inside one owner — one file's page numbers, one process's
virtual pages — are small dense integers, so residency per owner is
representable as one byte per page, the vector ``mincore()`` returns:
membership of a whole run is one ``bytearray`` search in C instead of K
dict probes.

:class:`ResidencyIndex` maintains, per owner, two parallel structures:

* ``present`` — a ``bytearray``, 1 where the page is resident in the
  mirrored pool.  Run membership: ``0 in present[a:b:s]``; span ends:
  ``present.find(0 or 1, a, b)``.
* ``cells`` — a Python list of the policy's per-page *replay cells*
  (the cell contract in :mod:`repro.sim.cache.base`), ``None`` where
  absent.  Once a run tests fully present, slicing this list hands
  the policy everything it needs to apply the batch hit — no key
  construction, no hashing.

The index is a pure mirror: the :class:`~repro.sim.vm.physmem.MemoryManager`
updates it at every point where a file or anonymous page enters or
leaves a pool, and nothing else writes it.  Cells stay valid exactly as
long as the page stays resident (policies guarantee cell identity across
hits), which is the same lifetime the presence byte tracks — so there is
no epoch to check: a set byte *is* the validity proof for its cell.

Scalar hot paths are untouched by design: maintaining the mirror costs
one byte store + one list store per insert/remove (paths that already
do reclaim probes and dict surgery), and zero on the hit paths.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

_MIN_PAGES = 16


class OwnerResidency:
    """One owner's presence vector + cell list, grown geometrically."""

    __slots__ = ("present", "cells")

    def __init__(self, size_hint: int = _MIN_PAGES) -> None:
        size = max(size_hint, _MIN_PAGES)
        self.present = bytearray(size)
        self.cells: List[Any] = [None] * size

    def ensure(self, size: int) -> None:
        current = len(self.present)
        if size <= current:
            return
        grown = max(size, current * 2)
        self.present.extend(bytes(grown - current))
        self.cells.extend([None] * (grown - current))


class ResidencyIndex:
    """Owner-keyed residency mirror of one page pool's file or anon keys."""

    __slots__ = ("_owners",)

    def __init__(self) -> None:
        self._owners: Dict[Hashable, OwnerResidency] = {}

    # Maintenance (memory-manager side) --------------------------------
    def set(self, owner: Hashable, index: int, cell: Any) -> None:
        slab = self._owners.get(owner)
        if slab is None:
            slab = self._owners[owner] = OwnerResidency(index + 1)
        else:
            slab.ensure(index + 1)
        slab.present[index] = 1
        slab.cells[index] = cell

    def clear(self, owner: Hashable, index: int) -> None:
        slab = self._owners.get(owner)
        if slab is not None and index < len(slab.present):
            slab.present[index] = 0
            slab.cells[index] = None

    def clear_many(self, owner: Hashable, indexes: List[int]) -> None:
        """Clear a batch of one owner's pages under a single lookup."""
        slab = self._owners.get(owner)
        if slab is None:
            return
        present = slab.present
        cells = slab.cells
        limit = len(present)
        for index in indexes:
            if index < limit:
                present[index] = 0
                cells[index] = None

    def drop_owner(self, owner: Hashable) -> None:
        self._owners.pop(owner, None)

    def register_run(self, owner: Hashable, start: int, cells: List[Any]) -> None:
        """Bulk-set a contiguous run just inserted into the pool."""
        slab = self._owners.get(owner)
        stop = start + len(cells)
        if slab is None:
            slab = self._owners[owner] = OwnerResidency(stop)
        else:
            slab.ensure(stop)
        slab.present[start:stop] = b"\x01" * len(cells)
        slab.cells[start:stop] = cells

    # Run queries (fast-path side) --------------------------------------
    def count(self, owner: Hashable) -> int:
        """How many of ``owner``'s pages are resident."""
        slab = self._owners.get(owner)
        return 0 if slab is None else slab.present.count(1)

    def cells_if_all_present(
        self, owner: Hashable, start: int, stop: int, step: int = 1
    ) -> Optional[List[Any]]:
        """Cells for ``range(start, stop, step)`` iff every page is resident.

        One sliced membership test; ``None`` (nothing mutated) when any
        page is absent or unknown, or the range is empty.
        """
        slab = self._owners.get(owner)
        if slab is None:
            return None
        present = slab.present
        if stop > len(present):
            return None
        view = present[start:stop:step]
        if not view or 0 in view:
            return None
        return slab.cells[start:stop:step]

    def cells_at_if_all_present(
        self, owner: Hashable, indexes: List[int]
    ) -> Optional[List[Any]]:
        """Cells at arbitrary ``indexes`` (ints, any order, dups ok)."""
        slab = self._owners.get(owner)
        if slab is None or not indexes:
            return None
        present = slab.present
        if max(indexes) >= len(present):
            return None
        for i in indexes:
            if not present[i]:
                return None
        cells = slab.cells
        return [cells[i] for i in indexes]

    def span(
        self, owner: Hashable, start: int, stop: int
    ) -> Tuple[int, Optional[List[Any]]]:
        """The same-state span of ``[start, stop)`` that begins at ``start``.

        Returns ``(end, cells)``: every page of ``[start, end)`` is
        resident (``cells`` is their cell list) or every one is absent
        (``cells`` is None), and ``end`` is as large as that allows.
        One ``find`` of the first absent page of a resident span, or of
        the first resident page of an absent one, gives the end; pages
        past the vector are absent.  Requires ``start < stop``.
        """
        slab = self._owners.get(owner)
        if slab is None:
            return stop, None
        present = slab.present
        limit = len(present)
        if start >= limit:
            return stop, None
        if present[start]:
            end = present.find(0, start, stop)
            if end < 0:
                end = min(stop, limit)
            return end, slab.cells[start:end]
        end = present.find(1, start, stop)
        return (stop if end < 0 else end), None

    def all_absent_run(self, owner: Hashable, start: int, stop: int) -> bool:
        """True when no page of ``[start, stop)`` is resident."""
        slab = self._owners.get(owner)
        if slab is None:
            return True
        return slab.present.find(1, start, stop) < 0


__all__ = ["OwnerResidency", "ResidencyIndex"]
