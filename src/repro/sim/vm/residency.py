"""Array-backed residency mirrors for the vectorized fault/read paths.

Per-key dict residency (hash a ``FileKey``/``AnonKey``, probe the
policy's OrderedDict) cannot be vectorized: the hashing is Python-level.
But the page *indexes* inside one owner — one file's page numbers, one
process's virtual pages — are small dense integers, so residency per
owner is representable as a numpy byte array where membership of a whole
run is a single sliced ``.all()`` instead of K dict probes.

:class:`ResidencyIndex` maintains, per owner, two parallel structures:

* ``present`` — a ``uint8`` numpy array, 1 where the page is resident in
  the mirrored pool.  Vectorized membership: ``present[a:b:s].all()``.
* ``cells`` — a Python list of the policy's per-page *replay cells*
  (the cell contract in :mod:`repro.sim.cache.base`), ``None`` where
  absent.  Once a run tests fully present, slicing this list hands
  the policy everything it needs to apply the batch hit — no key
  construction, no hashing.

The index is a pure mirror: the :class:`~repro.sim.vm.physmem.MemoryManager`
updates it at every point where a file or anonymous page enters or
leaves a pool, and nothing else writes it.  Cells stay valid exactly as
long as the page stays resident (policies guarantee cell identity across
hits), which is the same lifetime the presence bit tracks — so there is
no epoch to check: a set bit *is* the validity proof for its cell.

Scalar hot paths are untouched by design: maintaining the mirror costs
one array store + one list store per insert/remove (paths that already
do reclaim probes and dict surgery), and zero on the hit paths.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

_MIN_PAGES = 16


class OwnerResidency:
    """One owner's presence bitmap + cell list, grown geometrically."""

    __slots__ = ("present", "cells")

    def __init__(self, size_hint: int = _MIN_PAGES) -> None:
        size = max(size_hint, _MIN_PAGES)
        self.present = np.zeros(size, dtype=np.uint8)
        self.cells: List[Any] = [None] * size

    def ensure(self, size: int) -> None:
        current = self.present.shape[0]
        if size <= current:
            return
        grown = max(size, current * 2)
        fresh = np.zeros(grown, dtype=np.uint8)
        fresh[:current] = self.present
        self.present = fresh
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
        if slab is not None and index < slab.present.shape[0]:
            slab.present[index] = 0
            slab.cells[index] = None

    def clear_many(self, owner: Hashable, indexes: List[int]) -> None:
        """Clear a batch of one owner's pages under a single lookup."""
        slab = self._owners.get(owner)
        if slab is None:
            return
        present = slab.present
        cells = slab.cells
        limit = present.shape[0]
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
        slab.present[start:stop] = 1
        slab.cells[start:stop] = cells

    # Vectorized queries (fast-path side) ------------------------------
    def count(self, owner: Hashable) -> int:
        """How many of ``owner``'s pages are resident."""
        slab = self._owners.get(owner)
        return 0 if slab is None else int(np.count_nonzero(slab.present))

    def cells_if_all_present(
        self, owner: Hashable, start: int, stop: int, step: int = 1
    ) -> Optional[List[Any]]:
        """Cells for ``range(start, stop, step)`` iff every page is resident.

        One sliced membership test; ``None`` (nothing mutated, nothing
        allocated beyond the view) when any page is absent or unknown.
        """
        slab = self._owners.get(owner)
        if slab is None:
            return None
        present = slab.present
        if stop > present.shape[0]:
            return None
        view = present[start:stop:step]
        if view.shape[0] == 0 or not view.all():
            return None
        return slab.cells[start:stop:step]

    def cells_at_if_all_present(
        self, owner: Hashable, indexes: "np.ndarray"
    ) -> Optional[List[Any]]:
        """Cells at arbitrary ``indexes`` (int array, any order, dups ok)."""
        slab = self._owners.get(owner)
        if slab is None:
            return None
        present = slab.present
        if indexes.shape[0] == 0 or int(indexes.max()) >= present.shape[0]:
            return None
        if not present[indexes].all():
            return None
        cells = slab.cells
        return [cells[i] for i in indexes.tolist()]

    def span(
        self, owner: Hashable, start: int, stop: int
    ) -> Tuple[int, Optional[List[Any]]]:
        """The same-state span of ``[start, stop)`` that begins at ``start``.

        Returns ``(end, cells)``: every page of ``[start, end)`` is
        resident (``cells`` is their cell list) or every one is absent
        (``cells`` is None), and ``end`` is as large as that allows.
        One numpy ``argmin`` (first absent page of a resident span) or
        ``argmax`` (first resident page of an absent one) finds the end.
        Requires ``start < stop``.
        """
        slab = self._owners.get(owner)
        if slab is None:
            return stop, None
        present = slab.present
        limit = present.shape[0]
        if start >= limit:
            return stop, None
        view = present[start:min(stop, limit)]
        if view[0]:
            change = int(view.argmin())
            end = start + (change or view.shape[0])
            return end, slab.cells[start:end]
        change = int(view.argmax())
        return (start + change if change else stop), None

    def all_absent_run(self, owner: Hashable, start: int, stop: int) -> bool:
        """True when no page of ``[start, stop)`` is resident."""
        slab = self._owners.get(owner)
        if slab is None:
            return True
        present = slab.present
        end = min(stop, present.shape[0])
        if start >= end:
            return True
        return not present[start:end].any()


__all__ = ["OwnerResidency", "ResidencyIndex"]
