"""Model-based cache detection — the approach the paper rejects (§4.1.1).

"Given complete knowledge of the behavior of the file-cache
page-replacement algorithm as well as the ability to observe its every
input, we could model or simulate which pages are in cache.  However,
this approach is likely to be both complex and inaccurate. ... if a
single process does not obey the rules, our knowledge of what has been
accessed is incomplete and our simulation will be inaccurate."

:class:`ModelFCCD` implements exactly that strawman so the argument can
be measured: it interposes on one client's file accesses, feeds them to
a private LRU mirror of the cache, and answers content queries from the
mirror — zero probes, zero Heisenberg effect, and zero awareness of any
other process.  The ablation benchmark shows it matching probe-based
FCCD while it sees every input, then silently rotting the moment an
unobserved process shares the machine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Set, Tuple

from repro.sim import syscalls as sc

MIB = 1024 * 1024


@dataclass
class ModelReport:
    """What the mirror believes about one file."""

    path: str
    size: int
    predicted_cached_pages: Set[int] = field(default_factory=set)

    def predicted_fraction(self, page_size: int) -> float:
        total = -(-self.size // page_size) if self.size else 0
        if total == 0:
            return 0.0
        return len(self.predicted_cached_pages) / total


class ModelFCCD:
    """An input-observing cache simulator for a single client.

    The client routes its reads/writes through :meth:`read` /
    :meth:`write` (interposition); the model replays them against a
    strict-LRU mirror sized like the real cache.  ``capacity_bytes`` and
    ``page_size`` are the "complete algorithmic knowledge" the paper's
    strawman assumes.
    """

    def __init__(self, capacity_bytes: int, page_size: int) -> None:
        if capacity_bytes <= 0 or page_size <= 0:
            raise ValueError("capacity and page size must be positive")
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        # (path, page_index) -> None, in LRU order.
        self._mirror: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self._sizes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # The mirror
    # ------------------------------------------------------------------
    def _touch_pages(self, path: str, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        for index in range(first, last + 1):
            key = (path, index)
            self._mirror.pop(key, None)
            self._mirror[key] = None
        while len(self._mirror) > self.capacity_pages:
            self._mirror.popitem(last=False)

    def forget_file(self, path: str) -> None:
        """Drop a file from the mirror (client unlinked/truncated it)."""
        doomed = [k for k in self._mirror if k[0] == path]
        for key in doomed:
            del self._mirror[key]
        self._sizes.pop(path, None)

    # ------------------------------------------------------------------
    # Interposed file operations (the client's only access path)
    # ------------------------------------------------------------------
    def read(self, fd: int, path: str, offset: int, nbytes: int) -> Generator:
        """Interposed pread: performs the syscall and updates the mirror."""
        result = yield sc.pread(fd, offset, nbytes)
        self._touch_pages(path, offset, result.value.nbytes)
        return result

    def write(self, fd: int, path: str, offset: int, data) -> Generator:
        result = yield sc.pwrite(fd, offset, data)
        nbytes = result.value
        self._touch_pages(path, offset, nbytes)
        self._sizes[path] = max(self._sizes.get(path, 0), offset + nbytes)
        return result

    # ------------------------------------------------------------------
    # Queries (no syscalls at all — that is the selling point and the trap)
    # ------------------------------------------------------------------
    def report(self, path: str, size: int) -> ModelReport:
        predicted = {
            index for (p, index) in self._mirror if p == path
        }
        return ModelReport(path=path, size=size, predicted_cached_pages=predicted)

    def order_files(self, sized_paths: Sequence[Tuple[str, int]]) -> List[str]:
        """Best predicted access order: most-cached fraction first."""
        scored = []
        for position, (path, size) in enumerate(sized_paths):
            fraction = self.report(path, size).predicted_fraction(self.page_size)
            scored.append((-fraction, position, path))
        return [path for _f, _p, path in sorted(scored)]

    @property
    def mirrored_pages(self) -> int:
        return len(self._mirror)
