"""Metric primitives: counters, histograms, and their registry.

Everything here is deliberately boring and allocation-light: metrics sit
on the simulator's hottest paths (one counter bump plus one histogram
observation per executed syscall), so instruments are plain attribute
mutations, bucket search is one :func:`bisect.bisect_right`, and the
registry hands back the *same* instrument object for a repeated name so
callers can cache references and skip the dict lookup entirely.

Export format: each instrument collapses to a plain-dict *sample*
(``{"type": "metric", "kind": ..., "name": ..., ...}``) that survives a
JSON round-trip and a trip across a process pool.  Samples from many
sources — trials in worker processes, several kernels in one run —
combine with :func:`merge_samples`: counters add, histograms merge
bucket-wise.

:class:`SnapshotStats` is the shared stats-object idiom: any dataclass
of integer counters gains ``snapshot()`` / ``delta()`` / ``as_dict()``
by inheriting it, and the registry can surface it wholesale via
:meth:`MetricsRegistry.register_stats` — so per-phase deltas are one
call, for :class:`~repro.sim.disk.DiskStats` and
:class:`~repro.sim.vm.pagedaemon.PageDaemonStats` alike.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# Geometric bucket upper bounds for latency histograms, in simulated
# nanoseconds: 256 ns .. ~17 s, a factor of 4 per bucket.  One decade of
# disk latency spans ~1.5 buckets — coarse enough to stay cheap, fine
# enough to separate cache hits, transfers, seeks, and queueing.
DEFAULT_LATENCY_BOUNDS_NS: Tuple[int, ...] = tuple(4 ** k for k in range(4, 18))


class Counter:
    """A monotonically-increasing count.  Bump with ``inc()`` or ``+= ``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def sample(self) -> Dict[str, Any]:
        return {"type": "metric", "kind": "counter", "name": self.name,
                "value": self.value}


class Histogram:
    """Fixed-bound histogram tracking count/sum/min/max plus buckets.

    ``bounds`` are inclusive upper edges; values beyond the last bound
    land in an implicit overflow bucket, so ``len(bucket_counts) ==
    len(bounds) + 1`` and no observation is ever dropped.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds: Tuple[int, ...] = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # bisect_left keeps the documented inclusive upper edges: a value
        # equal to bounds[i] lands in bucket i, not i+1.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for i, n in enumerate(self.bucket_counts):
            running += n
            if running >= rank and n:
                if i < len(self.bounds):
                    return float(self.bounds[i])
                return float(self.max if self.max is not None else 0.0)
        return float(self.max if self.max is not None else 0.0)

    def sample(self) -> Dict[str, Any]:
        return {
            "type": "metric", "kind": "histogram", "name": self.name,
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


class SnapshotStats:
    """Mixin giving a counter dataclass the snapshot/delta/as_dict idiom.

    Subclasses must be dataclasses whose fields are all numeric.
    ``snapshot()`` freezes the current values, ``delta(earlier)``
    returns a new instance holding the per-field difference (activity
    since a phase began), and ``as_dict()`` is the flat export form the
    metrics registry consumes.
    """

    def snapshot(self):
        return dataclasses.replace(self)

    def delta(self, earlier):
        cls = type(self)
        return cls(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in dataclasses.fields(self)
        })

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}


class MetricsRegistry:
    """Owns every instrument plus pull-style stats sources.

    Two registration styles:

    * ``counter()`` / ``histogram()`` create (or return
      the existing) push-style instruments, written on the hot path;
    * ``register_stats(prefix, obj)`` adopts an existing
      :class:`SnapshotStats`-style object (``DiskStats``,
      ``PageDaemonStats``, ...) whose fields are read only at
      :meth:`collect` time — zero hot-path cost.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._stats_sources: List[Tuple[str, Any]] = []

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str,
                  bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # -- pull-style sources ---------------------------------------------
    def register_stats(self, prefix: str, stats: Any) -> None:
        """Adopt a stats object exposing ``as_dict()``; sampled lazily.

        Fields surface as counters named ``{prefix}.{field}`` so merging
        samples across trials sums them, matching their cumulative
        semantics.
        """
        self._stats_sources.append((prefix, stats))

    # -- export ----------------------------------------------------------
    def collect(self) -> List[Dict[str, Any]]:
        """Every instrument and stats source as plain-dict samples."""
        samples: List[Dict[str, Any]] = []
        for counter in self._counters.values():
            samples.append(counter.sample())
        for histogram in self._histograms.values():
            samples.append(histogram.sample())
        for prefix, stats in self._stats_sources:
            for name, value in stats.as_dict().items():
                samples.append({"type": "metric", "kind": "counter",
                                "name": f"{prefix}.{name}", "value": value})
        return samples


def _merge_two(into: Dict[str, Any], sample: Dict[str, Any]) -> None:
    kind = sample["kind"]
    if kind == "counter":
        into["value"] += sample["value"]
    elif kind == "histogram":
        if into.get("bounds") == sample.get("bounds"):
            into["bucket_counts"] = [
                a + b for a, b in zip(into["bucket_counts"],
                                      sample["bucket_counts"])
            ]
        else:
            # Incompatible bucketing: degrade to scalar aggregates.
            into["bounds"] = None
            into["bucket_counts"] = None
        into["count"] += sample["count"]
        into["sum"] += sample["sum"]
        for extremum, pick in (("min", min), ("max", max)):
            values = [v for v in (into.get(extremum), sample.get(extremum))
                      if v is not None]
            into[extremum] = pick(values) if values else None


def merge_samples(*sample_lists: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Combine samples from many sources into one deduplicated list.

    Counters with the same name add, histograms merge bucket-wise (or
    degrade to count/sum/min/max when bounds differ).  Output order is
    first-appearance order, so merging is deterministic given
    deterministic inputs.
    """
    merged: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for samples in sample_lists:
        for sample in samples:
            key = (sample["kind"], sample["name"])
            existing = merged.get(key)
            if existing is None:
                merged[key] = dict(sample)
            else:
                _merge_two(existing, sample)
    return list(merged.values())
