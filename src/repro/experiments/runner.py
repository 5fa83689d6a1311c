"""Parallel trial runner with deterministic seeding and an on-disk cache.

Every figure and ablation driver decomposes into *trials*: pure,
self-contained functions that build their own :class:`~repro.sim.Kernel`,
run a workload, and return plain JSON-serialisable data.  Because each
trial owns its kernel, trials are embarrassingly parallel; this module
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping three guarantees the reproduction depends on:

* **Determinism** — a trial's result is a pure function of
  ``(trial function, params, seed)``.  Seeds are either supplied
  explicitly by the driver or derived from ``(experiment_id,
  trial_index)`` via :func:`derive_seed`; results are assembled in spec
  order, never completion order, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical rows.
* **Caching** — each trial's result can be persisted to disk, keyed by a
  hash of the experiment id, the trial function's module path, the code
  identity of the whole ``repro`` package (:func:`code_identity`: every
  ``.py`` file plus the Python version), its canonicalised
  params (including the :class:`MachineConfig` and platform name), and
  the seed.  Re-running an unchanged tree and configuration is instant;
  editing any module, or changing any input, re-simulates.
* **Telemetry** — per-trial wall times and hit/miss counts accumulate in
  session stats that the CLI, the report generator, and the benchmark
  suite surface.

Trial functions must be module-level (picklable by reference) and accept
``seed`` as their first keyword argument.  Their return values are
round-tripped through JSON before use, so fresh and cached runs are
structurally identical (tuples become lists, dict keys become strings).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.obs import capture_metrics
from repro.obs.metrics import merge_samples

DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))

#: The ``repro`` package directory whose sources key the trial cache.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


# ======================================================================
# Runner configuration
# ======================================================================
@dataclass
class RunnerConfig:
    """Process-wide execution policy for :func:`run_trials`.

    ``jobs=1`` runs trials inline in spec order (the sequential
    reference path); ``jobs>1`` fans uncached trials out over a process
    pool.  The cache is off by default so unit tests always exercise the
    simulator; the CLI and the benchmark suite opt in explicitly.
    """

    jobs: int = 1
    use_cache: bool = False
    cache_dir: Path = DEFAULT_CACHE_DIR


_active = RunnerConfig()


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> RunnerConfig:
    """Update the active runner configuration; returns it."""
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        _active.jobs = jobs
    if use_cache is not None:
        _active.use_cache = use_cache
    if cache_dir is not None:
        _active.cache_dir = Path(cache_dir)
    return _active


def configured() -> RunnerConfig:
    return _active


@contextmanager
def configuration(**overrides: Any) -> Iterator[RunnerConfig]:
    """Temporarily override the active configuration (tests, benchmarks)."""
    saved = dataclasses.replace(_active)
    try:
        configure(**overrides)
        yield _active
    finally:
        _active.jobs = saved.jobs
        _active.use_cache = saved.use_cache
        _active.cache_dir = saved.cache_dir


# ======================================================================
# Deterministic seeding
# ======================================================================
def derive_seed(experiment_id: str, trial_index: int, base_seed: int = 0) -> int:
    """A stable 63-bit seed from ``(experiment_id, trial_index)``.

    Hash-derived so that neighbouring trial indexes get uncorrelated
    random streams and the mapping survives refactors that reorder
    drivers.
    """
    digest = hashlib.sha256(
        f"{experiment_id}:{trial_index}:{base_seed}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ======================================================================
# Trial specification and telemetry
# ======================================================================
@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of simulation.

    ``fn`` must be a module-level function called as
    ``fn(seed=seed, **params)``; ``params`` must be picklable and
    JSON-canonicalisable (dataclasses such as ``MachineConfig`` are
    handled).  When ``seed`` is ``None`` the runner derives one from
    ``(experiment_id, trial_index)``.
    """

    experiment_id: str
    trial_index: int
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self.experiment_id, self.trial_index)


@dataclass
class RunStats:
    """Telemetry for one :func:`run_trials` call."""

    experiment_id: str
    trials: int = 0
    cached: int = 0
    simulated: int = 0
    wall_s: float = 0.0
    trial_s: List[float] = field(default_factory=list)
    metric_samples: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def sim_s(self) -> float:
        """Total simulated-trial CPU seconds (sum over workers)."""
        return sum(self.trial_s)

    def summary(self) -> str:
        return (
            f"{self.experiment_id}: {self.trials} trial(s), "
            f"{self.cached} cached, {self.simulated} simulated, "
            f"{self.wall_s:.1f}s wall"
        )


_session_stats: List[RunStats] = []


def drain_stats() -> List[RunStats]:
    """Return and clear the stats accumulated since the last drain."""
    stats = list(_session_stats)
    _session_stats.clear()
    return stats


# ======================================================================
# Cache
# ======================================================================
def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{k: _canonical(v) for k, v in dataclasses.asdict(value).items()},
        }
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


@functools.lru_cache(maxsize=None)
def code_identity(root: Path) -> str:
    """sha256 over the code a trial result depends on, once per process.

    Hashes every ``.py`` file under ``root`` (relative path plus bytes,
    in sorted path order) and the Python version, so a result simulated
    by other code — any edited module, not just the trial function — is
    never served from the cache.
    """
    digest = hashlib.sha256(f"python {platform.python_version()}\n".encode())
    sources = sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*.py"))
    for relative, path in sources:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cache_key(spec: TrialSpec) -> str:
    payload = {
        "experiment": spec.experiment_id,
        "fn": f"{spec.fn.__module__}.{spec.fn.__qualname__}",
        "code": code_identity(PACKAGE_ROOT),
        "params": _canonical(dict(spec.params)),
        "seed": spec.resolved_seed(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_path(cache_dir: Path, spec: TrialSpec, key: str) -> Path:
    return cache_dir / f"{spec.experiment_id}-{key[:24]}.json"


def _cache_load(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _cache_store(
    path: Path,
    key: str,
    spec: TrialSpec,
    value: Any,
    elapsed_s: float,
    metrics: List[Dict[str, Any]],
) -> None:
    blob = {
        "key": key,
        "experiment": spec.experiment_id,
        "trial_index": spec.trial_index,
        "seed": spec.resolved_seed(),
        "elapsed_s": elapsed_s,
        "value": value,
        "metrics": metrics,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(blob))
    tmp.replace(path)


def clear_cache(cache_dir: Optional[os.PathLike] = None) -> int:
    """Delete every cached trial result; returns the number removed."""
    directory = Path(cache_dir) if cache_dir is not None else _active.cache_dir
    removed = 0
    if directory.is_dir():
        for entry in directory.glob("*.json"):
            entry.unlink()
            removed += 1
    return removed


# ======================================================================
# Execution
# ======================================================================
def _invoke(fn: Callable, params: Dict[str, Any], seed: int):
    """Worker-side trial execution.

    Returns ``(json-normalised value, secs, metric samples)``.  The
    capture context attaches to every enabled :class:`Observability`
    the trial constructs (each trial builds its own kernel), so the
    trial function needs no observability plumbing of its own.
    """
    t0 = time.perf_counter()
    with capture_metrics() as capture:
        value = fn(seed=seed, **params)
    elapsed = time.perf_counter() - t0
    # Normalise through JSON so fresh results are structurally identical
    # to cache hits (tuples -> lists, int dict keys -> str).  Samples too:
    # histogram merges compare ``bounds``, which must not differ between a
    # fresh tuple and a cached list.
    samples = json.loads(json.dumps(capture.samples()))
    return json.loads(json.dumps(value)), elapsed, samples


def run_trials(
    specs: Sequence[TrialSpec],
    *,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> List[Any]:
    """Run every spec, in parallel where possible; returns values in order.

    Keyword overrides beat the active :class:`RunnerConfig`.  Cached
    results are returned without touching the pool; uncached trials run
    inline when ``jobs == 1`` and on a process pool otherwise.
    """
    cfg = _active
    jobs = cfg.jobs if jobs is None else jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    use_cache = cfg.use_cache if use_cache is None else use_cache
    directory = Path(cache_dir) if cache_dir is not None else cfg.cache_dir

    if not specs:
        return []
    experiment_id = specs[0].experiment_id
    stats = RunStats(experiment_id=experiment_id, trials=len(specs))
    wall_start = time.perf_counter()

    values: List[Any] = [None] * len(specs)
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(specs)
    for i, spec in enumerate(specs):
        if use_cache:
            keys[i] = cache_key(spec)
            hit = _cache_load(_cache_path(directory, spec, keys[i]))
            if hit is not None and hit.get("key") == keys[i]:
                values[i] = hit["value"]
                stats.cached += 1
                stats.metric_samples = merge_samples(
                    stats.metric_samples, hit.get("metrics", [])
                )
                continue
        pending.append(i)

    def finish(i: int, value: Any, elapsed: float, metrics: List[Dict[str, Any]]) -> None:
        spec = specs[i]
        values[i] = value
        stats.simulated += 1
        stats.trial_s.append(elapsed)
        stats.metric_samples = merge_samples(stats.metric_samples, metrics)
        if use_cache and keys[i] is not None:
            _cache_store(
                _cache_path(directory, spec, keys[i]),
                keys[i],
                spec,
                value,
                elapsed,
                metrics,
            )

    if pending:
        if jobs == 1 or len(pending) == 1:
            for i in pending:
                spec = specs[i]
                value, elapsed, metrics = _invoke(
                    spec.fn, dict(spec.params), spec.resolved_seed()
                )
                finish(i, value, elapsed, metrics)
        else:
            # Imported here: the pool module loads multiprocessing,
            # socket, subprocess and logging, which a serial run never uses.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _invoke, specs[i].fn, dict(specs[i].params), specs[i].resolved_seed()
                    )
                    for i in pending
                ]
                # Collect in submission order: assembly stays deterministic
                # no matter which worker finishes first.
                for i, future in zip(pending, futures):
                    value, elapsed, metrics = future.result()
                    finish(i, value, elapsed, metrics)

    stats.wall_s = time.perf_counter() - wall_start
    _session_stats.append(stats)
    return values
