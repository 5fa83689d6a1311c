"""Outside-in host-time tracer: class-level wrappers around each layer.

The tracer measures ``repro`` from the benchmark's own files.  Before
any kernel is built, :meth:`Tracer.install` replaces the public entry
points listed in :data:`LAYERS` with timing wrappers — on the named
class *and every subclass that defines the method*, and for module
functions on every ``repro`` module that imported the function by name
— and :meth:`Tracer.uninstall` puts every original back.

Two grains of record:

* **full spans** ``(name, start, end, parent, job)`` for the layers at
  or above syscall dispatch (jobs, ``run_trials``, the arena grant loop,
  kernel construction / run loops / ``_execute``, every syscall
  handler).  They are kept in compact arrays and written as JSONL at the
  end of the run;
* **per-function aggregates** ``(calls, total, self)`` for everything
  below a handler — scheduler, page cache, memory manager, cache
  policies, disk, injector, obs emitters, ICL generator resumes — so
  fig7's millions of policy calls cost three integers each, not a span.

Self time is a span's duration minus the time its child spans cover.
Generator entry points (ICL drive loops, the arena shell, arena client
bodies) are timed per resume, so a syscall the generator yields is
never charged to it.  Job time not inside any layer is the
``unaccounted`` row.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import inspect
import sys
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Layer names, in report order.  ``unaccounted`` is job time outside all.
LAYER_ORDER = (
    "runner", "arena", "kernel", "sched", "namei", "fileio", "vm", "proc",
    "pagecache", "physmem", "cache", "ffs", "disk", "inject", "obs", "icl",
)

# Wrap modes.
FULL = "full"  # span kept in memory and written out
HANDLER = "handler"  # a full span that is also a syscall handler
AGG = "agg"  # per-function aggregate only
GEN = "gen"  # generator: aggregate per resume


@dataclass(frozen=True)
class Entry:
    """Entry points of one layer on one class (or module, ``owner=None``)."""

    layer: str
    module: str
    owner: Optional[str]
    attrs: Tuple[str, ...]
    mode: str = AGG


#: What the tracer wraps.  Names are the public entry points through
#: which other layers (or the experiment drivers) call into each layer;
#: private helpers called only from inside a layer need no wrapper —
#: their time already lands in the layer's self time.
LAYERS: Tuple[Entry, ...] = (
    Entry("runner", "repro.experiments.runner", None, ("run_trials",), FULL),
    Entry("arena", "repro.sim.arena", "Arena", ("run",), FULL),
    Entry("arena", "repro.sim.arena", "Arena", ("_sys_arena_park",), HANDLER),
    Entry("arena", "repro.sim.arena", "Arena", ("_shell",), GEN),
    Entry("kernel", "repro.sim.kernel", "Kernel",
          ("__init__", "run", "run_process", "run_until_blocked", "_execute"), FULL),
    Entry("kernel", "repro.sim.kernel", "Kernel",
          ("_sys_gettime", "_sys_compute", "_sys_sleep"), HANDLER),
    Entry("sched", "repro.sim.proc.scheduler", "Scheduler",
          ("add", "make_ready", "block", "finish", "reap", "lookup", "next_ready")),
    Entry("namei", "repro.sim.fs.namei", "NameLayer",
          ("sys_stat", "sys_stat_batch", "sys_mkdir", "sys_rmdir", "sys_unlink",
           "sys_rename", "sys_readdir", "sys_utimes"), HANDLER),
    Entry("namei", "repro.sim.fs.namei", "NameLayer",
          ("resolve", "resolve_parent", "resolve_memo", "walk_fast", "meta_read",
           "read_inode", "read_dir_pages", "dirty_meta", "dirty_dir_data",
           "namespace_changed", "drop_cached_inode", "drop_file_cache")),
    Entry("namei", "repro.sim.fs.dcache", "NameCache", ("lookup", "store", "invalidate")),
    Entry("fileio", "repro.sim.fileio", "FileIO",
          ("sys_open", "sys_create", "sys_close", "sys_read", "sys_pread",
           "sys_pread_batch", "sys_write", "sys_pwrite", "sys_seek", "sys_fsync",
           "sys_fstat"), HANDLER),
    Entry("fileio", "repro.sim.fileio", "FileIO", ("pread_at", "release_fd")),
    Entry("vm", "repro.sim.vm.faults", "VMLayer",
          ("sys_vm_alloc", "sys_vm_free", "sys_touch", "sys_touch_range",
           "sys_touch_batch"), HANDLER),
    Entry("vm", "repro.sim.vm.faults", "VMLayer", ("touch_one",)),
    Entry("proc", "repro.sim.proc.syscalls", "ProcLayer",
          ("sys_getpid", "sys_spawn", "sys_waitpid", "sys_pipe"), HANDLER),
    Entry("proc", "repro.sim.proc.syscalls", "ProcLayer",
          ("wake_all", "make_pipe", "share_pipe_end", "pipe_write", "pipe_read")),
    Entry("pagecache", "repro.sim.pagecache", "PageCacheManager",
          ("read_file_pages", "write_file_pages", "dispose_victims",
           "write_block_runs", "throttle_dirty")),
    Entry("physmem", "repro.sim.vm.physmem", "MemoryManager",
          ("__init__", "touch_file_cached", "touch_file_pages_resident",
           "touch_files_cached", "touch_file", "drop_file_page", "mark_file_clean",
           "oldest_dirty_file_keys", "writeback_complete", "anon_fault",
           "anon_fault_resident", "touch_anon_resident_run", "anon_zero_fill_run",
           "free_anon_pages", "release_process")),
    Entry("physmem", "repro.sim.vm.swap", "SwapSpace",
          ("swap_out", "swap_in", "discard", "discard_process")),
    Entry("cache", "repro.sim.cache.base", "CachePolicy",
          ("touch", "touch_cached", "touch_cached_many", "reference_cells",
           "insert_absent_many", "replay_token", "replay", "pop_victims", "remove",
           "remove_many", "demote")),
    Entry("ffs", "repro.sim.fs.ffs", "FFS",
          ("__init__", "create", "unlink", "rmdir", "rename", "alloc_blocks",
           "free_block_list", "grow_to_size", "rewrite_pages", "pick_cg_for_directory")),
    Entry("disk", "repro.sim.disk", "Disk", ("access", "access_runs")),
    Entry("inject", "repro.sim.inject", "FaultInjector",
          ("install", "uninstall", "spawn_interference", "probe_elapsed",
           "_draw_fault", "_make_fault", "_noisy_ns", "_wake_delay")),
    Entry("inject", "repro.sim.inject", "_Stream", ("next_float",)),
    Entry("obs", "repro.obs", "Observability",
          ("event", "span", "span_batch", "count", "observe", "record_syscall",
           "record_syscall_error", "collect")),
    Entry("obs", "repro.obs", "Observability", ("dump_records",), GEN),
    Entry("obs", "repro.obs.events", "Span", ("start", "end")),
    Entry("obs", "repro.obs.export", None, ("stream_digest",)),
    Entry("obs", "repro.obs.views", None, ("client_rollup",)),
    Entry("icl", "repro.icl.fccd", "FCCD",
          ("probe_fd", "probe_fd_repeated", "plan_file", "best_ranges", "plan_files",
           "order_files", "order_files_confident"), GEN),
    Entry("icl", "repro.icl.fldc", "FLDC",
          ("stat_files", "layout_order", "write_time_order", "refresh_directory"), GEN),
    Entry("icl", "repro.icl.mac", "MAC",
          ("slow_threshold_ns", "gb_alloc", "gb_free", "gb_alloc_wait"), GEN),
    Entry("icl", "repro.icl.channels", "ResidencyChannelSender", ("send",), GEN),
    Entry("icl", "repro.icl.channels", "ResidencyChannelReceiver", ("receive",), GEN),
    Entry("icl", "repro.icl.channels", "WritebackChannelSender", ("send",), GEN),
    Entry("icl", "repro.icl.channels", "WritebackChannelReceiver", ("receive",), GEN),
    Entry("icl", "repro.icl.channels", "ResidencyChannelReceiver", ("decode",)),
    Entry("icl", "repro.icl.channels", "WritebackChannelReceiver", ("decode",)),
    Entry("icl", "repro.icl.gbp", None, ("stream_file",), GEN),
    # One call per retry of a transient fault (``ICL._retry``).
    Entry("icl", "repro.toolbox.retry", "Backoff", ("delay_ns",)),
)

#: Calls that mean a batch syscall left its fast path (see
#: ``fileio.pread_batch_fast_ratio`` / ``vm.touch_batch_fast_ratio``).
SLOW_PATHS = {
    "pagecache.PageCacheManager.read_file_pages",
    "physmem.MemoryManager.touch_file",
    "physmem.MemoryManager.anon_fault",
}
BATCH_HANDLERS = {
    "fileio.FileIO.sys_pread_batch": "fileio.pread_batch_fast_ratio",
    "vm.VMLayer.sys_touch_batch": "vm.touch_batch_fast_ratio",
}
#: Run-loop self time: generator resume of app code and of arena bodies.
RESUME_FUNCTIONS = {
    "kernel.Kernel.run", "kernel.Kernel.run_process",
    "kernel.Kernel.run_until_blocked", "kernel.resume",
}


def _percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for klass in _subclasses(sub):
            if klass not in found:
                found.append(klass)
    return found


class Tracer:
    """Install, collect, summarize, restore.  One instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.total: List[int] = []
        self.selfns: List[int] = []
        self._fids: Dict[str, int] = {}
        self.job_fid = self._fid("job", "job")
        # Root sentinel frame: [fid, child_ns].  Never popped.
        self.stack: List[list] = [[self.job_fid, 0]]
        self.sp_name = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("q")
        self.sp_job = array("q")
        # [innermost open full span, current job index]
        self.state = [-1, -1]
        self.jobs: List[str] = []
        self.job_ns: List[int] = []
        self.handler_fids: set = set()
        self.patches: List[Tuple[Any, str, Any]] = []
        self.slow_entries = [0]
        self.batch = {metric: [0, 0] for metric in BATCH_HANDLERS.values()}
        self.disk_blocks = [0]
        self.arenas: List[Any] = []
        self.grants: List[Tuple[int, int, int]] = []
        self.harvest = {
            "cache_hits": 0, "cache_misses": 0, "reclaims": 0, "swap_outs": 0,
            "dcache_hits": 0, "dcache_misses": 0,
        }
        self._finalizers: List[weakref.finalize] = []
        self.installed = False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _fid(self, name: str, layer: str) -> int:
        fid = self._fids.get(name)
        if fid is None:
            fid = len(self.names)
            self._fids[name] = fid
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.total.append(0)
            self.selfns.append(0)
        return fid

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _wrap_call(self, fn: Callable, fid: int, full: bool) -> Callable:
        stack, calls, total, selfns = self.stack, self.calls, self.total, self.selfns
        clock = perf_counter_ns
        if not full:
            def agg(*args: Any, **kwargs: Any) -> Any:
                frame = [fid, 0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    stack.pop()
                    stack[-1][1] += d
                    calls[fid] += 1
                    total[fid] += d
                    selfns[fid] += d - frame[1]

            return agg
        names, starts, ends = self.sp_name, self.sp_start, self.sp_end
        parents, jobs, state = self.sp_parent, self.sp_job, self.state

        def full_span(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(fid)
            parents.append(state[0])
            jobs.append(state[1])
            ends.append(0)
            saved = state[0]
            state[0] = idx
            frame = [fid, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                state[0] = saved
                d = t1 - t0
                stack.pop()
                stack[-1][1] += d
                calls[fid] += 1
                total[fid] += d
                selfns[fid] += d - frame[1]

        return full_span

    def _wrap_gen(self, fn: Callable, fid: int, collapse: bool) -> Callable:
        """Time each resume of the generator ``fn`` returns.

        With ``collapse``, a generator first resumed inside another
        generator of the same layer (an ICL drive loop ``yield from``-ing
        its own helpers) is delegated to untimed: the outer resume
        already covers it.
        """
        resumed = self._resumer(fid, collapse)

        def gen_entry(*args: Any, **kwargs: Any) -> Any:
            return resumed(fn(*args, **kwargs))

        return gen_entry

    def _resumer(self, fid: int, collapse: bool) -> Callable:
        stack, calls, total, selfns = self.stack, self.calls, self.total, self.selfns
        layer = self.layer_of[fid]
        layer_of = self.layer_of
        clock = perf_counter_ns

        def resumed(gen: Any) -> Any:
            if collapse and layer_of[stack[-1][0]] == layer:
                return (yield from gen)
            send: Any = None
            throw: Optional[BaseException] = None
            while True:
                frame = [fid, 0]
                stack.append(frame)
                t0 = clock()
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        item = gen.throw(exc)
                    else:
                        item = gen.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    d = clock() - t0
                    stack.pop()
                    stack[-1][1] += d
                    calls[fid] += 1
                    total[fid] += d
                    selfns[fid] += d - frame[1]
                try:
                    send = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    # As ``yield from`` does: deliver into the generator,
                    # which re-raises whatever it does not handle.
                    send = None
                    throw = exc

        return resumed

    # ------------------------------------------------------------------
    # Special entry points (counts taken at the layer boundary)
    # ------------------------------------------------------------------
    def _special(self, name: str, wrapped: Callable) -> Callable:
        if name in SLOW_PATHS:
            slow = self.slow_entries

            def slow_path(*args: Any, **kwargs: Any) -> Any:
                slow[0] += 1
                return wrapped(*args, **kwargs)

            return slow_path
        if name in BATCH_HANDLERS:
            slow, tally = self.slow_entries, self.batch[BATCH_HANDLERS[name]]

            def batch(*args: Any, **kwargs: Any) -> Any:
                before = slow[0]
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    tally[0] += 1
                    if slow[0] == before:
                        tally[1] += 1

            return batch
        if name == "disk.Disk.access":
            blocks = self.disk_blocks

            def access(self_: Any, start_block: int, nblocks: int, *rest: Any,
                       **kwargs: Any) -> Any:
                blocks[0] += nblocks
                return wrapped(self_, start_block, nblocks, *rest, **kwargs)

            return access
        if name == "arena.Arena.run":
            arenas = self.arenas

            def arena_run(self_: Any, *args: Any, **kwargs: Any) -> Any:
                arenas.append(self_)
                try:
                    return wrapped(self_, *args, **kwargs)
                finally:
                    arenas.pop()

            return arena_run
        if name == "kernel.Kernel.run_until_blocked":
            arenas, grants = self.arenas, self.grants

            def slice_(self_: Any, *args: Any, **kwargs: Any) -> Any:
                # Inside Arena.run a slice with a pending grant is one
                # client turn (the arena sets the pid just before it).
                pid = arenas[-1]._grant_pid if arenas else None
                if pid is None:
                    return wrapped(self_, *args, **kwargs)
                t0 = perf_counter_ns()
                try:
                    return wrapped(self_, *args, **kwargs)
                finally:
                    grants.append((pid, t0, perf_counter_ns()))

            return slice_
        if name == "kernel.Kernel.__init__":
            def kernel_init(self_: Any, *args: Any, **kwargs: Any) -> None:
                wrapped(self_, *args, **kwargs)
                self._watch_kernel(self_)

            return kernel_init
        return wrapped

    def _watch_kernel(self, kernel: Any) -> None:
        """Harvest the kernel's simulated counters when it is collected."""
        mm = kernel.mm
        pools = [mm.file_pool_stats()]
        if not mm.unified:
            pools.append(mm.anon_pool_stats())
        self._finalizers.append(
            weakref.finalize(kernel, self._harvest, pools, mm.daemon_stats,
                             kernel.vfs.dcache)
        )

    def _harvest(self, pools: List[Any], daemon: Any, dcache: Any) -> None:
        h = self.harvest
        for stats in pools:
            h["cache_hits"] += stats.hits
            h["cache_misses"] += stats.misses
        h["reclaims"] += daemon.activations
        h["swap_outs"] += daemon.anon_pages_swapped
        if dcache is not None:
            h["dcache_hits"] += dcache.hits
            h["dcache_misses"] += dcache.misses

    def _arena_add_client(self, original: Callable) -> Callable:
        """Time arena client bodies as run-loop resumes (``kernel.resume``).

        Without this, a body's own code (app loops around the ICL calls)
        would land in the arena shell that forwards its syscalls.
        """
        resumed = self._resumer(self._fid("kernel.resume", "kernel"), False)

        def add_client(self_: Any, name: str, factory: Callable, **kwargs: Any) -> Any:
            return original(self_, name, lambda client: resumed(factory(client)), **kwargs)

        return add_client

    def _injector_wrap(self, original: Callable) -> Callable:
        """Time the injector's per-syscall dispatch closures."""
        fid = self._fid("inject.FaultInjector.dispatch", "inject")
        wrap_call = self._wrap_call

        def _wrap(self_: Any, name: str, handler: Callable) -> Callable:
            return wrap_call(original(self_, name, handler), fid, False)

        return _wrap

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        module_patches: List[Tuple[Callable, Callable]] = []
        for entry in LAYERS:
            module = importlib.import_module(entry.module)
            if entry.owner is None:
                for attr in entry.attrs:
                    original = module.__dict__[attr]
                    name = f"{entry.layer}.{attr}"
                    module_patches.append((original, self._wrapped(entry, name, original)))
                continue
            for klass in _subclasses(getattr(module, entry.owner)):
                for attr in entry.attrs:
                    original = klass.__dict__.get(attr)
                    if not inspect.isfunction(original):
                        continue
                    name = f"{entry.layer}.{klass.__name__}.{attr}"
                    self._patch(klass, attr, self._wrapped(entry, name, original))
        arena_mod = importlib.import_module("repro.sim.arena")
        self._patch(arena_mod.Arena, "add_client",
                    self._arena_add_client(arena_mod.Arena.add_client))
        inject_mod = importlib.import_module("repro.sim.inject")
        self._patch(inject_mod.FaultInjector, "_wrap",
                    self._injector_wrap(inject_mod.FaultInjector._wrap))
        # Module functions: rebind the name wherever a ``repro`` module
        # imported it (``from repro.experiments.runner import run_trials``).
        for original, wrapper in module_patches:
            for mod_name, module in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        return self

    def _wrapped(self, entry: Entry, name: str, original: Callable) -> Callable:
        fid = self._fid(name, entry.layer)
        if entry.mode == GEN or inspect.isgeneratorfunction(original):
            wrapped = self._wrap_gen(original, fid, collapse=entry.layer == "icl")
        else:
            wrapped = self._wrap_call(original, fid, entry.mode in (FULL, HANDLER))
        if entry.mode == HANDLER:
            self.handler_fids.add(fid)
        wrapped = self._special(name, wrapped)
        wrapped.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def run_job(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one job as a top-level span (its self time is unaccounted)."""
        self.jobs.append(name)
        self.state[1] = len(self.jobs) - 1
        job = self._wrap_call(fn, self.job_fid, True)
        t0 = perf_counter_ns()
        try:
            return job()
        finally:
            self.job_ns.append(perf_counter_ns() - t0)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Harvest the counters of every kernel, collected or not."""
        gc.collect()
        for fin in self._finalizers:
            fin()
        self._finalizers.clear()

    def metrics(self, untraced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric (see ``README.md`` for the definitions)."""
        traced_ns = sum(self.job_ns)
        wall = max(traced_ns, 1)
        out: Dict[str, float] = {}
        for layer in LAYER_ORDER:
            fids = [f for f, lay in enumerate(self.layer_of) if lay == layer]
            self_ns = sum(self.selfns[f] for f in fids)
            out[f"{layer}.calls"] = sum(self.calls[f] for f in fids)
            out[f"{layer}.self_ms"] = self_ns / 1e6
            out[f"{layer}.share"] = self_ns / wall
        unaccounted = self.selfns[self.job_fid]
        out["unaccounted.self_ms"] = unaccounted / 1e6
        out["unaccounted.share"] = unaccounted / wall
        out["trace.attributed_share"] = 1.0 - unaccounted / wall
        out["trace.overhead"] = traced_ns / 1e9 / untraced_wall_s if untraced_wall_s else 0.0

        def fn(name: str, table: List[int]) -> int:
            fid = self._fids.get(name)
            return table[fid] if fid is not None else 0

        out["kernel.builds"] = fn("kernel.Kernel.__init__", self.calls)
        out["kernel.build_ms"] = fn("kernel.Kernel.__init__", self.total) / 1e6
        out["kernel.steps"] = fn("kernel.Kernel._execute", self.calls)
        out["kernel.resume_ms"] = sum(fn(n, self.selfns) for n in RESUME_FUNCTIONS) / 1e6
        handler_ns = self._handler_durations()
        out["syscall.p50_us"] = _percentile(handler_ns, 50) / 1e3
        out["syscall.p99_us"] = _percentile(handler_ns, 99) / 1e3
        h = self.harvest
        out["cache.hit_ratio"] = _ratio(h["cache_hits"], h["cache_hits"] + h["cache_misses"])
        out["physmem.reclaims"] = h["reclaims"]
        out["physmem.swap_outs"] = h["swap_outs"]
        out["namei.dcache_hit_ratio"] = _ratio(
            h["dcache_hits"], h["dcache_hits"] + h["dcache_misses"]
        )
        for metric, (calls, fast) in self.batch.items():
            out[metric] = _ratio(fast, calls)
        out["disk.requests"] = fn("disk.Disk.access", self.calls)
        out["disk.blocks"] = self.disk_blocks[0]
        out["inject.draws"] = fn("inject._Stream.next_float", self.calls)
        out["inject.faults"] = fn("inject.FaultInjector._make_fault", self.calls)
        out["icl.retries"] = fn("icl.Backoff.delay_ns", self.calls)
        out["obs.records"] = fn("obs.Observability.event", self.calls) + fn(
            "obs.Span.end", self.calls
        )
        out["obs.digest_ms"] = fn("obs.stream_digest", self.total) / 1e6
        out["arena.grants"] = len(self.grants)
        grant_ns = [end - start for _pid, start, end in self.grants]
        out["arena.grant_p50_us"] = _percentile(grant_ns, 50) / 1e3
        out["arena.grant_p99_us"] = _percentile(grant_ns, 99) / 1e3
        out["arena.wait_p99_ms"] = _percentile(self._grant_waits(), 99) / 1e6
        return out

    def _handler_durations(self) -> np.ndarray:
        names = np.frombuffer(self.sp_name, dtype=np.int64)
        mask = np.isin(names, np.fromiter(self.handler_fids, dtype=np.int64))
        ends = np.frombuffer(self.sp_end, dtype=np.int64)
        starts = np.frombuffer(self.sp_start, dtype=np.int64)
        return (ends - starts)[mask]

    def _grant_waits(self) -> List[int]:
        """Host time between the end of a client's grant and its next one."""
        last_end: Dict[int, int] = {}
        waits = []
        for pid, start, end in self.grants:
            if pid in last_end:
                waits.append(start - last_end[pid])
            last_end[pid] = end
        return waits

    def functions(self) -> List[Dict[str, Any]]:
        """Per-function aggregates of every called entry point, largest
        self time first; ``per_call_us`` is inclusive of callees."""
        rows = [
            {
                "name": name,
                "layer": self.layer_of[fid],
                "calls": self.calls[fid],
                "total_ms": self.total[fid] / 1e6,
                "self_ms": self.selfns[fid] / 1e6,
                "per_call_us": self.total[fid] / self.calls[fid] / 1e3,
            }
            for fid, name in enumerate(self.names)
            if self.calls[fid] and fid != self.job_fid
        ]
        rows.sort(key=lambda r: -r["self_ms"])
        return rows

    def write_spans(self, path: Path) -> int:
        """Write every full span as one JSON object per line (gzipped)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.sp_start[0] if len(self.sp_start) else 0
        names, jobs = self.names, self.jobs
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i in range(len(self.sp_name)):
                handle.write(
                    '{"id":%d,"name":"%s","start":%d,"end":%d,"parent":%d,"job":"%s"}\n'
                    % (i, names[self.sp_name[i]], self.sp_start[i] - origin,
                       self.sp_end[i] - origin, self.sp_parent[i],
                       jobs[self.sp_job[i]] if self.sp_job[i] >= 0 else "")
                )
        return len(self.sp_name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
