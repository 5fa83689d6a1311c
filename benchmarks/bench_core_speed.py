"""Core simulator speed: batched vs sequential probe paths.

Unlike the figure benchmarks (which reproduce the paper), this suite
times the *simulator itself* — the quantity the batched-syscall fast
path and the scheduler single-runner slot exist to improve:

* **probe throughput** — raw ``pread``/``touch``/``stat`` probes per
  host second, sequential one-syscall-per-probe vs one vectored batch
  call (``pread_batch``/``touch_batch``/``stat_batch``);
* **kernel step rate** — scheduler dispatches per host second for a
  minimal syscall loop (the single-runner fast-slot path);
* **end-to-end Fig-2 scan** — one gray-box scan point wall-clock, with
  FCCD's ``batch_probes`` on vs off, asserting the *simulated* result
  is bit-identical either way.

Run standalone to (re)generate the tracked baseline::

    PYTHONPATH=src python benchmarks/bench_core_speed.py            # full
    PYTHONPATH=src python benchmarks/bench_core_speed.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_core_speed.py --smoke \
        --check BENCH_core.json       # CI regression gate

Results land in ``BENCH_core.json`` at the repo root (override with
``--output``).  ``--check`` compares the *speedup ratios* of the fresh
run against a baseline file — ratios, not absolute throughput, so the
gate is meaningful across machines — and exits non-zero when the
batched path's advantage has regressed by more than 20%.

``--profile`` runs one extra, *separate* pass with the
:mod:`repro.obs.profile` section profiler enabled and attaches the
hot-path breakdown (top host-time sections) to the artifact under
``"profile"``.  The gated measurements always come from the unprofiled
pass, so profiling overhead can never contaminate a gate.

Under pytest this module contributes one smoke test asserting the
headline target: ≥3× pread-probe throughput on the batched path.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gate

from repro.icl.fccd import FCCD
from repro.sim import Kernel, MachineConfig, PLATFORMS
from repro.sim import syscalls as sc
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

# Ratio gate for --check: fail when the fresh run's speedup drops below
# this fraction of the baseline's ("regresses >20%").
REGRESSION_FLOOR = 0.8

# Absolute gate for the per-platform kernel-step rate: the layered
# kernel must keep at least this fraction of the pre-refactor committed
# baseline's dispatch throughput on every personality.
STEP_RATE_FLOOR = 0.9

# Gated measurements.  Only the probe-throughput speedups whose ratio is
# stable across problem sizes are gated (CI runs --smoke against a
# full-run baseline).  stat joined the gate once the name-lookup cache
# landed: with walks memoized, both paths are dispatch-bound and the
# batched/sequential ratio is size-stable like the others.  The fig2
# scan (ratio grows with scan size) stays informational, except for
# fig2's simulated-time equality flag, which is always enforced.
GATED_KEYS = (
    "pread_probe_throughput",
    "touch_probe_throughput",
    "stat_probe_throughput",
)

# Absolute speedup floors, enforced on every --check regardless of the
# baseline's mode.  The 20%-ratchet against the recorded baseline is
# only meaningful between equally-sized runs — the smoke run retires
# far fewer probes, so its warm fraction (and with it the batched/
# sequential ratio) sits systematically below the full run's — so a
# cross-mode check gates on these floors instead.
SPEEDUP_FLOORS = {
    "pread_probe_throughput": 3.0,
    "touch_probe_throughput": 3.0,
    "stat_probe_throughput": 3.0,
    # fig2 is end-to-end FCCD, and the sequential side shares the
    # vectorized kernel paths — so its ratio compresses as the kernel
    # gets faster.  The absolute floor asserts the invariant that
    # matters: batching must never make the scan *slower*.
    "fig2_scan": 1.0,
}

# Ceiling on any single ``syscall.*`` section's share of profiled host
# time.  A section crossing it means one syscall path has re-grown into
# the dominant cost (the pre-vectorization profile had syscall.pread at
# 27% and nothing else close); the gate applies whenever a --profile
# pass is attached.
PROFILE_SHARE_CEILING = 0.35


def _config() -> MachineConfig:
    return MachineConfig(
        page_size=4 * KIB,
        memory_bytes=64 * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )


#: Repetitions for the throughput benches; best-of is reported.  Single
#: shots on a shared host swing ±30%, which no gate floor survives; the
#: fastest of three approximates the machine's uncontended rate.
BEST_OF = 3


def _timed(run: Callable[[], int], repeat: int = BEST_OF) -> Dict[str, float]:
    """Time ``run`` ``repeat`` times; returns the best (fastest) result.

    ``run`` must be re-runnable: every throughput loop here probes warm,
    steady-state kernel structures, so a second pass measures the same
    thing as the first (minus first-pass cold misses, which is the
    point — gates compare achievable rates, not scheduler luck).
    """
    best: Dict[str, float] = {"per_s": 0.0, "seconds": float("inf")}
    for _ in range(repeat):
        t0 = time.perf_counter()
        ops = run()
        elapsed = time.perf_counter() - t0
        if elapsed > 0 and ops / elapsed > best["per_s"]:
            best = {"per_s": ops / elapsed, "seconds": elapsed}
    return best


def _speedup_entry(sequential: Dict[str, float], batched: Dict[str, float]) -> Dict:
    return {
        "sequential_per_s": round(sequential["per_s"], 1),
        "batched_per_s": round(batched["per_s"], 1),
        "speedup": round(batched["per_s"] / max(sequential["per_s"], 1e-9), 2),
    }


# ----------------------------------------------------------------------
# Probe throughput: raw syscall loops
# ----------------------------------------------------------------------
def bench_pread_probes(n_probes: int, batch_size: int) -> Dict:
    """1-byte pread probes over a cached file, both paths.

    Setup (kernel construction, file creation) happens outside the
    timed region; only the probe loop is measured.
    """
    offsets = [(i * 4096) % (16 * MIB) for i in range(n_probes)]

    def setup() -> Kernel:
        kernel = Kernel(_config())
        kernel.run_process(make_file("/mnt0/probe.dat", 16 * MIB), "setup")
        return kernel

    def sequential(kernel: Kernel) -> int:
        def app():
            fd = (yield sc.open("/mnt0/probe.dat")).value
            for offset in offsets:
                yield sc.pread(fd, offset, 1)
            yield sc.close(fd)
        kernel.run_process(app(), "probe")
        return n_probes

    def batched(kernel: Kernel) -> int:
        def app():
            fd = (yield sc.open("/mnt0/probe.dat")).value
            for start in range(0, n_probes, batch_size):
                chunk = offsets[start : start + batch_size]
                yield sc.pread_batch(fd, [(o, 1) for o in chunk])
            yield sc.close(fd)
        kernel.run_process(app(), "probe")
        return n_probes

    seq_kernel, batch_kernel = setup(), setup()
    return _speedup_entry(
        _timed(lambda: sequential(seq_kernel)),
        _timed(lambda: batched(batch_kernel)),
    )


def bench_touch_probes(n_pages: int, rounds: int, batch_size: int) -> Dict:
    """Resident page-touch probes (MAC's verify-loop shape), both paths.

    The region must fit in memory — the point is re-touching *resident*
    pages, not swapping.  A warm-up pass faults every page in outside
    the timed region; the measurement is ``rounds`` re-touch sweeps.
    """
    assert n_pages * 4 * KIB < _config().available_bytes, "region must stay resident"

    def run(batch: bool) -> Dict[str, float]:
        # Regions are per-process, so the warm-up faulting every page
        # in lives inside the same process; host time is captured
        # around just the re-touch loops.
        kernel = Kernel(_config())

        def app():
            region = (yield sc.vm_alloc(n_pages * 4 * KIB, "bench")).value
            yield sc.touch_range(region, 0, n_pages)  # warm: all resident
            t0 = time.perf_counter()
            for _ in range(rounds):
                if batch:
                    for start in range(0, n_pages, batch_size):
                        count = min(batch_size, n_pages - start)
                        yield sc.touch_batch(region, start, count)
                else:
                    for index in range(n_pages):
                        yield sc.touch(region, index)
            elapsed = time.perf_counter() - t0
            yield sc.vm_free(region)
            return elapsed
        seconds = kernel.run_process(app(), "touch")
        return {"per_s": n_pages * rounds / seconds, "seconds": seconds}

    def best(batch: bool) -> Dict[str, float]:
        # This bench times inside the process (fresh kernel per run), so
        # best-of is taken over whole runs rather than through _timed.
        return max(
            (run(batch) for _ in range(BEST_OF)), key=lambda r: r["per_s"]
        )

    return _speedup_entry(best(batch=False), best(batch=True))


def bench_stat_probes(n_files: int, rounds: int, batch_size: int) -> Dict:
    """stat sweeps over a populated directory, both paths."""
    def setup() -> Kernel:
        kernel = Kernel(_config())

        def populate():
            yield sc.mkdir("/mnt0/sweep")
            for i in range(n_files):
                fd = (yield sc.create(f"/mnt0/sweep/f{i:04d}")).value
                yield sc.write(fd, 512)
                yield sc.close(fd)
        kernel.run_process(populate(), "setup")
        return kernel

    paths = [f"/mnt0/sweep/f{i:04d}" for i in range(n_files)]

    def sequential(kernel: Kernel) -> int:
        def app():
            for _ in range(rounds):
                for path in paths:
                    yield sc.stat(path)
        kernel.run_process(app(), "stat")
        return n_files * rounds

    def batched(kernel: Kernel) -> int:
        def app():
            for _ in range(rounds):
                for start in range(0, n_files, batch_size):
                    yield sc.stat_batch(paths[start : start + batch_size])
        kernel.run_process(app(), "stat")
        return n_files * rounds

    seq_kernel, batch_kernel = setup(), setup()
    return _speedup_entry(
        _timed(lambda: sequential(seq_kernel)),
        _timed(lambda: batched(batch_kernel)),
    )


# ----------------------------------------------------------------------
# Kernel step rate: minimal syscalls through the dispatch loop
# ----------------------------------------------------------------------
def bench_kernel_steps(n_steps: int) -> Dict:
    kernel = Kernel(_config())

    def app():
        for _ in range(n_steps):
            yield sc.gettime()

    def run() -> int:
        kernel.run_process(app(), "spin")
        return n_steps

    timing = _timed(run)
    stats = kernel.scheduler.stats
    return {
        "steps_per_s": round(timing["per_s"], 1),
        "fast_dispatch_fraction": round(
            stats.fast_dispatches / max(stats.dispatches, 1), 4
        ),
    }


def bench_kernel_steps_by_platform(n_steps: int) -> Dict:
    """Dispatch throughput of a mixed syscall loop, per personality.

    The loop blends cheap clock reads with cached single-page preads so
    the measurement covers the dispatch table *and* the per-platform
    cache-manager fast path, not just the scheduler slot.  The machine
    is sized so netbsd15's fixed 64 MB buffer cache fits.
    """
    config = MachineConfig(
        page_size=4 * KIB,
        memory_bytes=96 * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )
    kernels: Dict[str, Kernel] = {}
    for name in sorted(PLATFORMS):
        kernel = Kernel(config, platform=PLATFORMS[name])
        kernel.run_process(make_file("/mnt0/step.dat", 4 * MIB, sync=False), "setup")
        kernels[name] = kernel

    def one_run(kernel: Kernel) -> Callable[[], int]:
        def run() -> int:
            def app():
                fd = (yield sc.open("/mnt0/step.dat")).value
                for i in range(n_steps // 2):
                    yield sc.gettime()
                    yield sc.pread(fd, (i * 4 * KIB) % (4 * MIB), 1)
                yield sc.close(fd)
            kernel.run_process(app(), "spin")
            return 2 * (n_steps // 2)
        return run

    # Repetitions are interleaved round-robin across platforms rather
    # than back-to-back: host-load bursts last seconds, so consecutive
    # reps of one platform would all land inside the same burst and its
    # best-of would still be slow.  Spreading each platform's reps
    # across the whole measurement window decorrelates them.
    best: Dict[str, float] = {name: 0.0 for name in kernels}
    for _ in range(BEST_OF):
        for name, kernel in kernels.items():
            timing = _timed(one_run(kernel), repeat=1)
            best[name] = max(best[name], timing["per_s"])
    return {name: {"steps_per_s": round(rate, 1)} for name, rate in best.items()}


# ----------------------------------------------------------------------
# End-to-end: one Fig-2 gray-scan point, batched vs sequential FCCD
# ----------------------------------------------------------------------
def bench_fig2_scan(size_mb: int, prediction_unit: int) -> Dict:
    import random

    from repro.apps.scan import gray_scan

    def one(batch: bool) -> Dict[str, float]:
        kernel = Kernel(_config())
        kernel.run_process(make_file("/mnt0/fig2.dat", size_mb * MIB), "setup")
        fccd = FCCD(
            rng=random.Random(7),
            access_unit_bytes=4 * MIB,
            prediction_unit_bytes=prediction_unit,
            batch_probes=batch,
        )
        reports: List = []

        def run() -> int:
            reports.append(kernel.run_process(gray_scan("/mnt0/fig2.dat", fccd), "scan"))
            return 1
        # One shot: a repeat would re-scan a warm cache, a different
        # workload with a different simulated time.
        timing = _timed(run, repeat=1)
        timing["simulated_ns"] = reports[0].elapsed_ns
        return timing

    sequential = one(False)
    batched = one(True)
    return {
        "sequential_s": round(sequential["seconds"], 4),
        "batched_s": round(batched["seconds"], 4),
        "speedup": round(
            sequential["seconds"] / max(batched["seconds"], 1e-9), 2
        ),
        # The whole point: batching must not move the simulated result.
        "simulated_ns_equal": sequential["simulated_ns"] == batched["simulated_ns"],
        "simulated_ns": batched["simulated_ns"],
    }


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def _params(smoke: bool) -> Dict[str, Dict]:
    if smoke:
        return dict(
            pread=dict(n_probes=4_000, batch_size=256),
            touch=dict(n_pages=4_000, rounds=1, batch_size=256),
            stat=dict(n_files=200, rounds=4, batch_size=100),
            steps=dict(n_steps=20_000),
            platform_steps=dict(n_steps=20_000),
            fig2=dict(size_mb=16, prediction_unit=64 * KIB),
        )
    return dict(
        pread=dict(n_probes=40_000, batch_size=256),
        touch=dict(n_pages=8_000, rounds=5, batch_size=256),
        stat=dict(n_files=500, rounds=16, batch_size=250),
        steps=dict(n_steps=200_000),
        platform_steps=dict(n_steps=100_000),
        fig2=dict(size_mb=48, prediction_unit=16 * KIB),
    )


def run_suite(smoke: bool = False) -> Dict:
    params = _params(smoke)
    return {
        "schema": 1,
        "smoke": smoke,
        "python": platform.python_version(),
        "results": {
            "pread_probe_throughput": bench_pread_probes(**params["pread"]),
            "touch_probe_throughput": bench_touch_probes(**params["touch"]),
            "stat_probe_throughput": bench_stat_probes(**params["stat"]),
            "kernel_step_rate": bench_kernel_steps(**params["steps"]),
            "kernel_step_rate_by_platform": bench_kernel_steps_by_platform(
                **params["platform_steps"]
            ),
            "fig2_scan": bench_fig2_scan(**params["fig2"]),
        },
    }


def run_profile_pass(smoke: bool = False) -> Dict:
    """One profiled pass over the probe benches; returns the breakdown.

    Runs *after* (and independently of) the gated suite: the profiler is
    enabled only inside this function, so its per-hook cost is visible
    here and nowhere else.  The ``syscall.*`` / ``sched.next_ready`` /
    ``proc.advance`` sections split the dispatch loop's time; the
    profiler is flat, so every share is of the sum of all sections —
    see :mod:`repro.obs.profile`.
    """
    from repro.obs.profile import PROFILER

    params = _params(smoke)
    PROFILER.clear()
    PROFILER.enable()
    try:
        bench_pread_probes(**params["pread"])
        bench_touch_probes(**params["touch"])
        bench_stat_probes(**params["stat"])
        bench_fig2_scan(**params["fig2"])
    finally:
        PROFILER.disable()
    rows = PROFILER.rows()
    report = PROFILER.report(top=10)
    PROFILER.clear()
    return {"top_sections": rows[:10], "table": report}


def check_regression(current: Dict, baseline: Dict) -> List[str]:
    """Speedup floors and ratchets, step-rate ratchets, fig2 equality,
    and (when a profiled pass is attached) the profile share ceiling."""
    results = current.get("results", {})
    base_results = baseline.get("results", {})
    comparable = gate.same_mode(current, baseline)
    failures: List[str] = []
    # Absolute floors apply to every keyed speedup, gated or not (fig2
    # carries a floor without joining the ratio ratchet).
    for key, floor in SPEEDUP_FLOORS.items():
        if key in results:
            failures += gate.at_least(f"{key}.speedup", results[key]["speedup"], floor, "x")
    for key in GATED_KEYS:
        cur = results.get(key)
        if not cur or cur["speedup"] < SPEEDUP_FLOORS.get(key, 0.0):
            continue  # missing, or already failed the absolute floor
        failures += gate.ratchet(
            f"{key}.speedup", cur["speedup"],
            (base_results.get(key) or {}).get("speedup"),
            REGRESSION_FLOOR, comparable, "x",
        )
    # Absolute step rates are only comparable between equally-sized runs:
    # the smoke loop retires far fewer syscalls, so its cold-miss fraction
    # (and thus steps/s) differs systematically from a full run.  A
    # platform missing from the fresh run counts as 0 steps/s.
    cur_steps = results.get("kernel_step_rate_by_platform") or {}
    for name, base in (base_results.get("kernel_step_rate_by_platform") or {}).items():
        failures += gate.ratchet(
            f"step_rate[{name}]", (cur_steps.get(name) or {}).get("steps_per_s", 0.0),
            base["steps_per_s"], STEP_RATE_FLOOR, comparable, "/s",
        )
    if not results.get("fig2_scan", {}).get("simulated_ns_equal", True):
        failures.append("fig2_scan: batched simulated time diverged from sequential")
    return failures + check_profile_shares(current.get("profile", {}))


def check_profile_shares(profile: Dict) -> List[str]:
    """No single ``syscall.*`` section may dominate the profiled pass.

    Only the handlers are gated: the scheduler pop and generator resume
    are the dispatch loop's own cost, not one syscall's.
    """
    failures: List[str] = []
    for row in profile.get("top_sections", []):
        if row.get("section", "").startswith("syscall."):
            failures += gate.at_most(
                f"profile share of {row['section']}", row["share"], PROFILE_SHARE_CEILING
            )
    return failures


def deltas(current: Dict, baseline: Dict) -> List[gate.Row]:
    """Every scalar the gates look at: the four speedups, the solo-loop
    step rate, and the per-platform step rates."""
    def pick(tree: Dict, key: str, field: str):
        entry = tree.get("results", {}).get(key)
        return entry.get(field) if isinstance(entry, dict) else None

    rows: List[gate.Row] = [
        (f"{key}.speedup", pick(baseline, key, "speedup"),
         pick(current, key, "speedup"), "x")
        for key in (*GATED_KEYS, "fig2_scan")
    ]
    rows.append(("kernel_step_rate.steps_per_s",
                 pick(baseline, "kernel_step_rate", "steps_per_s"),
                 pick(current, "kernel_step_rate", "steps_per_s"), "/s"))
    base_steps = baseline.get("results", {}).get("kernel_step_rate_by_platform") or {}
    cur_steps = current.get("results", {}).get("kernel_step_rate_by_platform") or {}
    for name in sorted(set(base_steps) | set(cur_steps)):
        rows.append((f"step_rate[{name}]",
                     (base_steps.get(name) or {}).get("steps_per_s"),
                     (cur_steps.get(name) or {}).get("steps_per_s"), "/s"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    cli = gate.parser(
        __doc__, DEFAULT_OUTPUT, "small, fast sizes",
        "compare speedups against a baseline JSON; exit 1 on >20%% regression",
    )
    cli.add_argument(
        "--profile", action="store_true",
        help="add a separate profiled pass; hot-path table lands in the artifact",
    )
    args = cli.parse_args(argv)

    current = run_suite(smoke=args.smoke)
    for key, entry in current["results"].items():
        print(f"{key}: {json.dumps(entry)}")

    if args.profile:
        current["profile"] = run_profile_pass(smoke=args.smoke)
        print("\nhost-time hot paths (profiled pass, not gated):")
        print(current["profile"]["table"])
    return gate.finish(args, current, check_regression, deltas)


# ----------------------------------------------------------------------
# pytest smoke test: the headline acceptance target
# ----------------------------------------------------------------------
def test_batched_probe_throughput_target():
    """Batched pread probes must run ≥3× faster than sequential."""
    entry = bench_pread_probes(n_probes=4_000, batch_size=256)
    assert entry["speedup"] >= 3.0, entry


def test_batched_stat_throughput_target():
    """Batched stat probes must run ≥3× faster than sequential.

    The full-size run records ≥4× in BENCH_core.json; the smoke-size
    floor is lower because the dispatch overhead being amortized is a
    smaller multiple of the warm-path cost at this scale.
    """
    entry = bench_stat_probes(n_files=200, rounds=4, batch_size=100)
    assert entry["speedup"] >= 3.0, entry


def test_fig2_scan_simulated_time_identical():
    """Batching is wall-clock only: the simulated scan time must not move."""
    entry = bench_fig2_scan(size_mb=16, prediction_unit=64 * KIB)
    assert entry["simulated_ns_equal"], entry


def test_no_syscall_section_dominates_committed_profile():
    """The committed baseline's profile must stay flat.

    After the vectorized paths landed, no single ``syscall.*`` section
    should hold more than :data:`PROFILE_SHARE_CEILING` of profiled host
    time — a section crossing it means one syscall path has re-grown
    into the dominant cost and the artifact needs regenerating (or the
    path needs fixing).
    """
    baseline = json.loads(DEFAULT_OUTPUT.read_text())
    profile = baseline.get("profile")
    assert profile, "BENCH_core.json lacks a profile pass; regenerate with --profile"
    assert check_profile_shares(profile) == []


if __name__ == "__main__":
    sys.exit(main())
