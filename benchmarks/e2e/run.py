"""End-to-end host-time benchmark of the repro commands users run.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workloads a,b] [--seed S] [--reps R | --seconds T]
                                 [--trace [0|1]] [--out F]
    python benchmarks/e2e/run.py --compare A.json B.json

Each pass of a workload runs in a fresh ``worker.py`` process, one at a
time (a closed loop: one client, jobs back to back, no pools).  Passes
are interleaved round-robin across workloads so a burst of host load
does not land on every pass of one workload.  ``--reps`` fixes the pass
count (default 3); ``--seconds`` instead starts passes while the next
one is expected to finish within that many seconds (at least one).
Set-up is also sampled in set-up-only processes, so every workload has
at least ``SETUP_SAMPLES`` set-up times.  ``--trace`` makes one untraced
pass (unless ``--reps`` asks for more) and then one traced pass per
workload, which gives the per-layer metrics.

Every metric is printed by name with its unit; the last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (or, with ``--trace 1``, the per-layer
ones) of the workload.  The exit code is 1 when any output was wrong.
``--compare`` prints one row per workload and end-to-end metric and
exits 1 when any metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
DEFAULT_OUT = HERE / "out"
SETUP_SAMPLES = 5
#: A traced sort-thrash pass takes ~25 s on a 2-core x86_64 host; a worker
#: that runs this long is hung, and killing it keeps a run under three
#: minutes.
WORKER_TIMEOUT_S = 170
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Printed and compared with bound 0 (any rise is worse), but not declared
#: in BENCHMARK.json: a metric that is 0 on every healthy run cannot carry
#: a bound relative to its own median.
ERROR_RATE = "job_error_rate"


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        p25 = med = p75 = ordered[0]
    else:
        p25, med, p75 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": med, "p25": p25, "p75": p75, "n": len(ordered)}


# ======================================================================
# Child processes
# ======================================================================
def run_worker(workload: str, seed: int, size: str, mode: str, out_dir: Path,
               tag: str, extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Run one worker process to completion; returns its result dict."""
    result_path = out_dir / f"{workload}-{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode, "--result", str(result_path), *extra]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode = None
        stderr = f"killed after {WORKER_TIMEOUT_S} s\n{exc.stderr or ''}"
    elapsed = time.perf_counter() - t0
    if returncode != 0 or not result_path.exists():
        sys.stderr.write(f"[e2e] {workload} {mode} worker failed (exit {returncode}):\n")
        sys.stderr.write(stderr[-4000:])
        return {"workload": workload, "mode": mode, "elapsed_s": elapsed,
                "crashed": True, "attempted": 1, "failed": 1, "outputs": [],
                "errors": [stderr[-4000:]]}
    result = json.loads(result_path.read_text())
    result["elapsed_s"] = elapsed
    for error in result.get("errors", []):
        sys.stderr.write(f"[e2e] {workload}: {error}\n")
    return result


def run_benchmark(workloads: List[str], seed: int, size: str, reps: Optional[int],
                  seconds: Optional[float], trace: bool, out_dir: Path) -> Dict[str, Any]:
    passes: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    active = list(workloads)
    while active:
        for w in list(active):
            result = run_worker(w, seed, size, "pass", out_dir, f"pass{len(passes[w])}")
            passes[w].append(result)
            spent[w] += result["elapsed_s"]
            if result.get("crashed"):
                active.remove(w)
            elif reps is not None:
                if len(passes[w]) >= reps:
                    active.remove(w)
            elif seconds is not None:
                typical = statistics.median(p["elapsed_s"] for p in passes[w])
                if spent[w] + typical > seconds:
                    active.remove(w)
    setups = {w: [p["setup_s"] for p in passes[w] if "setup_s" in p] for w in workloads}
    while any(len(setups[w]) < SETUP_SAMPLES for w in workloads):
        for w in workloads:
            if len(setups[w]) < SETUP_SAMPLES:
                result = run_worker(w, seed, size, "setup", out_dir, "setup")
                # A crashed set-up worker counts as a sample (nan, dropped
                # later) so the loop always ends.
                setups[w].append(result.get("setup_s", float("nan")))
    report: Dict[str, Any] = {}
    for w in workloads:
        ok = [p for p in passes[w] if not p.get("crashed")]
        traced = None
        if trace and ok:
            untraced = statistics.median(p["wall_s"] for p in ok)
            traced = run_worker(
                w, seed, size, "trace", out_dir, "trace",
                ["--untraced-wall", repr(untraced),
                 "--spans", str(out_dir / f"spans-{w}-seed{seed}.jsonl.gz")],
            )
        report[w] = summarize(size, passes[w], setups[w], traced)
    return report


# ======================================================================
# Aggregation and checks
# ======================================================================
def check_determinism(runs: List[Dict[str, Any]]) -> None:
    """Every pass of one (workload, seed) must digest identically."""
    first: Dict[str, str] = {}
    for run in runs:
        for out in run.get("outputs", []):
            if out["digest"] != first.setdefault(out["label"], out["digest"]):
                out["problems"].append("differs from the first pass")
        run["failed"] = sum(1 for out in run.get("outputs", []) if out["problems"]) + (
            1 if run.get("crashed") else 0
        )


def summarize(size: str, passes: List[Dict[str, Any]], setups: List[float],
              traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    runs = passes + ([traced] if traced else [])
    check_determinism(runs)
    ok = [p for p in passes if not p.get("crashed")]
    values: Dict[str, List[float]] = {
        "wall_s": [p["wall_s"] for p in ok],
        "cpu_s": [p["cpu_s"] for p in ok],
        "setup_s": [s for s in setups if s == s],
        "peak_rss_mb": [p["peak_rss_mb"] for p in ok],
        ERROR_RATE: [p["failed"] / max(p["attempted"], 1) for p in passes],
    }
    problems = [
        f"{out['label']}: {problem}"
        for run in runs for out in run.get("outputs", []) for problem in out["problems"]
    ] + [error for run in runs for error in run.get("errors", [])]
    entry: Dict[str, Any] = {
        "size": size,
        "sizes": ok[0]["sizes"] if ok else None,
        "passes": len(passes),
        "attempted": sum(r.get("attempted", 0) for r in runs),
        "failed": sum(r.get("failed", 0) for r in runs),
        "values": values,
        "summary": {m: quartiles(v) for m, v in values.items() if v},
        "digests": {out["label"]: out["digest"] for out in ok[0]["outputs"]} if ok else {},
        "problems": problems,
    }
    if traced is not None and "trace" in traced:
        entry["trace"] = traced["trace"]
    return entry


# ======================================================================
# Reporting
# ======================================================================
def provenance(seed: int, reps: Optional[int], seconds: Optional[float]) -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def print_report(report: Dict[str, Any], bench: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload, entry in report.items():
        print(f"== {workload}: {entry['passes']} pass(es), {entry['attempted']} output(s)"
              f" checked, {entry['failed']} wrong ==")
        for metric, s in entry["summary"].items():
            unit = E2E_UNITS.get(metric, "ratio")
            print(f"  {metric:<16} median {s['median']:>12.6g} {unit:<5}"
                  f" p25 {s['p25']:.6g}  p75 {s['p75']:.6g}  n={s['n']}")
        for problem in entry["problems"][:20]:
            print(f"  WRONG {problem}")
        trace = entry.get("trace")
        if trace:
            print("  -- per-layer (one traced pass) --")
            for metric, value in trace["metrics"].items():
                print(f"  {metric:<32} {value:>14.6g} {units.get(metric, '')}")
            print("  -- top functions by self time (per call includes callees) --")
            for row in trace["functions"][:15]:
                print(f"  {row['name']:<48} calls {row['calls']:>9}"
                      f"  self {row['self_ms']:>9.1f} ms  {row['per_call_us']:>9.2f} us/call")


def contract_line(report: Dict[str, Any], bench: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The last output line: end-to-end (or per-layer) metrics by name."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics: Dict[str, Any] = {}
    for workload, entry in report.items():
        prefix = "" if len(report) == 1 else f"{workload}."
        for m in declared:
            if trace:
                value = entry.get("trace", {}).get("metrics", {}).get(m["name"])
            else:
                value = entry["summary"].get(m["name"], {}).get("median")
            if value is not None:
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(e["attempted"] for e in report.values())
    failed = sum(e["failed"] for e in report.values())
    complete = len(metrics) == len(declared) * len(report)
    return {"correct": failed == 0 and complete, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


# ======================================================================
# --compare
# ======================================================================
def verdict(a: List[float], b: List[float], bound: float, better: str) -> str:
    """better / same / worse / unresolved, after choosing-metrics §6.5."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        # Exact metric (the error rate): one bad pass must not hide
        # behind a median.
        return "worse" if sign * (max(b) - max(a)) > 0 else "same"
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q["p75"] - q["p25"]) / abs(q["median"]) if q["median"] else 0.0
                 for q in (qa, qb))
    delta = sign * (qb["median"] - qa["median"]) / abs(qa["median"])
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path, bench: Dict[str, Any]) -> int:
    try:
        a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read result file: {exc}", file=sys.stderr)
        return 2
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        print(f"refusing to compare: seed {a['provenance']['seed']} vs "
              f"{b['provenance']['seed']}", file=sys.stderr)
        return 2
    common = [w for w in a["workloads"] if w in b["workloads"]]
    for w in common:
        if a["workloads"][w]["sizes"] != b["workloads"][w]["sizes"]:
            print(f"refusing to compare: {w} ran at different sizes", file=sys.stderr)
            return 2
    metrics = [(m["name"], m["bound"], m["better"]) for m in bench["end_to_end"]]
    metrics.append((ERROR_RATE, 0.0, "lower"))
    worse = 0
    print(f"{'workload':<16} {'metric':<16} {'A median [p25, p75]':>30} "
          f"{'B median [p25, p75]':>30} {'delta':>8} {'bound':>6}  verdict")
    for w in common:
        for name, bound, better in metrics:
            va = a["workloads"][w]["values"].get(name)
            vb = b["workloads"][w]["values"].get(name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            result = verdict(va, vb, bound, better)
            worse += result == "worse"
            delta = (qb["median"] - qa["median"]) / qa["median"] if qa["median"] else 0.0
            print(f"{w:<16} {name:<16} "
                  f"{qa['median']:>10.4g} [{qa['p25']:.4g}, {qa['p75']:.4g}]".ljust(64)
                  + f"{qb['median']:>10.4g} [{qb['p25']:.4g}, {qb['p75']:.4g}]".rjust(30)
                  + f" {delta:>+8.2%} {bound:>6.0%}  {result}")
    return 1 if worse else 0


# ======================================================================
# Main
# ======================================================================
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="end-to-end host-time benchmark")
    parser.add_argument("--workloads", "--workload", dest="workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = each driver's canonical seed")
    parser.add_argument("--reps", type=int, default=None, help="passes per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload instead of --reps")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced pass per workload (per-layer metrics)")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", type=Path, default=None,
                        help=f"result file (default {DEFAULT_OUT.name}/results-seed<S>.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no repro sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workloads is None else args.workloads.split(",")
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    reps, seconds = args.reps, args.seconds
    if reps is None and (seconds is None or args.trace):
        # A traced run reports per-layer metrics; one untraced pass is
        # enough for its overhead baseline.
        reps, seconds = (1 if args.trace else 3), None

    out_dir = DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_benchmark(workloads, args.seed, args.size, reps, seconds,
                           bool(args.trace), out_dir)
    result = {"provenance": provenance(args.seed, reps, seconds), "workloads": report}
    out_path = args.out or out_dir / f"results-seed{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print_report(report, bench)
    print(f"[e2e] wrote {out_path}")
    line = contract_line(report, bench, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
