#!/usr/bin/env python
"""Paired end-to-end timing: a parent commit against the work tree.

Usage (from the repository root)::

    python tools/ab.py REF [--pairs N] [--workloads a,b] [--seed S]

Copies REF (via ``git archive``) and the work tree (its tracked and
untracked, not ignored files: no bytecode caches, no benchmark output)
into a temporary directory, and refuses to go on if ``benchmarks/e2e/``
or ``BENCHMARK.json`` differ between the two copies: a change that
claims a gain may not edit its own benchmark.  Then it runs
``benchmarks/e2e/run.py --reps 1`` on the two copies in alternating
order (parent first in even pairs, change first in odd ones), ``--pairs``
pairs in all, with ``--workloads`` and ``--seed`` passed through and no
bytecode written, so both sides compile alike.

Per workload and end-to-end metric it prints both medians, the parent's
quartiles and their distance (the IQR), the pairs the change won, and a
verdict after choosing-metrics §8: ``better`` only when the change won
at least nine tenths of the pairs (ties count for neither) and the
medians differ by more than the parent's IQR; ``worse`` by the same rule
the other way; otherwise ``not shown``.  The header stamps both commits
and whether the work tree was dirty.  The copies are deleted on exit.
Exits 1 when a run failed or found a wrong output, 2 on bad usage or a
changed benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: What a change that claims a gain may not edit.
BENCHMARK_PATHS = ("benchmarks/e2e", "BENCHMARK.json")
RUN = "benchmarks/e2e/run.py"
#: Share of pairs the change must win for a verdict (choosing-metrics §8).
WIN_SHARE = 0.9


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p25, median, p75), as ``benchmarks/e2e/run.py`` computes them."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    p25, median, p75 = statistics.quantiles(ordered, n=4, method="inclusive")
    return p25, median, p75


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Tuple[int, str]:
    """Pairs won by the change, and the §8 verdict over paired samples.

    ``parent[i]`` and ``change[i]`` are pair ``i``; ``better`` is
    ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change sample per pair")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    need = math.ceil(WIN_SHARE * len(parent))
    p25, parent_median, p75 = quartiles(parent)
    gap = sign * (parent_median - statistics.median(change))
    if won >= need and gap > p75 - p25:
        return won, "better"
    if lost >= need and -gap > p75 - p25:
        return won, "worse"
    return won, "not shown"


def copy_ref(ref: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def copy_worktree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = ROOT / rel
        if src.is_file():  # a deleted tracked file is listed but absent
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def benchmark_files(root: Path) -> Dict[str, bytes]:
    files: Dict[str, bytes] = {}
    for rel in BENCHMARK_PATHS:
        path = root / rel
        for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if file.is_file():
                files[file.relative_to(root).as_posix()] = file.read_bytes()
    return files


def benchmark_differences(a: Path, b: Path) -> List[str]:
    """Files under :data:`BENCHMARK_PATHS` that differ between two trees."""
    fa, fb = benchmark_files(a), benchmark_files(b)
    return sorted(rel for rel in fa.keys() | fb.keys() if fa.get(rel) != fb.get(rel))


def run_once(tree: Path, out: Path, workloads: str, seed: int) -> Dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, RUN, "--reps", "1", "--seed", str(seed), "--out", str(out)]
    if workloads:
        cmd += ["--workloads", workloads]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise RuntimeError(f"{RUN} failed or found wrong outputs in the {tree.name} tree"
                           f" (exit {proc.returncode})")
    return json.loads(out.read_text())


def run_value(result: Dict, workload: str, metric: str) -> float:
    """One run's value of a metric: its median over the run's samples."""
    return statistics.median(result["workloads"][workload]["values"][metric])


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="paired e2e timing: REF against the work tree")
    parser.add_argument("ref", help="parent commit (any git revision)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="", help="comma-separated (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        parent_commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"unknown revision {args.ref!r}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        copy_ref(parent_commit, trees["parent"])
        copy_worktree(trees["change"])
        differ = benchmark_differences(trees["parent"], trees["change"])
        if differ:
            print("refusing to compare: the benchmark differs between the two trees:",
                  *differ, sep="\n  ", file=sys.stderr)
            return 2
        print(f"[ab] parent {parent_commit}")
        print(f"[ab] change {head}{' + uncommitted changes' if dirty else ''}")
        print(f"[ab] seed {args.seed}, {args.pairs} pairs, python {platform.python_version()},"
              f" {platform.machine()}, {os.cpu_count()} cpus, {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
        results: Dict[str, List[Dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    result = run_once(trees[side], Path(tmp) / f"{side}-{i}.json",
                                      args.workloads, args.seed)
                except RuntimeError as exc:
                    print(f"[ab] pair {i + 1}: {exc}", file=sys.stderr)
                    return 1
                results[side].append(result)
            print(f"[ab] pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{'workload':<16} {'metric':<12} {'parent median [p25, p75]':>28} {'IQR':>8}"
          f" {'change median':>14} {'won':>6}  verdict")
    pairs: List[str] = []
    for workload in results["parent"][0]["workloads"]:
        for name, better in metrics:
            a = [run_value(r, workload, name) for r in results["parent"]]
            b = [run_value(r, workload, name) for r in results["change"]]
            p25, median, p75 = quartiles(a)
            won, result = verdict(a, b, better)
            print(f"{workload:<16} {name:<12} {median:>10.4g} [{p25:.4g}, {p75:.4g}]".ljust(58)
                  + f" {p75 - p25:>8.3g} {statistics.median(b):>14.4g}"
                  + f" {won:>3}/{len(a):<2}  {result}")
            pairs.append(f"{workload} {name} parent/change: "
                         + ", ".join(f"{x:.4g}/{y:.4g}" for x, y in zip(a, b)))
    print("per pair, in run order:", *pairs, sep="\n  ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
