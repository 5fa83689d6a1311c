"""One benchmark pass in a fresh process (started by ``run.py``).

Usage::

    python benchmarks/e2e/worker.py --workload W --seed S --size full \\
        --mode pass|setup|trace --result OUT.json [--spans SPANS.jsonl.gz] \\
        [--untraced-wall SECONDS]

``setup`` stops once the job list is ready; ``pass`` runs every job
untraced; ``trace`` runs them under :class:`tracer.Tracer`.  Set-up time
runs from before ``import repro`` until the job list is ready; wall and
CPU time run from the first job to the last.  Every output is digested
and checked after the timed span, and the result is written as JSON.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))


def shape_problems(job: Any, value: Any) -> List[str]:
    """Rerun the job's tracked paper-shape test against ``value``."""
    from workloads import SHAPE_TESTS

    if job.name not in SHAPE_TESTS:
        return []
    filename, test_name = SHAPE_TESTS[job.name]
    path = ROOT / "benchmarks" / filename
    spec = importlib.util.spec_from_file_location(f"_shape_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def reproduce(fn: Any, *args: Any, **kwargs: Any) -> Any:
        if fn is not job.driver:
            raise AssertionError(f"test asked for {fn.__name__}, job ran {job.driver.__name__}")
        return value

    try:
        getattr(module, test_name)(reproduce)
    except Exception as exc:  # any failure of the test is a wrong output
        return [f"{filename}::{test_name} failed: {type(exc).__name__}: {exc}"]
    return []


def reference_problems(workload: str, seed: int, outputs: List[Dict[str, Any]]) -> None:
    """Compare digests with ``reference.json`` and, at seed 0, BENCH_arena.json."""
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get("digests", {}).get(str(seed), {}).get(workload)
    if expected is not None:
        for out in outputs:
            want = expected.get(out["label"])
            if want is None:
                out["problems"].append("no reference digest for this output")
            elif want != out["digest"]:
                out["problems"].append(f"digest {out['digest'][:12]} != reference {want[:12]}")
    if seed == 0 and workload == "arena-1024":
        arena = json.loads((ROOT / "BENCH_arena.json").read_text())
        pinned = arena["results"]["by_n"]["1024"]["digest"]
        for out in outputs:
            if out["label"] == "arena-round-robin" and out["digest"] != pinned:
                out["problems"].append(
                    f"digest {out['digest'][:12]} != BENCH_arena.json N=1024 {pinned[:12]}"
                )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("pass", "setup", "trace"), default="pass")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    args = parser.parse_args(argv)

    from repro.experiments import runner
    from workloads import build_jobs, describe

    jobs = build_jobs(args.workload, args.seed, args.size)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "mode": args.mode,
        "setup_s": time.perf_counter() - _T0,
        "sizes": json.loads(json.dumps(describe(jobs))),
    }
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    values: List[Any] = []
    cached: List[int] = []
    errors: List[str] = []
    cache_dir = tempfile.mkdtemp(prefix="runner-cache-", dir=args.result.parent)
    try:
        with runner.configuration(jobs=1, use_cache=False, cache_dir=cache_dir):
            runner.drain_stats()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for job in jobs:
                try:
                    value = tracer.run_job(job.name, job.call) if tracer else job.call()
                except Exception:
                    value = None
                    errors.append(f"{job.name}: {traceback.format_exc()}")
                values.append(value)
                cached.append(sum(stats.cached for stats in runner.drain_stats()))
            wall1, cpu1 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(cache_dir, ignore_errors=True)

    outputs: List[Dict[str, Any]] = []
    for job, value, job_cached in zip(jobs, values, cached):
        if value is None:
            outputs.extend(
                {"label": f"{job.name}#{i}", "digest": "", "problems": ["driver raised"]}
                for i in range(job.expected)
            )
            continue
        job_outputs = [vars(out) for out in job.outputs(value)]
        if job_cached:
            for out in job_outputs:
                out["problems"].append("runner served cached trials")
        if args.seed == 0 and args.size == "full":
            problems = shape_problems(job, value)
            for out in job_outputs:
                out["problems"].extend(problems)
        outputs.extend(job_outputs)
    if args.size == "full":
        reference_problems(args.workload, args.seed, outputs)

    result.update(
        wall_s=wall1 - wall0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        runner_cached=sum(cached),
        attempted=len(outputs),
        failed=sum(1 for out in outputs if out["problems"]),
        outputs=outputs,
        errors=errors,
    )
    if tracer is not None:
        tracer.finish()
        metrics = tracer.metrics(args.untraced_wall)
        metrics["runner.cached"] = sum(cached)
        result["trace"] = {"metrics": metrics, "functions": tracer.functions()}
        if args.spans is not None:
            result["trace"]["spans"] = tracer.write_spans(args.spans)
            result["trace"]["spans_path"] = str(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
