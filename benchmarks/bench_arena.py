"""Arena scalability: per-step cost and determinism as N grows 1 → 1024.

Unlike the figure benchmarks (which reproduce the paper), this suite
times the multi-tenant arena (:mod:`repro.sim.arena`) — the quantity the
resumable-client refactor exists to bound:

* **per-step dispatch cost** — host nanoseconds per kernel step with
  the arena interleaving N clients, for N ∈ {1, 64, 1024} (smoke stops
  at 64).  The grant path is a binary heap plus O(1) park/wake, so the
  cost of a step must not grow with the number of tenants; the gate
  allows 3× headroom over N=1 before failing.
* **fixed-seed digests** — the sha256 obs-stream digest of every sized
  run (:func:`repro.obs.export.stream_digest`).  Simulated time has no
  host dependence, so the digest for a given (N, seed, mix, policy) is
  a machine-independent constant; ``--check`` fails if any digest
  drifts from the committed baseline — the determinism pin for "same
  seed ⇒ byte-identical obs stream".

Run standalone to (re)generate the tracked baseline::

    PYTHONPATH=src python benchmarks/bench_arena.py             # full
    PYTHONPATH=src python benchmarks/bench_arena.py --smoke     # quick
    PYTHONPATH=src python benchmarks/bench_arena.py --smoke \
        --check BENCH_arena.json      # CI regression gate

Results land in ``BENCH_arena.json`` at the repo root (override with
``--output``).  ``--check`` gates the per-step growth ratio absolutely
(machine-independent headroom, not a throughput ratchet) and the
digests exactly; only Ns present in both runs are compared, so a smoke
check against the committed full baseline still pins N=1 and N=64.

Under pytest this module contributes smoke tests asserting the same
two properties at N=64.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gate

from repro.experiments.arena import (
    ARENA_SEED,
    DEFAULT_MIX,
    _setup_machine,
    arena_config,
    build_specs,
)
from repro.obs.export import stream_digest
from repro.sim import Kernel
from repro.sim.arena import Arena, make_policy

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_arena.json"

FULL_NS = (1, 64, 1024)
SMOKE_NS = (1, 64)

#: Per-step cost at the largest N may be at most this multiple of the
#: per-step cost at N=1.  The interleaver's per-grant work is O(log N)
#: (one heap pop/push), so the measured ratio sits near 1; 3× is the
#: acceptance headroom before "scales to N tenants" is considered broken.
STEP_COST_CEILING = 3.0

#: Repetitions; best-of, as elsewhere in the bench suite.  The N=1 arena
#: retires only a few dozen steps, so single shots are all warm-up noise.
BEST_OF = 5


def _run_arena_timed(n: int, seed: int = ARENA_SEED) -> Tuple[float, int, str]:
    """One arena run; returns (run-phase seconds, steps, digest).

    Machine setup (file creation, cache flush) happens outside the timed
    region — the gate is about the interleaver's dispatch cost, not
    mkfs.
    """
    config = arena_config()
    specs = build_specs(n, seed, config, DEFAULT_MIX)
    kernel = Kernel(config, event_capacity=max(100_000, 512 * n))
    _setup_machine(kernel, specs)
    arena = Arena(kernel, policy=make_policy("round-robin"), seed=seed)
    for spec in specs:
        arena.add_client(
            spec.name,
            lambda client, _spec=spec: _spec.body(client, kernel, True),
            kind=spec.kind,
            weight=spec.weight,
            quantum=spec.quantum,
        )
    t0 = time.perf_counter()
    arena.run()
    elapsed = time.perf_counter() - t0
    digest = stream_digest(kernel.obs.dump_records())
    return elapsed, arena.total_steps, digest


def bench_arena_size(n: int) -> Dict:
    """Best-of-``BEST_OF`` per-step cost at one N, plus the digest."""
    best_ns_per_step = float("inf")
    steps = 0
    digest = ""
    digests = set()
    for _ in range(BEST_OF):
        elapsed, steps, digest = _run_arena_timed(n)
        digests.add(digest)
        if steps:
            best_ns_per_step = min(best_ns_per_step, elapsed * 1e9 / steps)
    return {
        "n": n,
        "steps": steps,
        "ns_per_step": round(best_ns_per_step, 1),
        "digest": digest,
        # Every repetition reruns the same seed; a run-to-run digest
        # split means nondeterminism and is gated even without --check.
        "deterministic": len(digests) == 1,
    }


def run_suite(smoke: bool = False) -> Dict:
    sizes = SMOKE_NS if smoke else FULL_NS
    by_n = {str(n): bench_arena_size(n) for n in sizes}
    smallest = by_n[str(sizes[0])]
    largest = by_n[str(sizes[-1])]
    ratio = largest["ns_per_step"] / max(smallest["ns_per_step"], 1e-9)
    return {
        "schema": 1,
        "smoke": smoke,
        "python": platform.python_version(),
        "seed": ARENA_SEED,
        "mix": DEFAULT_MIX,
        "results": {
            "by_n": by_n,
            "step_cost_ratio": {
                "n_small": sizes[0],
                "n_large": sizes[-1],
                "ratio": round(ratio, 3),
                "ceiling": STEP_COST_CEILING,
            },
        },
    }


def check_regression(current: Dict, baseline: Dict) -> List[str]:
    """Step-cost growth ceiling, run-to-run determinism, and — for a
    baseline with the same seed and mix — the digest and step pins."""
    ratio = current["results"]["step_cost_ratio"]
    failures = gate.at_most(
        f"step cost N={ratio['n_large']} / N={ratio['n_small']}",
        ratio["ratio"], STEP_COST_CEILING, "x",
    )
    by_n = current["results"]["by_n"]
    for entry in by_n.values():
        if not entry["deterministic"]:
            failures.append(f"N={entry['n']}: digest varied across repetitions")
    if (current.get("seed"), current.get("mix")) != (baseline.get("seed"), baseline.get("mix")):
        return failures
    base_by_n = baseline.get("results", {}).get("by_n", {})
    for key, entry in by_n.items():
        base = base_by_n.get(key, {})
        failures += gate.equal(f"N={key} obs digest", entry["digest"], base.get("digest"))
        failures += gate.equal(f"N={key} steps", entry["steps"], base.get("steps"))
    return failures


def deltas(current: Dict, baseline: Dict) -> List[gate.Row]:
    base_by_n = baseline.get("results", {}).get("by_n", {})
    rows: List[gate.Row] = []
    for key, entry in sorted(current["results"]["by_n"].items(), key=lambda kv: int(kv[0])):
        base = base_by_n.get(key, {})
        rows.append((f"N={key} ns_per_step", base.get("ns_per_step"), entry["ns_per_step"], "ns"))
        rows.append((f"N={key} digest", base.get("digest"), entry["digest"], ""))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = gate.parser(
        __doc__, DEFAULT_OUTPUT, "stop the sweep at N=64",
        "gate step-cost growth and fixed-seed digests against a baseline JSON",
    ).parse_args(argv)
    current = run_suite(smoke=args.smoke)
    for key, entry in current["results"]["by_n"].items():
        print(f"N={key}: {json.dumps(entry)}")
    print(f"step_cost_ratio: {json.dumps(current['results']['step_cost_ratio'])}")
    return gate.finish(args, current, check_regression, deltas)


# ----------------------------------------------------------------------
# pytest smoke tests: the acceptance targets
# ----------------------------------------------------------------------
def test_arena_step_cost_scales():
    small = bench_arena_size(1)
    large = bench_arena_size(64)
    assert small["deterministic"] and large["deterministic"]
    ratio = large["ns_per_step"] / max(small["ns_per_step"], 1e-9)
    assert ratio <= STEP_COST_CEILING, (
        f"per-step cost grew {ratio:.2f}x from N=1 to N=64 "
        f"(ceiling {STEP_COST_CEILING}x)"
    )


def test_arena_digest_matches_committed_baseline():
    entry = json.loads(DEFAULT_OUTPUT.read_text())["results"]["by_n"]["64"]
    _elapsed, steps, digest = _run_arena_timed(64)
    assert digest == entry["digest"], "fixed-seed obs stream changed at N=64"
    assert steps == entry["steps"], "arena schedule changed at N=64"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
