"""Generate EXPERIMENTS.md: run every driver, record paper-vs-measured.

Usage::

    python -m repro report [OUT] [--jobs N] [--no-cache] [--cache-dir DIR]
        [--metrics-out FILE]

Runs every catalogued driver (:mod:`repro.experiments.catalogue`) at its
default (scaled) size and writes a markdown report, ``EXPERIMENTS.md``
unless ``OUT`` is given, pairing each of the paper's claims with the
measured result.  The claims evaluated here are the same ones the
benchmark suite asserts.  With ``--jobs N`` the drivers' trials fan out
over a process pool; cached trials (see :mod:`repro.experiments.runner`)
make regeneration after an unrelated edit near-instant.
``python -m repro.experiments.report`` takes the same arguments.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.catalogue import EXPERIMENTS
from repro.experiments.harness import FigureResult

HEADER = """\
# EXPERIMENTS — paper versus measured

Generated by `python -m repro report` on the scaled default
configuration (112 MB available memory, 64 KiB simulator pages unless
noted; the paper's machine cached ~830 MB).  Absolute numbers are not
comparable to the paper's testbed; every claim below is about *shape* —
who wins, by roughly what factor, and where crossovers fall.  The same
claims are asserted by `pytest benchmarks/ --benchmark-only`.

Trials run through `repro.experiments.runner`: pass `--jobs N` to fan
them over N worker processes (rows are bit-identical to sequential runs
— every trial's seed derives from its experiment id and index), and
completed trials are cached in `.repro-cache/` (`--no-cache` disables,
`--cache-dir` relocates) so regeneration re-simulates only what changed.

Every trial's kernel carries an always-on observability layer (see the
Observability section of the README); `--metrics-out FILE` dumps the
runner telemetry plus the merged per-trial metric samples as JSONL, and
`python -m repro observe <scenario>` records full event/span traces of
the inference layers against kernel activity.

ICLs issue their probes through the batched syscalls (`pread_batch`,
`touch_batch`, `stat_batch`) by default — one kernel dispatch per probe
sweep instead of one per probe.  Simulated time and all inferred results
are bit-identical to the sequential path (pass `batch_probes=False` to
an ICL to fall back); only host wall-clock changes.  The tracked numbers
live in `BENCH_core.json` at the repo root, regenerated by
`python benchmarks/bench_core_speed.py` (see the Performance section of
the README for how to read it).

"""


def fig1_summary(result: FigureResult) -> List[str]:
    lines = []
    for au in (2, 16, 64):
        rows = [r for r in result.rows if r["access_unit_mb"] == au]
        at = min(r["corr_mean"] for r in rows if r["prediction_unit_mb"] <= au)
        lines.append(
            f"- access unit {au} MB: correlation >= {at:.2f} for prediction "
            f"units up to the access unit (paper: 'highly correlated')"
        )
    return lines


def fig2_summary(result: FigureResult) -> List[str]:
    over = [r for r in result.rows if r["size_mb"] >= 112]
    worst_ratio = max(r["linear_s"] / r["model_worst_s"] for r in over)
    speedups = [r["linear_s"] / r["gray_s"] for r in over]
    return [
        f"- past the cache size the linear scan sits at the worst-case "
        f"model (within {abs(1 - worst_ratio):.0%}); paper: identical behaviour",
        f"- gray-box scan speedup over linear on the same sizes: "
        f"{min(speedups):.1f}x–{max(speedups):.1f}x (paper: 'consistently "
        f"much better', tracking the ideal model)",
    ]


def fig3_summary(result: FigureResult) -> List[str]:
    by = {(r["app"], r["variant"]): r["normalized"] for r in result.rows}
    return [
        f"- gb-grep normalized time {by[('grep', 'gb-grep')]:.2f} "
        f"(paper: ~0.33, 'about a factor of three faster'; our clock-"
        f"replacement cache retains slightly less, giving ~2x)",
        f"- gbp-grep {by[('grep', 'gbp-grep')]:.2f} — recovers almost all "
        f"of gb-grep's benefit (paper: same, with slight extra overhead)",
        f"- gb-fastsort {by[('fastsort', 'gb-fastsort')]:.2f} and "
        f"gbp-fastsort {by[('fastsort', 'gbp-fastsort')]:.2f}: smaller "
        f"win than grep, pipe copy visible (paper: same ordering)",
    ]


def fig4_summary(result: FigureResult) -> List[str]:
    def row(p, b):
        return next(
            r for r in result.rows if r["platform"] == p and r["benchmark"] == b
        )
    return [
        f"- linux scan: warm {row('linux22', 'scan')['warm']:.2f} vs gray "
        f"{row('linux22', 'scan')['gray']:.2f} of cold (paper: warm = cold "
        f"without gray-box help, ~0.5 with it)",
        f"- netbsd scan (file fits fixed 64 MB cache): warm "
        f"{row('netbsd15', 'scan')['warm']:.2f} (paper: near-memory speed)",
        f"- solaris scan: warm {row('solaris7', 'scan')['warm']:.2f} even "
        f"unmodified (paper: page-holding cache makes warm scans fast)",
        f"- search benefits everywhere: gray = "
        f"{max(r['gray'] for r in result.rows if r['benchmark'] == 'search'):.2f} "
        f"of cold at worst (paper: gray search finds the cached match "
        f"almost immediately on all three platforms)",
    ]


def fig5_summary(result: FigureResult) -> List[str]:
    def times(p):
        return {
            r["order"]: r["time_s_mean"] for r in result.rows if r["platform"] == p
        }
    linux = times("linux22")
    solaris = times("solaris7")
    return [
        f"- directory sort saves {1 - linux['directory'] / linux['random']:.0%} "
        f"over random (paper: 10-25%)",
        f"- i-number sort wins {linux['random'] / linux['inumber']:.1f}x on "
        f"linux/netbsd (paper: 'a factor of six')",
        f"- solaris i-number win {solaris['random'] / solaris['inumber']:.1f}x "
        f"(paper: 'better than a factor of two' — looser small-file packing)",
    ]


def fig6_summary(result: FigureResult) -> List[str]:
    fresh = result.rows[0]
    aged = [r for r in result.rows if not r["refreshed"]][-1]
    refreshed = [r for r in result.rows if r["refreshed"]][-1]
    return [
        f"- i-number order degrades {aged['inumber_s'] / fresh['inumber_s']:.1f}x "
        f"over {aged['epoch']} aging epochs (paper: 'worse than fresh by "
        f"more than a factor of three' at 30 epochs)",
        f"- still no worse than random when fully aged "
        f"({aged['inumber_s']:.2f}s vs {aged['random_s']:.2f}s; paper: "
        f"'still better than random at 30 epochs')",
        f"- refresh restores fresh performance "
        f"({refreshed['inumber_s']:.2f}s vs fresh {fresh['inumber_s']:.2f}s)",
    ]


def fig7_summary(result: FigureResult) -> List[str]:
    static = [r for r in result.rows if r["variant"] == "static"]
    best = min(static, key=lambda r: r["time_s"])
    worst = max(static, key=lambda r: r["time_s"])
    mac = next(r for r in result.rows if r["variant"] == "gb-fastsort")
    return [
        f"- static sweet spot at {best['pass_mb']} MB passes "
        f"({best['time_s']:.0f}s, {best['swapped_mb']:.0f} MB swapped); "
        f"cliff at {worst['pass_mb']} MB ({worst['time_s']:.0f}s, "
        f"{worst['swapped_mb']:.0f} MB swapped) — paper: passes of 200 MB "
        f"already 'cause some paging and a significant slowdown', 490 MB "
        f"takes ~6x longer",
        f"- gb-fastsort: {mac['time_s']:.0f}s = "
        f"{mac['time_s'] / best['time_s'] - 1:+.0%} vs best static with "
        f"mean pass {mac['mean_pass_mb']:.0f} MB and "
        f"{mac['overhead_s']:.1f}s probe/wait overhead per process "
        f"(paper: 54% worse than best static, mean pass 154 MB 'very "
        f"close to the best-performing static version')",
        f"- gb-fastsort swap traffic {mac['swapped_mb']:.0f} MB, all from "
        f"probing; the sort phases themselves never page (paper: 'never "
        f"exhibits paging activity in the read, sort, or write phases')",
    ]


def mac_summary(result: FigureResult) -> List[str]:
    lines = []
    for row in result.rows:
        lines.append(
            f"- competitor {row['competitor_mb']} MB -> granted "
            f"{row['granted_mb']:.0f} MB (expected {row['expected_mb']}; "
            f"paper: 'MAC reliably returns (830 - x) MB')"
        )
    return lines


def table_summary(result: FigureResult) -> List[str]:
    return [f"- {note}" for note in result.notes] or [
        "- regenerated from the implementations' technique registries"
    ]


def robustness_summary(result: FigureResult) -> List[str]:
    return [f"- {note}" for note in result.notes] + [
        "",
        "The noise ladder (`repro.sim.inject.noise_profile(level)`) scales four",
        "deterministic enemies together: per-probe latency jitter with rare",
        "millisecond spikes and coarse timer granularity, transient EAGAIN",
        "faults on idempotent probe syscalls (streaks capped so bounded retries",
        "always terminate), scheduler-slot jitter, and — from level 0.3 —",
        "background interference processes (cache dirtier, CPU hog; memory hog",
        "and directory ager join at 0.7).  Page-touch probes get a separate,",
        "gentler latency channel: a 150 ns store straddles an interruption far",
        "less often than a millisecond-scale disk probe.",
        "",
        "The documented noise budget is **level 0.5**: every hardened ICL holds",
        "accuracy 1.0 there (and ≥ 0.9 everywhere up to 1.0), while the",
        "unhardened baselines collapse to 0–0.33.  A differential twin-kernel",
        "harness (`benchmarks/bench_robustness.py`) additionally asserts that a",
        "quiet kernel and a noisy kernel at the budget produce the *same ICL",
        "answers* — the cached-file partition, the layout order, the grant/deny",
        "decision — for identical workloads and seeds.",
        "",
        "Reproduce with `python -m repro robustness` (add `--jobs N` to fan",
        "out); the fault schedule of every trial is a pure function of its",
        "derived seed, so rows are bit-identical across runs and worker counts.",
    ]


#: One report section per catalogue entry: ``(name, title, summary)``.
SECTIONS: List[Tuple[str, str, Callable[[FigureResult], List[str]]]] = [
    ("fig1", "Figure 1 — probe correlation", fig1_summary),
    ("fig2", "Figure 2 — single-file scan", fig2_summary),
    ("fig3", "Figure 3 — application performance", fig3_summary),
    ("fig4", "Figure 4 — multi-platform", fig4_summary),
    ("fig5", "Figure 5 — file ordering matters", fig5_summary),
    ("fig6", "Figure 6 — aging and refresh", fig6_summary),
    ("fig7", "Figure 7 — sort with MAC", fig7_summary),
    ("mac-available", "§4.3.3 — MAC available memory", mac_summary),
    ("table1", "Table 1 — prior gray-box systems", table_summary),
    ("table2", "Table 2 — case-study techniques", table_summary),
    ("ablation-probe-placement", "Ablation — probe placement (§4.1.2)", table_summary),
    ("ablation-threshold", "Ablation — threshold vs sorting (§4.1.2)", table_summary),
    ("ablation-mac-increment", "Ablation — MAC increment schedule (§4.3.2)", table_summary),
    ("ablation-refresh-policy", "Ablation — refresh cadence (§4.2.5)", table_summary),
    ("extension-lfs", "Extension — LFS knowledge module (§4.2.5)", table_summary),
    ("robustness", "Robustness — ICL accuracy vs injected noise (§5)", robustness_summary),
]


def generate(collected_stats: Optional[List[runner.RunStats]] = None) -> str:
    parts = [HEADER]
    for name, title, summarize in SECTIONS:
        print(f"running {title} ...", file=sys.stderr, flush=True)
        runner.drain_stats()
        result = EXPERIMENTS[name]()
        for stats in runner.drain_stats():
            if collected_stats is not None:
                collected_stats.append(stats)
            print(f"  [runner] {stats.summary()}", file=sys.stderr, flush=True)
        parts.append(f"## {title}\n")
        if result.scale_note:
            parts.append(f"*Scale: {result.scale_note}.*\n")
        parts.append("```")
        parts.append(result.render())
        parts.append("```\n")
        parts.append("**Paper vs measured:**\n")
        parts.extend(summarize(result))
        parts.append("")
    return "\n".join(parts)


if __name__ == "__main__":
    from repro.__main__ import main
    raise SystemExit(main(["repro", "report", *sys.argv[1:]]))
