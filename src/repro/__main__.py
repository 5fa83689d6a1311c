"""Command-line entry point: run any reproduced experiment by name.

Usage::

    python -m repro list
    python -m repro fig2
    python -m repro fig7 table1 ablation-threshold
    python -m repro run --all
    python -m repro all --jobs 4
    python -m repro fig1 --jobs 8 --no-cache
    python -m repro fig5 --cache-dir /tmp/repro-cache
    python -m repro fig2 --metrics-out fig2-metrics.jsonl
    python -m repro report --jobs 4
    python -m repro observe scan --out observe-scan.jsonl
    python -m repro arena --n 64 --out arena.jsonl --report arena.json
    python -m repro arena --sweep 1,8,64,1024 --policy weighted
    python -m repro channels --channel both --report chan.json

The subcommands are ``run``, ``list``, ``report``, ``observe``, ``arena``
and ``channels``; each accepts only its own options (``python -m repro
<subcommand> --help``).  A first word that is not a subcommand means
``run``, and ``run`` with no names runs the whole catalogue
(:mod:`repro.experiments.catalogue`).

Trials fan out over a process pool (``--jobs N``) and completed trials
are cached on disk (default ``.repro-cache/``, or ``$REPRO_CACHE_DIR``;
``--no-cache`` disables, ``--cache-dir`` relocates).  Re-running an
unchanged experiment is instant; per-experiment trial telemetry is
printed to stderr.  ``run`` and ``report`` share these options plus
``--metrics-out FILE``, which writes the runner telemetry and per-trial
metric samples to JSONL for offline analysis.

``report [OUT]`` regenerates EXPERIMENTS.md (:mod:`repro.experiments.report`).

``observe <scenario>...`` runs always-instrumented scenarios (``scan``,
``fldc``, ``mac``, ``contention``) and dumps every metric, event, and
span as JSONL; ``--chrome-trace FILE`` additionally writes a
Perfetto-loadable Chrome trace of the run.  Given several scenarios,
``--out`` and ``--chrome-trace`` name one file per scenario, with
``-<scenario>`` added to the stem (as ``channels --channel both`` does).

``arena`` interleaves N gray-box tenants on one shared kernel
(:mod:`repro.experiments.arena`): ``--n N`` runs one arena and prints
the per-client fairness/accuracy/throughput report (``--out`` dumps the
attributed obs stream as JSONL, ``--report`` the report as JSON);
``--sweep N,N,...`` (or ``--sweep default`` for 1→1024) prints the
contention sweep table and writes no files, so it rejects ``--out`` and
``--report``.

``channels`` transmits a framed payload over a covert channel between
two arena tenants (:mod:`repro.experiments.channels`) and reports
bandwidth and bit-error rate — ``--channel residency|writeback|both``,
``--noise L`` for the injector ladder, ``--n-background K`` for cache
pressure, ``--sweep`` for the channel x platform x noise grid (which
rejects the single-run ``--channel``, ``--platform``, ``--noise``,
``--bits`` and ``--out``; ``--report`` writes the sweep's JSON).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.experiments import runner
from repro.experiments.arena import (
    ARENA_SEED,
    DEFAULT_MIX,
    SWEEP_NS,
    arena_sweep,
    render_sweep,
    run_arena,
)
from repro.experiments.catalogue import EXPERIMENTS
from repro.experiments.channels import (
    CHANNEL_KINDS,
    CHANNELS_SEED,
    channel_sweep,
    render_channel_sweep,
    run_channel,
)
from repro.experiments.observe import SCENARIOS, observe_figure
from repro.experiments.report import generate
from repro.obs.export import run_stats_records, write_json, write_jsonl
from repro.sim import PLATFORMS
from repro.sim.arena import POLICIES

COMMANDS = ("run", "list", "report", "observe", "arena", "channels")


# ======================================================================
# Subcommands
# ======================================================================
def _run(args: argparse.Namespace) -> int:
    names = args.names
    if args.all or not names or "all" in names:
        names = list(EXPERIMENTS)
    all_stats: List[runner.RunStats] = []
    with _runner_configuration(args):
        runner.drain_stats()
        for name in names:
            result = EXPERIMENTS[name]()
            print(result.render())
            stats = runner.drain_stats()
            all_stats.extend(stats)
            for one in stats:
                print(f"[runner] {one.summary()}", file=sys.stderr, flush=True)
            if args.plot:
                from repro.experiments.viz import plot_figure

                chart = plot_figure(result)
                if chart:
                    print()
                    print(chart)
            print()
    _write_metrics(args.metrics_out, all_stats)
    return 0


def _list(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in (*EXPERIMENTS, "all"):
        print(f"  {name}")
    print(
        f"\nsubcommands: {', '.join(COMMANDS)}"
        " (python -m repro <subcommand> --help)"
    )
    return 0


def _report(args: argparse.Namespace) -> int:
    all_stats: List[runner.RunStats] = []
    with _runner_configuration(args):
        text = generate(all_stats)
    Path(args.out).write_text(text)
    print(f"wrote {args.out}", file=sys.stderr)
    _write_metrics(args.metrics_out, all_stats)
    return 0


def _observe(args: argparse.Namespace) -> int:
    many = len(args.scenarios) > 1
    for scenario in args.scenarios:
        report = observe_figure(
            scenario,
            out_path=_suffixed(args.out, scenario, many)
            or f"observe-{scenario}.jsonl",
            chrome_trace=_suffixed(args.chrome_trace, scenario, many),
        )
        print(report.render())
        print()
    return 0


def _arena(args: argparse.Namespace) -> int:
    try:
        if args.sweep is not None:
            ns = (
                SWEEP_NS
                if args.sweep == "default"
                else tuple(int(part) for part in args.sweep.split(",") if part)
            )
            reports = arena_sweep(ns, policy=args.policy, seed=args.seed, mix=args.mix)
            print(render_sweep(reports))
        else:
            report = run_arena(
                8 if args.n is None else args.n,
                policy=args.policy,
                seed=args.seed,
                mix=args.mix,
                out_path=args.out,
                report_path=args.report,
            )
            print(report.render())
    except ValueError as exc:
        print(f"arena: {exc}", file=sys.stderr)
        return 2
    return 0


def _channels(args: argparse.Namespace) -> int:
    if args.sweep:
        reports = channel_sweep(n_background=args.n_background, seed=args.seed)
        print(render_channel_sweep(reports))
        if args.report:
            write_json(args.report, [r.to_json() for r in reports])
            print(f"wrote sweep report to {args.report}")
        return 0

    # The single-run options parse as None (see `_reject_sweep_ignored`).
    channel = args.channel or "residency"
    channels = CHANNEL_KINDS if channel == "both" else (channel,)
    many = len(channels) > 1
    for channel in channels:
        report = run_channel(
            channel,
            noise=0.0 if args.noise is None else args.noise,
            n_background=args.n_background,
            platform=args.platform or "linux22",
            seed=args.seed,
            n_bits=48 if args.bits is None else args.bits,
            out_path=_suffixed(args.out, channel, many),
            report_path=_suffixed(args.report, channel, many),
        )
        print(report.render())
        print()
    return 0


# ======================================================================
# Shared plumbing
# ======================================================================
def _reject_sweep_ignored(args: argparse.Namespace) -> None:
    """Exit 2 on an option the subcommand's ``--sweep`` would ignore.

    A sweep renders its own fixed grid, so the single-run options (and
    the arena's artefact paths) have nothing to act on.  They parse as
    None so that an explicit value can be told from an absent one.
    """
    if getattr(args, "sweep", None) in (None, False):
        return
    for flag in args.sweep_ignores:
        if getattr(args, flag[2:]) is not None:
            args.usage_error(f"argument {flag}: not allowed with argument --sweep")


def _suffixed(path: Optional[str], name: str, many: bool) -> Optional[str]:
    """``path`` itself, or, when one command writes ``many`` artefacts of
    a kind, ``path`` with ``-name`` added to its stem (``out.jsonl`` →
    ``out-scan.jsonl``), so no artefact overwrites another."""
    if not path or not many:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{name}{p.suffix}"))


def _runner_configuration(args: argparse.Namespace):
    return runner.configuration(
        jobs=args.jobs, use_cache=not args.no_cache, cache_dir=args.cache_dir
    )


def _write_metrics(path: Optional[str], stats: List[runner.RunStats]) -> None:
    if path is None:
        return
    count = write_jsonl(Path(path), run_stats_records(stats))
    print(f"[metrics] wrote {count} record(s) to {path}", file=sys.stderr, flush=True)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs an integer >= 0, got {text!r}")
    return value


def _fraction(text: str) -> float:
    """A number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"needs a number in [0, 1], got {text!r}")
    return value


def _seed(text: str) -> int:
    """An integer in any base Python accepts (``0xA12E7A``)."""
    return int(text, 0)


def _one_of(kind: str, names: Sequence[str]) -> Callable[[str], str]:
    """Argument type for a positional drawn from ``names``.

    ``choices=`` cannot validate an optional ``nargs="*"`` positional on
    every supported Python, so each word is checked as it is converted.
    """

    def check(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {text!r} (choose from {', '.join(names)})"
            )
        return text

    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the experiments of 'Information and Control in"
        " Gray-Box Systems' (SOSP 2001) on a simulated kernel.",
        epilog="A first word that is not a subcommand means `run`:"
        " `python -m repro fig1 fig7 --jobs 4`.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    runner_options = argparse.ArgumentParser(add_help=False)
    runner_options.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the trials (default 1)",
    )
    runner_options.add_argument(
        "--no-cache", action="store_true", help="re-simulate every trial",
    )
    runner_options.add_argument(
        "--cache-dir", metavar="DIR",
        help="trial cache (default .repro-cache/ or $REPRO_CACHE_DIR)",
    )
    runner_options.add_argument(
        "--metrics-out", metavar="FILE",
        help="write runner telemetry and per-trial metric samples as JSONL",
    )

    run = sub.add_parser(
        "run", parents=[runner_options], help="run experiments by name",
    )
    run.add_argument(
        "names", nargs="*", metavar="NAME",
        type=_one_of("experiment", (*EXPERIMENTS, "all")),
        help="catalogue names (see `list`); none or `all` runs everything",
    )
    run.add_argument("--all", action="store_true", help="run the whole catalogue")
    run.add_argument("--plot", action="store_true", help="add terminal charts")
    run.set_defaults(handler=_run)

    sub.add_parser("list", help="print the experiment catalogue").set_defaults(
        handler=_list
    )

    report = sub.add_parser(
        "report", parents=[runner_options],
        help="run every experiment and write EXPERIMENTS.md",
    )
    report.add_argument(
        "out", nargs="?", default="EXPERIMENTS.md", metavar="OUT",
        help="markdown output path (default EXPERIMENTS.md)",
    )
    report.set_defaults(handler=_report)

    observe = sub.add_parser(
        "observe", help="run instrumented scenarios and dump their telemetry",
    )
    observe.add_argument(
        "scenarios", nargs="*", default=["scan"], metavar="SCENARIO",
        type=_one_of("scenario", SCENARIOS),
        help=f"one or more of {', '.join(SCENARIOS)} (default scan)",
    )
    observe.add_argument(
        "--out", metavar="FILE",
        help="JSONL path (default observe-<scenario>.jsonl); with several"
        " scenarios each gets -<scenario> added to the stem",
    )
    observe.add_argument(
        "--chrome-trace", metavar="FILE",
        help="also write a Perfetto-loadable trace (suffixed like --out)",
    )
    observe.set_defaults(handler=_observe)

    arena = sub.add_parser("arena", help="N gray-box tenants on one shared kernel")
    size = arena.add_mutually_exclusive_group()
    # No parser default for --n: argparse treats a value equal to the
    # default as absent, so `--n 8 --sweep ...` would pass unchallenged.
    size.add_argument("--n", type=int, help="tenants in one arena run (default 8)")
    size.add_argument(
        "--sweep", metavar="N,N,...",
        help="contention sweep over these tenant counts (`default`: 1 to 1024;"
        " rejects --out and --report)",
    )
    arena.add_argument("--policy", choices=tuple(POLICIES), default="round-robin")
    arena.add_argument("--seed", type=_seed, default=ARENA_SEED)
    arena.add_argument(
        "--mix", default=DEFAULT_MIX, metavar="KIND=W,...",
        help=f"tenant kinds and weights (default {DEFAULT_MIX})",
    )
    arena.add_argument("--out", metavar="FILE", help="attributed obs stream as JSONL")
    arena.add_argument("--report", metavar="FILE", help="report as JSON")
    arena.set_defaults(
        handler=_arena, sweep_ignores=("--out", "--report"), usage_error=arena.error,
    )

    chan = sub.add_parser(
        "channels", help="covert-channel capacity on the multi-tenant arena",
    )
    chan.add_argument(
        "--channel", choices=(*CHANNEL_KINDS, "both"), help="(default residency)",
    )
    chan.add_argument(
        "--platform", choices=sorted(PLATFORMS), help="(default linux22)",
    )
    chan.add_argument("--noise", type=_fraction, metavar="L", help="(default 0)")
    chan.add_argument(
        "--n-background", type=_non_negative_int, default=0, metavar="K",
    )
    chan.add_argument("--bits", type=_positive_int, metavar="N", help="(default 48)")
    chan.add_argument("--seed", type=_seed, default=CHANNELS_SEED)
    chan.add_argument(
        "--sweep", action="store_true",
        help="full channel x platform x noise grid (rejects --channel,"
        " --platform, --noise, --bits and --out)",
    )
    chan.add_argument("--out", metavar="FILE", help="obs stream JSONL path")
    chan.add_argument("--report", metavar="FILE", help="report JSON path")
    chan.set_defaults(
        handler=_channels,
        sweep_ignores=("--out", "--channel", "--platform", "--noise", "--bits"),
        usage_error=chan.error,
    )
    return parser


def main(argv: Sequence[str]) -> int:
    args = list(argv[1:])
    if args and args[0] not in COMMANDS and args[0] not in ("-h", "--help"):
        args.insert(0, "run")
    try:
        options = _build_parser().parse_args(args)
        _reject_sweep_ignored(options)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return int(exc.code or 0)
    return options.handler(options)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
