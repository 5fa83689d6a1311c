#!/usr/bin/env python
"""Check that every EXPERIMENTS.md table is still what its driver prints.

Each section of the report (``repro.experiments.report.SECTIONS``) is a
catalogue entry whose stdout, trailing newlines stripped, must appear
verbatim in EXPERIMENTS.md.  This script runs each entry as
``python -m repro run NAME --no-cache`` and fails at the first one whose
table is not a block of the document, naming it and printing what it
printed.  A change that moves any simulated time, probe count or
injected-noise draw behind a figure, table or ablation shows up here.

Usage (from the repository root)::

    PYTHONPATH=src python tools/check_experiments.py [--metrics-dir DIR] [NAME ...]

With no names it checks every report section.  Each run uses two worker
processes (the tables do not depend on the count).  ``--metrics-dir``
keeps each run's runner telemetry as ``DIR/NAME-metrics.jsonl``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.report import SECTIONS

DOC = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def run_table(name: str, metrics_out: Optional[Path]) -> str:
    """The stdout of ``python -m repro run NAME``, trailing newlines stripped."""
    argv = [sys.executable, "-m", "repro", "run", name, "--jobs", "2", "--no-cache"]
    if metrics_out is not None:
        argv += ["--metrics-out", str(metrics_out)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.rstrip("\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="report sections to check (default: all)")
    parser.add_argument("--metrics-dir", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    names = args.names or [name for name, _title, _summary in SECTIONS]
    doc = DOC.read_text()
    for name in names:
        metrics = args.metrics_dir and args.metrics_dir / f"{name}-metrics.jsonl"
        start = time.perf_counter()
        table = run_table(name, metrics)
        if not table or table not in doc:
            print(table)
            print(f"{name}: its stdout (above) is not a block of EXPERIMENTS.md:"
                  " the experiment drifted", file=sys.stderr)
            return 1
        print(f"{name}: pinned ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
