"""The CLI driver and gate helpers the tracked benchmark suites share.

``bench_core_speed.py``, ``bench_arena.py`` and ``bench_channels.py``
each measure their own quantities, then use this module:

* :func:`parser` builds the common command line (``--smoke``,
  ``--output``, ``--check BASELINE``); a bench may add flags of its own;
* :func:`finish` writes the artifact (never over the baseline a check
  reads), prints the baseline -> current table, reports each failure as
  a ``REGRESSION:`` line on stderr and returns the exit code;
* :func:`at_least`, :func:`at_most`, :func:`ratchet` and :func:`equal`
  are the gates.  Each returns a list of zero or one failure message,
  so a bench's check is the sum of its gate calls.

A delta row is ``(label, baseline value, current value, unit)``; a value
is a number, a string (a digest) or ``None`` when that side lacks it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Row = Tuple[str, Any, Any, str]


def parser(doc: str, default_output: Path, smoke_help: str,
           check_help: str) -> argparse.ArgumentParser:
    """The shared CLI; ``doc``'s first line becomes the description."""
    cli = argparse.ArgumentParser(description=doc.splitlines()[0])
    cli.add_argument("--smoke", action="store_true", help=smoke_help)
    cli.add_argument("--output", type=Path, default=default_output,
                     help=f"result file (default {default_output})")
    cli.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                     help=check_help)
    return cli


def finish(args: argparse.Namespace, current: Dict,
           check: Callable[[Dict, Dict], List[str]],
           deltas: Callable[[Dict, Dict], Sequence[Row]]) -> int:
    """Write ``current``; under ``--check``, gate it and return the exit code."""
    if args.check is None:
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0
    baseline = json.loads(args.check.read_text())
    failures = check(current, baseline)
    print("\nbaseline -> current:")
    print(delta_table(deltas(current, baseline)))
    # The gate run must not clobber the committed baseline.  Compare
    # resolved paths: the default output is absolute while --check is
    # usually given relative, and a naive != would treat them as
    # different files and silently overwrite the baseline.
    if args.output.resolve() != args.check.resolve():
        args.output.write_text(json.dumps(current, indent=2) + "\n")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("regression check passed")
    return 0


def at_least(label: str, value: float, floor: float, unit: str = "") -> List[str]:
    """Absolute floor, enforced whatever the baseline's mode."""
    if value < floor:
        return [f"{label}: {value:,.4g}{unit} fell below the floor {floor:,.4g}{unit}"]
    return []


def at_most(label: str, value: float, ceiling: float, unit: str = "") -> List[str]:
    """Absolute ceiling, enforced whatever the baseline's mode."""
    if value > ceiling:
        return [f"{label}: {value:,.4g}{unit} exceeds the ceiling {ceiling:,.4g}{unit}"]
    return []


def same_mode(current: Dict, baseline: Dict) -> bool:
    """Whether both runs used the same sizes (both smoke or both full)."""
    return current.get("smoke") == baseline.get("smoke")


def ratchet(label: str, value: float, base: Optional[float], fraction: float,
            comparable: bool, unit: str = "") -> List[str]:
    """``value`` must keep ``fraction`` of the baseline's ``base``.

    Only meaningful between equally-sized runs, so callers pass
    ``comparable=same_mode(current, baseline)``; a cross-mode or missing
    baseline skips the ratchet while the absolute gates still apply.
    """
    if base is None or not comparable or value >= base * fraction:
        return []
    return [f"{label}: {value:,.4g}{unit} fell below {base * fraction:,.4g}{unit} "
            f"({fraction:.0%} of baseline {base:,.4g}{unit})"]


def equal(label: str, value: Any, base: Any) -> List[str]:
    """Exact pin (digests, step counts); a missing baseline skips it."""
    if base is None or value == base:
        return []
    return [f"{label}: {_short(value)} != baseline {_short(base)}"]


def _short(value: Any) -> str:
    text = str(value)
    return text[:16] + "..." if len(text) > 16 else text


def delta_table(rows: Sequence[Row]) -> str:
    """Aligned table; numbers show their relative change, strings ==/!=.

    Cross-mode runs still print; their percentages are informational.
    """
    def fmt(value: Any, unit: str) -> str:
        if value is None or isinstance(value, str):
            return "-" if value is None else _short(value)
        return f"{value:,.{2 if abs(value) < 1000 else 0}f}{unit}"

    def change(old: Any, new: Any) -> str:
        if isinstance(old, str) or isinstance(new, str):
            return "==" if old == new else "!="
        return f"{(new / old - 1.0):+.1%}" if old and new else "-"

    width = max([6] + [len(row[0]) for row in rows])
    lines = [f"{'metric':<{width}} {'baseline':>19} {'current':>19} {'change':>8}",
             f"{'-' * width} {'-' * 19} {'-' * 19} {'-' * 8}"]
    for label, old, new, unit in rows:
        lines.append(f"{label:<{width}} {fmt(old, unit):>19} {fmt(new, unit):>19} "
                     f"{change(old, new):>8}")
    return "\n".join(lines)
