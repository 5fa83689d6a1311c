"""Covert-channel capacity floors and determinism pins, per platform.

This suite gates the covert-channel harness
(:mod:`repro.experiments.channels`) on the three quantities the test
archetype promises:

* **quiet-channel fidelity** — at noise level 0 every (channel,
  platform) cell must decode below ``QUIET_BER_CEILING`` (1%); a quiet
  channel that cannot carry its payload means the timing signal itself
  regressed.
* **capacity floors** — bandwidth in bits per second of *simulated*
  time is a pure function of (seed, config), so the committed baseline
  stores each cell's measured bandwidth and a floor at
  ``FLOOR_FRACTION`` of it; ``--check`` fails if a cell drops below the
  baseline floor (a kernel change made the channel slower) and also if
  the noisy residency cell stops being at least as lossy as the quiet
  one (the injector ladder stopped biting).
* **fixed-seed digests** — the sha256 obs-stream digest of every cell,
  byte-compared against the baseline; same (seed, config) must give the
  identical attributed stream, decoded bitstring included.

Run standalone to (re)generate the tracked baseline::

    PYTHONPATH=src python benchmarks/bench_channels.py            # full
    PYTHONPATH=src python benchmarks/bench_channels.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_channels.py --smoke \
        --check BENCH_channels.json    # CI regression gate

Results land in ``BENCH_channels.json`` at the repo root (override with
``--output``).  Smoke runs the linux22 column only, with identical cell
configs, so a smoke check against the committed full baseline still
pins that column exactly.  Under pytest this module contributes smoke
tests asserting the same properties on the linux22 residency cell.
"""

from __future__ import annotations

import json
import platform as host_platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

import gate

from repro.experiments.channels import CHANNELS_SEED, run_channel

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_channels.json"

PLATFORM_NAMES = ("linux22", "netbsd15", "solaris7")
SMOKE_PLATFORMS = ("linux22",)

N_BITS = 48
NOISY_LEVEL = 0.8

#: Quiet cells must decode essentially perfectly.
QUIET_BER_CEILING = 0.01

#: A cell's committed capacity floor is this fraction of its measured
#: bandwidth — headroom for deliberate config evolution, not for drift
#: (the digest check catches any change at all; the floor states how
#: much slowdown a *intentional* change may cost before it needs a
#: baseline regeneration and a written justification).
FLOOR_FRACTION = 0.8

#: Each cell runs this many times; the digests must agree.
REPS = 2


def _cell_key(channel: str, platform: str, noise: float) -> str:
    return f"{channel}/{platform}/noise{noise:g}"


def bench_cell(channel: str, platform: str, noise: float) -> Dict:
    digests = set()
    report = None
    for _ in range(REPS):
        report = run_channel(
            channel,
            platform=platform,
            noise=noise,
            seed=CHANNELS_SEED,
            n_bits=N_BITS,
        )
        digests.add(report.digest)
    assert report is not None
    return {
        "channel": channel,
        "platform": platform,
        "noise": noise,
        "n_bits": report.n_bits,
        "cells": report.cells,
        "ber": round(report.ber, 6),
        "parity_errors": report.parity_errors,
        "bandwidth_bits_per_s": round(report.bandwidth_bits_per_s, 3),
        "floor_bits_per_s": round(
            FLOOR_FRACTION * report.bandwidth_bits_per_s, 3
        ),
        "frame_span_ns": report.frame_span_ns,
        "digest": report.digest,
        "deterministic": len(digests) == 1,
    }


def run_suite(smoke: bool = False) -> Dict:
    platforms = SMOKE_PLATFORMS if smoke else PLATFORM_NAMES
    cells: Dict[str, Dict] = {}
    for platform in platforms:
        for channel in ("residency", "writeback"):
            entry = bench_cell(channel, platform, 0.0)
            cells[_cell_key(channel, platform, 0.0)] = entry
        # The noise gate: the residency channel under the full ladder
        # must be at least as lossy as the quiet channel.
        cells[_cell_key("residency", platform, NOISY_LEVEL)] = bench_cell(
            "residency", platform, NOISY_LEVEL
        )
    return {
        "schema": 1,
        "smoke": smoke,
        "python": host_platform.python_version(),
        "seed": CHANNELS_SEED,
        "n_bits": N_BITS,
        "results": {"cells": cells},
    }


def check_regression(current: Dict, baseline: Dict) -> List[str]:
    """Determinism, quiet BER ceilings, the noise ladder, and — for a
    baseline with the same seed and payload — digests and capacity floors."""
    failures: List[str] = []
    cells = current["results"]["cells"]
    for key, entry in cells.items():
        if not entry["deterministic"]:
            failures.append(f"{key}: digest varied across repetitions")
        if entry["noise"] == 0.0:
            failures += gate.at_most(f"{key} quiet BER", entry["ber"], QUIET_BER_CEILING)
    # Ladder sanity: noisy residency at least as lossy as quiet.
    for platform in PLATFORM_NAMES:
        quiet = cells.get(_cell_key("residency", platform, 0.0))
        noisy = cells.get(_cell_key("residency", platform, NOISY_LEVEL))
        if quiet and noisy:
            failures += gate.at_least(
                f"residency/{platform} noise {NOISY_LEVEL} BER vs quiet BER",
                noisy["ber"], quiet["ber"],
            )
    if (current.get("seed"), current.get("n_bits")) != (baseline.get("seed"), baseline.get("n_bits")):
        return failures
    base_cells = baseline.get("results", {}).get("cells", {})
    for key, entry in cells.items():
        base = base_cells.get(key, {})
        failures += gate.equal(f"{key} obs digest", entry["digest"], base.get("digest"))
        failures += gate.at_least(
            f"{key} bandwidth", entry["bandwidth_bits_per_s"],
            base.get("floor_bits_per_s", 0.0), " bits/s",
        )
    return failures


def deltas(current: Dict, baseline: Dict) -> List[gate.Row]:
    base_cells = baseline.get("results", {}).get("cells", {})
    rows: List[gate.Row] = []
    for key, entry in sorted(current["results"]["cells"].items()):
        base = base_cells.get(key, {})
        rows.append((f"{key} bits/s", base.get("bandwidth_bits_per_s"),
                     entry["bandwidth_bits_per_s"], ""))
        rows.append((f"{key} BER", base.get("ber"), entry["ber"], ""))
        rows.append((f"{key} digest", base.get("digest"), entry["digest"], ""))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = gate.parser(
        __doc__, DEFAULT_OUTPUT, "linux22 column only",
        "gate BER ceilings, capacity floors, and digests against a baseline",
    ).parse_args(argv)
    current = run_suite(smoke=args.smoke)
    for key, entry in sorted(current["results"]["cells"].items()):
        print(f"{key}: {json.dumps(entry)}")
    return gate.finish(args, current, check_regression, deltas)


# ----------------------------------------------------------------------
# pytest smoke tests: the acceptance targets
# ----------------------------------------------------------------------
def test_quiet_residency_cell_is_clean_and_deterministic():
    entry = bench_cell("residency", "linux22", 0.0)
    assert entry["deterministic"]
    assert entry["ber"] <= QUIET_BER_CEILING
    assert entry["bandwidth_bits_per_s"] > 0


def test_channel_digests_match_committed_baseline():
    key = _cell_key("residency", "linux22", 0.0)
    base = json.loads(DEFAULT_OUTPUT.read_text())["results"]["cells"][key]
    entry = bench_cell("residency", "linux22", 0.0)
    assert entry["digest"] == base["digest"], "fixed-seed covert-channel obs stream changed"
    assert entry["bandwidth_bits_per_s"] >= base["floor_bits_per_s"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
