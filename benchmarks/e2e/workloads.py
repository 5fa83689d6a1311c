"""The four end-to-end workloads: fixed-size job lists over ``repro``.

Each workload is a list of *jobs*; a job calls one public driver of
:mod:`repro.experiments` and turns its result into *outputs*, one per
driver result, arena run or channel cell.  Every output carries a
sha256 digest (the determinism pin) and the structural problems found
in it, so the benchmark can count wrong outputs against attempted ones.

Seeds: ``seed == 0`` calls every driver with its own canonical seed, so
outputs match ``python -m repro <name>``; any other seed gives driver
``d`` of workload ``w`` the seed ``derive_seed(f"bench:{w}:{d}", 0,
seed)``.  Importing this module imports ``repro``; the worker process
times that import as part of set-up.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.experiments.arena import run_arena
from repro.experiments.channels import channel_sweep
from repro.experiments.figures import (
    fig1_probe_correlation,
    fig2_single_file_scan,
    fig3_applications,
    fig4_multi_platform,
    fig5_file_ordering,
    fig6_aging_refresh,
    fig7_sort_mac,
    mac_available_memory,
)
from repro.experiments.harness import FigureResult
from repro.experiments.robustness import robustness_noise_sweep
from repro.experiments.runner import derive_seed

SIZES = ("full", "tiny")

ARENA_N = {"full": 1024, "tiny": 16}
ARENA_POLICIES = ("round-robin", "weighted", "random")


@dataclass
class Output:
    """One checked result: a label, its digest, and what is wrong with it."""

    label: str
    digest: str
    problems: List[str] = field(default_factory=list)


@dataclass
class Job:
    """One driver call of a workload.

    ``call()`` runs the driver (the timed part); ``outputs(value)`` digests
    and checks what it returned; ``expected`` is how many outputs a
    successful call yields, so a driver that raises still counts every
    output it owed as failed.
    """

    name: str
    driver: Callable[..., Any]
    kwargs: Dict[str, Any]
    expected: int
    outputs: Callable[[Any], List[Output]]

    def call(self) -> Any:
        return self.driver(**self.kwargs)


def canonical_digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _numbers(value: Any) -> List[float]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return []


def _figure_outputs(name: str) -> Callable[[Any], List[Output]]:
    def outputs(result: Any) -> List[Output]:
        problems = []
        if not isinstance(result, FigureResult) or not result.rows:
            return [Output(name, "", ["driver returned no rows"])]
        for row in result.rows:
            missing = [c for c in result.columns if c not in row]
            if missing:
                problems.append(f"row missing columns {missing}")
        if not all(math.isfinite(x) for x in _numbers(result.rows)):
            problems.append("non-finite number in rows")
        return [Output(name, canonical_digest(result.rows), problems)]

    return outputs


def _arena_outputs(policy: str, n: int) -> Callable[[Any], List[Output]]:
    def outputs(report: Any) -> List[Output]:
        problems = []
        if len(report.rows) != n:
            problems.append(f"{len(report.rows)} client rows, expected {n}")
        if report.total_turns < n:
            problems.append(f"only {report.total_turns} grants for {n} clients")
        bad = {k: v for k, v in report.kind_accuracy.items() if not 0.0 <= v <= 1.0}
        if bad:
            problems.append(f"accuracy out of [0, 1]: {bad}")
        if report.policy != policy:
            problems.append(f"ran policy {report.policy!r}")
        return [Output(f"arena-{policy}", report.digest, problems)]

    return outputs


def _channel_outputs(reports: Any) -> List[Output]:
    outputs = []
    for report in reports:
        problems = []
        if len(report.decoded_bits) != report.n_bits:
            problems.append(
                f"decoded {len(report.decoded_bits)} of {report.n_bits} bits"
            )
        if not 0.0 <= report.ber <= 1.0:
            problems.append(f"BER {report.ber} out of [0, 1]")
        if not report.bandwidth_bits_per_s > 0:
            problems.append("no bandwidth")
        label = f"channel-{report.channel}/{report.platform}/{report.noise:g}"
        outputs.append(Output(label, report.digest, problems))
    return outputs


def _seeded(workload: str, name: str, seed: int, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    if seed == 0:
        return dict(kwargs)
    return dict(kwargs, seed=derive_seed(f"bench:{workload}:{name}", 0, seed))


# ``full`` runs every driver at its defaults (the sizes users run);
# ``tiny`` keyword arguments exist for the self-test only, and a driver
# without them is left out of the tiny job list.
_FIGURES = {
    "paper-figs": [
        ("fig1", fig1_probe_correlation, None),
        ("fig2", fig2_single_file_scan, None),
        ("fig3", fig3_applications, None),
        ("fig4", fig4_multi_platform, None),
        ("fig5", fig5_file_ordering, dict(files=20, trials=1)),
        ("fig6", fig6_aging_refresh,
         dict(files=20, epochs=3, refresh_at=3, measure_every=1)),
        ("mac-available", mac_available_memory, None),
    ],
    "sort-thrash": [
        ("fig7", fig7_sort_mac,
         dict(nprocs=2, input_mb=16, static_pass_mb=(8,), min_pass_mb=4,
              memory_mb=48, reserved_mb=16, trials=1)),
    ],
}

_NOISY = {
    "full": (dict(), dict(n_background=2)),
    "tiny": (
        dict(levels=(0.0, 0.5), trials=1, icls=("fldc",)),
        dict(channels=("residency",), platforms=("linux22",),
             noise_levels=(0.4,), n_background=1, n_bits=8),
    ),
}


def build_jobs(workload: str, seed: int, size: str = "full") -> List[Job]:
    """The job list of ``workload`` at ``size`` for ``seed``."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if workload in _FIGURES:
        jobs = []
        for name, driver, tiny in _FIGURES[workload]:
            if size == "tiny" and tiny is None:
                continue
            kwargs = _seeded(workload, name, seed, {} if size == "full" else tiny)
            jobs.append(Job(name, driver, kwargs, 1, _figure_outputs(name)))
        return jobs
    if workload == "arena-1024":
        n = ARENA_N[size]
        return [
            Job(
                policy,
                run_arena,
                _seeded(workload, policy, seed, dict(n=n, policy=policy)),
                1,
                _arena_outputs(policy, n),
            )
            for policy in ARENA_POLICIES
        ]
    if workload == "noisy-channels":
        robustness_kwargs, channel_kwargs = _NOISY[size]
        cells = _channel_cells(channel_kwargs)
        return [
            Job(
                "robustness",
                robustness_noise_sweep,
                _seeded(workload, "robustness", seed, robustness_kwargs),
                1,
                _figure_outputs("robustness"),
            ),
            Job(
                "channels",
                channel_sweep,
                _seeded(workload, "channels", seed, channel_kwargs),
                cells,
                _channel_outputs,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _channel_cells(kwargs: Dict[str, Any]) -> int:
    defaults = {
        name: param.default
        for name, param in inspect.signature(channel_sweep).parameters.items()
    }
    merged = dict(defaults, **kwargs)
    return (
        len(merged["channels"]) * len(merged["platforms"]) * len(merged["noise_levels"])
    )


def describe(jobs: List[Job]) -> Dict[str, Any]:
    """The sizes of a job list, as compared by ``run.py --compare``."""
    return {
        job.name: {k: v for k, v in sorted(job.kwargs.items()) if k != "seed"}
        for job in jobs
    }


# Paper-shape assertions rerun at seed 0, full size: the existing tracked
# benchmark test of each driver, fed the result this run computed.
SHAPE_TESTS: Dict[str, tuple] = {
    "fig1": ("bench_fig1_probe_correlation.py", "test_fig1_probe_correlation"),
    "fig2": ("bench_fig2_single_file_scan.py", "test_fig2_single_file_scan"),
    "fig3": ("bench_fig3_applications.py", "test_fig3_applications"),
    "fig4": ("bench_fig4_multi_platform.py", "test_fig4_multi_platform"),
    "fig5": ("bench_fig5_file_ordering.py", "test_fig5_file_ordering"),
    "fig6": ("bench_fig6_aging_refresh.py", "test_fig6_aging_refresh"),
    "fig7": ("bench_fig7_sort_mac.py", "test_fig7_sort_mac"),
    "mac-available": ("bench_mac_available_memory.py", "test_mac_available_memory"),
    "robustness": ("bench_robustness.py", "test_robustness_noise_sweep"),
}
