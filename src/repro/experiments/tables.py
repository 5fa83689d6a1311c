"""Regenerate Tables 1 and 2 from the implementations' technique registries.

Unlike the figures, these tables are qualitative; rather than hard-code
prose, each row is read out of the live :class:`TechniqueProfile` of the
corresponding implementation, and Table 1 additionally runs the three
prior-system mini-simulations so the claimed behaviours are demonstrated,
not just asserted.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.harness import FigureResult
from repro.icl.base import TechniqueProfile
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.icl.mac import MAC
from repro.related import (
    PRIOR_SYSTEMS,
    simulate_coscheduling,
    simulate_manners,
    simulate_tcp,
)
from repro.related.tcp import NetworkPath


def _profile_table(
    figure_id: str, title: str, profiles: Dict[str, TechniqueProfile]
) -> FigureResult:
    names = list(profiles)
    result = FigureResult(
        figure_id=figure_id,
        title=title,
        columns=["technique"] + names,
    )
    for row_index, row_title in enumerate(TechniqueProfile.ROW_TITLES):
        cells = {"technique": row_title}
        for name in names:
            cells[name] = profiles[name].rows()[row_index]
        result.add(**cells)
    return result


def table1_prior_systems(run_demos: bool = True) -> FigureResult:
    """Table 1: gray-box techniques used in existing systems."""
    result = _profile_table(
        "table1",
        "Gray-box techniques in existing systems",
        dict(PRIOR_SYSTEMS),
    )
    if run_demos:
        wired = simulate_tcp(NetworkPath())
        wireless = simulate_tcp(NetworkPath(wireless_loss_rate=0.02))
        result.notes.append(
            f"TCP demo: wired goodput {wired.goodput:.1f} pkt/RTT vs "
            f"wireless {wireless.goodput:.1f} (mislabeled gray-box "
            f"knowledge collapses throughput)"
        )
        implicit = simulate_coscheduling(policy="implicit")
        block = simulate_coscheduling(policy="block")
        result.notes.append(
            f"coscheduling demo: implicit slowdown {implicit.slowdown:.2f} "
            f"vs naive blocking {block.slowdown:.2f}"
        )
        governed = simulate_manners(governed=True)
        ungoverned = simulate_manners(governed=False)
        result.notes.append(
            f"MS Manners demo: interference with foreground "
            f"{governed.interference_fraction:.2f} governed vs "
            f"{ungoverned.interference_fraction:.2f} ungoverned"
        )
    return result


def table2_case_studies() -> FigureResult:
    """Table 2: gray-box techniques used in the paper's three ICLs."""
    return _profile_table(
        "table2",
        "Gray-box techniques in the case studies",
        {
            "FCCD": FCCD.profile,
            "FLDC": FLDC.profile,
            "MAC": MAC.profile,
        },
    )
