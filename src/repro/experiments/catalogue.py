"""The experiment catalogue: every reproduced figure, table and ablation by name.

``python -m repro <name>`` runs ``EXPERIMENTS[name]()``, and the
EXPERIMENTS.md generator (:mod:`repro.experiments.report`) walks the
same table, so each driver is registered here once.  Every entry takes
no arguments and returns a :class:`~repro.experiments.harness.FigureResult`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments.ablations import (
    ablation_mac_increment,
    ablation_probe_placement,
    ablation_refresh_policy,
    ablation_threshold_vs_sort,
    lfs_ordering_experiment,
)
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
from repro.experiments.tables import table1_prior_systems, table2_case_studies

EXPERIMENTS: Dict[str, Callable[[], FigureResult]] = {
    "fig1": fig1_probe_correlation,
    "fig2": fig2_single_file_scan,
    "fig3": fig3_applications,
    "fig4": fig4_multi_platform,
    "fig5": fig5_file_ordering,
    "fig6": fig6_aging_refresh,
    "fig7": fig7_sort_mac,
    "mac-available": mac_available_memory,
    "table1": table1_prior_systems,
    "table2": table2_case_studies,
    "ablation-probe-placement": ablation_probe_placement,
    "ablation-threshold": ablation_threshold_vs_sort,
    "ablation-mac-increment": ablation_mac_increment,
    "ablation-refresh-policy": ablation_refresh_policy,
    "extension-lfs": lfs_ordering_experiment,
    "robustness": robustness_noise_sweep,
    # Single-domain ablations: attribute an accuracy (or covert-channel
    # capacity) loss to one defensive knob at a time.
    "robustness-latency": lambda: robustness_noise_sweep(domain="latency"),
    "robustness-faults": lambda: robustness_noise_sweep(domain="faults"),
    "robustness-sched": lambda: robustness_noise_sweep(domain="sched"),
    "robustness-background": lambda: robustness_noise_sweep(domain="background"),
}
