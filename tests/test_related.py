"""Prior gray-box systems (Table 1): the published shapes hold."""

import random

import pytest

from repro.related import PRIOR_SYSTEMS
from repro.related.coscheduling import CoschedConfig, simulate_coscheduling
from repro.related.manners import MannersConfig, simulate_manners
from repro.related.tcp import NetworkPath, simulate_tcp


class TestTcp:
    def test_wired_goodput_near_capacity(self):
        result = simulate_tcp(NetworkPath(capacity_per_rtt=50))
        assert 0.7 * 50 <= result.goodput <= 50

    def test_goodput_never_exceeds_link_capacity(self):
        result = simulate_tcp(NetworkPath(capacity_per_rtt=50))
        per_rtt_max = max(result.cwnd_trace)
        assert result.goodput <= 50
        assert per_rtt_max > 50  # the sender does over-drive the pipe

    def test_wireless_losses_collapse_throughput(self):
        """The mislabeled-gray-box lesson: loss != congestion on wireless."""
        wired = simulate_tcp(NetworkPath())
        wireless = simulate_tcp(NetworkPath(wireless_loss_rate=0.02))
        assert wireless.goodput < wired.goodput / 3

    def test_red_signals_before_overflow(self):
        plain = simulate_tcp(NetworkPath())
        red = simulate_tcp(NetworkPath(red=True))
        # RED keeps goodput comparable while trimming queue excursions.
        assert red.goodput > 0.8 * plain.goodput

    def test_sawtooth_pattern_present(self):
        result = simulate_tcp(NetworkPath())
        drops = sum(
            1
            for a, b in zip(result.cwnd_trace, result.cwnd_trace[1:])
            if b < a
        )
        assert drops >= 3  # repeated AIMD cycles

    def test_deterministic_under_fixed_seed(self):
        a = simulate_tcp(NetworkPath(), rng=random.Random(1))
        b = simulate_tcp(NetworkPath(), rng=random.Random(1))
        assert a.cwnd_trace == b.cwnd_trace


class TestCoscheduling:
    def test_implicit_close_to_spin(self):
        spin = simulate_coscheduling(policy="spin")
        implicit = simulate_coscheduling(policy="implicit")
        assert implicit.slowdown < 1.5 * spin.slowdown

    def test_blocking_is_catastrophic(self):
        block = simulate_coscheduling(policy="block")
        implicit = simulate_coscheduling(policy="implicit")
        assert block.slowdown > 3 * implicit.slowdown

    def test_implicit_mostly_spins_once_aligned(self):
        result = simulate_coscheduling(policy="implicit")
        assert result.spun_waits > result.blocked_waits

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_coscheduling(policy="magic")

    def test_more_background_jobs_hurt_blocking_more(self):
        light = simulate_coscheduling(
            CoschedConfig(background_jobs=1), policy="block"
        )
        heavy = simulate_coscheduling(
            CoschedConfig(background_jobs=3), policy="block"
        )
        assert heavy.total_us > light.total_us


class TestManners:
    def test_governed_job_vacates_during_contention(self):
        governed = simulate_manners(governed=True)
        ungoverned = simulate_manners(governed=False)
        assert ungoverned.interference_fraction == pytest.approx(1.0)
        assert governed.interference_fraction < 0.3

    def test_governed_job_resumes_when_idle_returns(self):
        cfg = MannersConfig(windows=300, busy_start=100, busy_end=200)
        result = simulate_manners(cfg, governed=True)
        tail = result.trace[-50:]
        assert tail.count("run") > 40  # running freely after the busy period

    def test_ungoverned_never_suspends(self):
        result = simulate_manners(governed=False)
        assert result.suspended_windows == 0

    def test_suspension_only_costs_a_little_progress_when_idle(self):
        cfg = MannersConfig(windows=100, busy_start=90, busy_end=91)
        governed = simulate_manners(cfg, governed=True)
        ungoverned = simulate_manners(cfg, governed=False)
        assert governed.li_progress > 0.85 * ungoverned.li_progress


class TestProfiles:
    def test_table1_rows_match_paper(self):
        tcp = PRIOR_SYSTEMS["TCP"]
        assert "congestion" in tcp.knowledge.lower()
        assert tcp.probes == "None"
        manners = PRIOR_SYSTEMS["MS Manners"]
        assert "sign test" in manners.statistics.lower()
        cosched = PRIOR_SYSTEMS["Implicit Coscheduling"]
        assert "Round-trip" in cosched.benchmarks

    def test_profiles_have_all_seven_rows(self):
        for profile in PRIOR_SYSTEMS.values():
            assert len(profile.rows()) == 7
