"""Harness utilities plus tiny-scale smoke runs of every figure driver."""

import pytest

from repro.experiments.figures import (
    fig1_probe_correlation,
    fig2_single_file_scan,
    fig3_applications,
    fig4_multi_platform,
    fig5_file_ordering,
    fig6_aging_refresh,
    fig7_sort_mac,
    mac_available_memory,
    scaled_config,
)
from repro.experiments.harness import FigureResult, format_table, mean_std
from repro.experiments.tables import table1_prior_systems, table2_case_studies


class TestHarness:
    def test_mean_std(self):
        mean, std = mean_std([2.0, 4.0, 6.0])
        assert mean == 4.0
        assert std == pytest.approx(2.0)

    def test_mean_std_single_value(self):
        assert mean_std([7.0]) == (7.0, 0.0)

    def test_mean_std_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_format_table_aligns_columns(self):
        out = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_figure_result_row_api(self):
        result = FigureResult("figX", "title", columns=["a", "b"])
        result.add(a=1, b=2)
        assert result.column("a") == [1]
        assert result.row_where("a", 1)["b"] == 2
        with pytest.raises(KeyError):
            result.add(a=1, c=3)
        with pytest.raises(KeyError):
            result.row_where("a", 99)

    def test_render_mentions_title_and_notes(self):
        result = FigureResult("figX", "My Title", columns=["a"], scale_note="tiny")
        result.add(a=1)
        result.notes.append("shape holds")
        text = result.render()
        assert "My Title" in text and "tiny" in text and "shape holds" in text


TINY = scaled_config(memory_mb=64, reserved_mb=8)


class TestFigureSmoke:
    """Each driver runs at miniature scale and keeps its headline shape."""

    def test_fig1_correlation_high_when_prediction_under_access(self):
        result = fig1_probe_correlation(
            trials=1,
            file_mb=96,
            access_units_mb=(16,),
            prediction_units_mb=(2, 32),
            config=TINY,
        )
        small = result.row_where("prediction_unit_mb", 2)["corr_mean"]
        large = result.row_where("prediction_unit_mb", 32)["corr_mean"]
        assert small > 0.8
        assert small > large

    def test_fig2_linear_degrades_gray_does_not(self):
        result = fig2_single_file_scan(sizes_mb=(32, 96), warm_runs=1, config=TINY)
        small = result.row_where("size_mb", 32)
        big = result.row_where("size_mb", 96)
        assert small["linear_s"] == pytest.approx(small["gray_s"], rel=0.2)
        assert big["linear_s"] > 1.5 * big["gray_s"]
        assert big["linear_s"] == pytest.approx(big["model_worst_s"], rel=0.25)

    def test_fig3_gray_variants_beat_unmodified(self):
        result = fig3_applications(
            grep_files=8, grep_file_mb=8, sort_input_mb=68, sort_pass_mb=16,
            warm_runs=1, config=TINY,
        )
        for app in ("grep", "fastsort"):
            rows = [r for r in result.rows if r["app"] == app]
            by = {r["variant"]: r["normalized"] for r in rows}
            unmod = [v for k, v in by.items() if k == "unmodified"][0]
            others = [v for k, v in by.items() if k != "unmodified"]
            assert unmod == 1.0
            assert all(v < 0.95 for v in others)

    def test_fig4_platform_signatures(self):
        # Memory must exceed NetBSD's fixed 64 MB buffer cache.
        result = fig4_multi_platform(
            scan_mb={"linux22": 112, "netbsd15": 56, "solaris7": 112},
            search_files=8,
            search_file_mb=4,
            warm_runs=1,
            config=scaled_config(memory_mb=96, reserved_mb=16),
        )
        linux_scan = result.row_where("platform", "linux22")
        assert linux_scan["warm"] > 0.9      # no benefit without gray-box
        assert linux_scan["gray"] < 0.8
        netbsd = [r for r in result.rows
                  if r["platform"] == "netbsd15" and r["benchmark"] == "scan"][0]
        assert netbsd["warm"] < 0.2          # fits the fixed cache
        solaris = [r for r in result.rows
                   if r["platform"] == "solaris7" and r["benchmark"] == "scan"][0]
        assert solaris["warm"] < 0.8         # fast even unmodified
        for row in result.rows:
            if row["benchmark"] == "search":
                assert row["gray"] < 0.2

    def test_fig5_inumber_wins_by_a_factor(self):
        result = fig5_file_ordering(files=60, directories=2, trials=1)
        for platform in ("linux22", "netbsd15", "solaris7"):
            rows = {r["order"]: r["time_s_mean"] for r in result.rows
                    if r["platform"] == platform}
            assert rows["inumber"] < rows["directory"] <= rows["random"] * 1.05
            assert rows["random"] / rows["inumber"] > 2

    def test_fig6_aging_degrades_and_refresh_restores(self):
        result = fig6_aging_refresh(files=40, epochs=12, refresh_at=12,
                                    measure_every=4)
        fresh = result.rows[0]["inumber_s"]
        aged = result.rows[-2]["inumber_s"]
        restored = result.rows[-1]
        assert restored["refreshed"]
        assert aged > 1.4 * fresh
        assert restored["inumber_s"] < 1.25 * fresh

    def test_fig7_static_cliff_and_mac_adaptation(self):
        result = fig7_sort_mac(
            nprocs=2,
            input_mb=60,
            static_pass_mb=(15, 50),
            min_pass_mb=10,
            memory_mb=96,
            reserved_mb=16,
            trials=1,
        )
        good = result.row_where("pass_mb", 15)
        bad = result.row_where("pass_mb", 50)
        mac = result.row_where("variant", "gb-fastsort")
        assert bad["time_s"] > 1.5 * good["time_s"]
        assert bad["swapped_mb"] > 10 * max(good["swapped_mb"], 0.1)
        assert mac["time_s"] < bad["time_s"]
        assert mac["overhead_s"] > 0

    def test_mac_available_memory_tracks_competitor(self):
        result = mac_available_memory(
            competitor_mb=(0, 32),
            memory_mb=96,
            reserved_mb=16,
        )
        idle = result.row_where("competitor_mb", 0)
        loaded = result.row_where("competitor_mb", 32)
        assert idle["granted_mb"] >= 0.85 * idle["expected_mb"]
        assert loaded["granted_mb"] <= idle["granted_mb"] - 24


class TestTables:
    def test_table1_has_three_systems_and_seven_rows(self):
        result = table1_prior_systems(run_demos=False)
        assert len(result.rows) == 7
        assert set(result.columns) == {
            "technique", "TCP", "Implicit Coscheduling", "MS Manners"
        }

    def test_table1_demos_attach_evidence(self):
        result = table1_prior_systems(run_demos=True)
        assert any("wireless" in note for note in result.notes)
        assert any("coscheduling" in note for note in result.notes)
        assert any("Manners" in note for note in result.notes)

    def test_table2_matches_case_studies(self):
        result = table2_case_studies()
        assert set(result.columns) == {"technique", "FCCD", "FLDC", "MAC"}
        probes_row = result.row_where("technique", "Probes")
        assert "Random byte" in probes_row["FCCD"]
        assert "stat()" in probes_row["FLDC"]
        knowledge = result.row_where("technique", "Knowledge")
        assert "LRU" in knowledge["FCCD"]
