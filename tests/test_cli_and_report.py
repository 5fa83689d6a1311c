"""The `python -m repro` CLI and the EXPERIMENTS.md report summaries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, EXPERIMENTS, main
from repro.experiments.harness import FigureResult
from repro.experiments import report


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert main(["repro", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig7", "table2", "ablation-threshold"):
            assert name in out

    def test_no_args_is_usage_error(self, capsys):
        assert main(["repro"]) == 2

    def test_unknown_name_is_error(self, capsys):
        assert main(["repro", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_catalogue_covers_all_figures_tables_ablations(self):
        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "mac-available", "table1", "table2",
            "ablation-probe-placement", "ablation-threshold",
            "ablation-mac-increment", "ablation-refresh-policy",
            "extension-lfs", "robustness",
            "robustness-latency", "robustness-faults",
            "robustness-sched", "robustness-background",
        }
        assert set(EXPERIMENTS) == expected

    def test_running_a_cheap_experiment_prints_its_table(self, capsys):
        assert main(["repro", "table2"]) == 0
        out = capsys.readouterr().out
        assert "FCCD" in out and "Knowledge" in out


class TestCliContract:
    """Each subcommand takes only its own options; misuse exits 2."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["arena", "--n", "2", "--metrics-out", "m.jsonl"], id="arena-metrics-out"),
        pytest.param(["table2", "--out", "t.jsonl"], id="table2-out"),
        pytest.param(["table2", "--report", "t.json"], id="table2-report"),
        pytest.param(["table2", "--chrome-trace", "t.trace.json"], id="table2-chrome-trace"),
        pytest.param(["table2", "--policy", "weighted"], id="table2-policy"),
        pytest.param(["observe", "--jobs", "2"], id="observe-jobs"),
        pytest.param(["observe", "--plot"], id="observe-plot"),
        pytest.param(["channels", "--jobs", "2"], id="channels-jobs"),
    ])
    def test_misplaced_option_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["repro", *argv]) == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["report", "--jobs"], id="missing-value"),
        pytest.param(["report", "--jobs", "0"], id="zero"),
        pytest.param(["report", "out.md", "--jobs", "x"], id="not-a-number"),
    ])
    def test_report_rejects_bad_jobs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["repro", *argv]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["arena", "--sweep", "1,2", "--out", "A"], id="arena-sweep-out"),
        pytest.param(["arena", "--sweep", "1,2", "--report", "B"], id="arena-sweep-report"),
        pytest.param(["channels", "--sweep", "--out", "c.jsonl"], id="channels-sweep-out"),
        pytest.param(["channels", "--channel", "writeback", "--sweep"],
                     id="channels-sweep-channel"),
        pytest.param(["channels", "--sweep", "--platform", "linux22"],
                     id="channels-sweep-platform"),
        pytest.param(["channels", "--sweep", "--noise=0.4"], id="channels-sweep-noise"),
        pytest.param(["channels", "--sweep", "--bits", "8"], id="channels-sweep-bits"),
    ])
    def test_sweep_rejects_options_it_ignores(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        flag = next(a for a in argv[1:] if a.startswith("--") and a != "--sweep")
        assert main(["repro", *argv]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag.split('=')[0]}: not allowed with argument --sweep" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["channels", "--bits", "0"], id="bits-zero"),
        pytest.param(["channels", "--bits", "-3"], id="bits-negative"),
        pytest.param(["channels", "--n-background", "-1"], id="n-background-negative"),
        pytest.param(["channels", "--noise", "5"], id="noise-above-one"),
        pytest.param(["channels", "--noise=-1"], id="noise-negative"),
        pytest.param(["channels", "--noise", "nan"], id="noise-nan"),
    ])
    def test_channels_rejects_out_of_range_values(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        flag = next(a for a in argv[1:] if a.startswith("--")).split("=")[0]
        assert main(["repro", *argv]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}:" in err
        assert list(tmp_path.iterdir()) == []

    def test_arena_size_and_sweep_are_exclusive(self, capsys):
        assert main(["repro", "arena", "--n", "2", "--sweep", "1,2"]) == 2
        assert "not allowed" in capsys.readouterr().err

    def test_value_options_accept_equals_form(self, tmp_path, capsys):
        report = tmp_path / "a.json"
        assert main(["repro", "arena", "--n=4", f"--report={report}"]) == 0
        assert json.loads(report.read_text())["n"] == 4
        assert "obs digest:" in capsys.readouterr().out

    def test_run_writes_metrics_file(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(["repro", "run", "table2", f"--metrics-out={metrics}"]) == 0
        assert metrics.exists()
        assert "[metrics] wrote" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_exits_zero(self, command, capsys):
        argv = ["repro"] + ([command] if command else []) + ["--help"]
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_report_module_delegates_to_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.report", "out.md", "--jobs"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "python -m repro report" in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestReportSummaries:
    """Each summary function reads the columns its driver produces."""

    def test_fig2_summary_formats_ratios(self):
        result = FigureResult("fig2", "t", columns=[
            "size_mb", "linear_s", "gray_s", "model_worst_s", "model_ideal_s"
        ])
        result.add(size_mb=128, linear_s=7.5, gray_s=1.7,
                   model_worst_s=7.5, model_ideal_s=1.2)
        lines = report.fig2_summary(result)
        assert any("worst-case" in line for line in lines)
        assert any("4.4x" in line for line in lines)

    def test_fig3_summary_reads_normalized_times(self):
        result = FigureResult("fig3", "t", columns=["app", "variant", "time_s", "normalized"])
        for app, variant, norm in (
            ("grep", "unmodified", 1.0), ("grep", "gb-grep", 0.5),
            ("grep", "gbp-grep", 0.51), ("fastsort", "unmodified", 1.0),
            ("fastsort", "gb-fastsort", 0.6), ("fastsort", "gbp-fastsort", 0.62),
        ):
            result.add(app=app, variant=variant, time_s=norm, normalized=norm)
        lines = report.fig3_summary(result)
        assert any("0.50" in line for line in lines)

    def test_fig7_summary_identifies_cliff_and_mac(self):
        result = FigureResult("fig7", "t", columns=[
            "variant", "pass_mb", "time_s", "time_s_std",
            "mean_pass_mb", "overhead_s", "swapped_mb",
        ])
        result.add(variant="static", pass_mb=60, time_s=50.0, time_s_std=0,
                   mean_pass_mb=60, overhead_s=0, swapped_mb=0)
        result.add(variant="static", pass_mb=110, time_s=300.0, time_s_std=0,
                   mean_pass_mb=80, overhead_s=0, swapped_mb=1500)
        result.add(variant="gb-fastsort", pass_mb=0, time_s=75.0, time_s_std=0,
                   mean_pass_mb=85, overhead_s=2.0, swapped_mb=60)
        lines = report.fig7_summary(result)
        assert any("cliff" in line for line in lines)
        assert any("+50%" in line for line in lines)

    def test_mac_summary_one_line_per_row(self):
        result = FigureResult("mac", "t", columns=[
            "competitor_mb", "expected_mb", "granted_mb"
        ])
        result.add(competitor_mb=0, expected_mb=830, granted_mb=830.0)
        result.add(competitor_mb=300, expected_mb=530, granted_mb=504.0)
        assert len(report.mac_summary(result)) == 2

    def test_sections_cover_every_experiment(self):
        titles = [title for _name, title, _summary in report.SECTIONS]
        assert len(titles) == 16
        assert all(name in EXPERIMENTS for name, _title, _summary in report.SECTIONS)
        assert any("Robustness" in t for t in titles)
        assert any("Figure 7" in t for t in titles)
        assert any("Table 1" in t for t in titles)
