"""The shared benchmark gate library (``benchmarks/gate.py``)."""

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.sim import Kernel, syscalls as sc
from repro.sim.dispatch import SyscallTable
from repro.sim.proc.scheduler import Scheduler
from repro.sim.proc.syscalls import ProcLayer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_arena  # noqa: E402
import bench_core_speed  # noqa: E402
import gate  # noqa: E402

#: Calls the smoke-size profile pass makes into each section: a pure
#: function of the bench sizes, whatever the host's speed.
SMOKE_PROFILE_CALLS = {
    "syscall.pread": 12_288,
    "syscall.touch": 12_000,
    "syscall.stat": 2_400,
    "syscall.write": 408,
    "syscall.create": 404,
    "proc.advance": 28_104,
    "sched.next_ready": 28_130,
}


def check_run(tmp_path, output, current, bench):
    baseline = tmp_path / "BENCH.json"
    args = argparse.Namespace(output=output, check=baseline)
    return gate.finish(args, current, bench.check_regression, bench.deltas)


def arena_result(digest):
    entry = {"n": 64, "steps": 10, "ns_per_step": 100.0, "digest": digest,
             "deterministic": True}
    ratio = {"n_small": 1, "n_large": 64, "ratio": 1.0}
    return {"seed": 1, "mix": "m", "results": {"by_n": {"64": entry}, "step_cost_ratio": ratio}}


def test_check_never_overwrites_its_baseline(tmp_path):
    baseline = tmp_path / "BENCH.json"
    baseline.write_text(json.dumps(arena_result("a" * 64)))
    committed = baseline.read_text()
    # A different spelling of the same file, as CI's relative --check is.
    same_file = tmp_path / "sub" / ".." / "BENCH.json"
    (tmp_path / "sub").mkdir()
    assert check_run(tmp_path, same_file, arena_result("a" * 64), bench_arena) == 0
    assert baseline.read_text() == committed
    elsewhere = tmp_path / "fresh.json"
    check_run(tmp_path, elsewhere, arena_result("a" * 64), bench_arena)
    assert json.loads(elsewhere.read_text()) == arena_result("a" * 64)


def test_digest_mismatch_reported_with_its_key(tmp_path, capsys):
    (tmp_path / "BENCH.json").write_text(json.dumps(arena_result("b" * 64)))
    assert check_run(tmp_path, tmp_path / "out.json", arena_result("a" * 64), bench_arena) == 1
    err = capsys.readouterr().err
    assert "REGRESSION: N=64 obs digest: aaaaaaaaaaaaaaaa... != baseline bbbb" in err


def test_cross_mode_baseline_skips_ratchet_keeps_floors():
    def speedups(smoke, pread, touch, **extra):
        results = {"pread_probe_throughput": {"speedup": pread},
                   "touch_probe_throughput": {"speedup": touch}, **extra}
        return {"smoke": smoke, "results": results}

    steps = {"kernel_step_rate_by_platform": {"linux22": {"steps_per_s": 1e6}}}
    baseline = speedups(False, 10.0, 10.0, **steps)
    cross = bench_core_speed.check_regression(speedups(True, 3.5, 2.0), baseline)
    assert cross == ["touch_probe_throughput.speedup: 2x fell below the floor 3x"]
    same = bench_core_speed.check_regression(speedups(False, 3.5, 2.0), baseline)
    assert len(same) == 3  # touch floor, pread ratchet, missing step rate
    assert any(f.startswith("pread_probe_throughput.speedup") and "80% of baseline" in f
               for f in same)
    assert gate.ratchet("x", 1.0, 10.0, 0.8, comparable=False) == []


def profiled_entry_points():
    return (vars(Scheduler)["next_ready"], vars(SyscallTable)["register"],
            vars(ProcLayer)["_admit"])


def test_profile_pass_counts_sections_and_restores_entry_points(monkeypatch):
    originals = profiled_entry_points()
    profile = bench_core_speed.run_profile_pass(smoke=True)
    rows = profile["top_sections"]
    calls = {row["section"]: row["calls"] for row in rows}
    assert {name: calls.get(name) for name in SMOKE_PROFILE_CALLS} == SMOKE_PROFILE_CALLS
    totals = [row["total_ms"] for row in rows]
    assert totals == sorted(totals, reverse=True)
    assert sum(row["share"] for row in rows) <= 1.001  # shares of all sections
    assert all(row["section"] in profile["table"] for row in rows)
    assert profiled_entry_points() == originals

    def failing_bench(**_params):
        def app():
            yield sc.gettime()
            raise RuntimeError("bench failed mid-pass")
        Kernel(bench_core_speed._config()).run_process(app(), "fail")

    monkeypatch.setattr(bench_core_speed, "bench_touch_probes", failing_bench)
    with pytest.raises(RuntimeError, match="mid-pass"):
        bench_core_speed.run_profile_pass(smoke=True)
    assert profiled_entry_points() == originals
