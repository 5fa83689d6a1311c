"""Self-test of the end-to-end benchmark at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Checks that
``BENCHMARK.json`` is well formed and every metric it declares is
emitted, that two worker processes digest identically, that the tracer
restores every method it wraps, and that the trace attributes at least
90% of job time to a named layer on every workload.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One traced two-pass run of every workload at tiny size."""
    out = tmp_path_factory.mktemp("e2e") / "tiny.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--reps", "2",
         "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for path in BENCH["paths"]:
        assert (ROOT / path).is_dir()


def test_every_declared_metric_is_emitted(tiny_run):
    line, result = tiny_run
    assert line["correct"] and line["failed"] == 0
    for workload in WORKLOADS:
        entry = result["workloads"][workload]
        for metric in BENCH["end_to_end"]:
            assert entry["summary"][metric["name"]]["n"] >= 1
        emitted = entry["trace"]["metrics"]
        for metric in BENCH["per_layer"]:
            assert metric["name"] in emitted, (workload, metric["name"])
            assert f"{workload}.{metric['name']}" in line["metrics"]
        assert all(NAME.match(name) for name in emitted)


def test_trace_attributes_job_time_to_layers(tiny_run):
    _line, result = tiny_run
    for workload in WORKLOADS:
        metrics = result["workloads"][workload]["trace"]["metrics"]
        assert metrics["trace.attributed_share"] >= 0.9, workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_workers_digest_identically(workload, tmp_path):
    digests = []
    for index in range(2):
        result = tmp_path / f"{index}.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", "3", "--size", "tiny", "--result", str(result)],
            cwd=ROOT, check=True, timeout=300,
        )
        outputs = json.loads(result.read_text())["outputs"]
        assert outputs and not any(out["problems"] for out in outputs)
        digests.append([(out["label"], out["digest"]) for out in outputs])
    assert digests[0] == digests[1]


def test_tracer_restores_every_wrapped_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imports every traced module)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    patched = list(tracer.patches)
    try:
        assert len(patched) > 100
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        job = workloads.build_jobs("paper-figs", 0, "tiny")[0]
        tracer.run_job(job.name, job.call)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    assert tracer.patches == []
    tracer.finish()
    assert tracer.metrics(1.0)["kernel.builds"] >= 1
