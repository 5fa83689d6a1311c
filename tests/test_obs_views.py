"""Attribution views and the Chrome trace export.

Three families of checks:

* unit tests over synthetic record streams — :func:`split_by_pid` is a
  partition, :func:`interference_matrix` counts one cell per reclaim,
  the validator rejects each class of malformed artifact;
* a small two-process kernel run — :class:`ObsView` filters the shared
  stream per client and its ledger matches the kernel's counters;
* the ``contention`` scenario end to end — the acceptance criteria from
  the observability milestone: per-client streams union to the full
  stream, the interference matrix has off-diagonal mass, and the Chrome
  trace validates with the span count the JSONL promises.
"""

import json

import pytest

from repro.obs.chrome import (
    KERNEL_TRACK,
    TRACE_PID,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.events import EventStream
from repro.obs.export import summarize_pids, validate_jsonl, write_jsonl
from repro.obs.views import (
    UNATTRIBUTED,
    ObsView,
    interference_matrix,
    process_names,
    render_matrix,
    split_by_pid,
)
from repro.sim import Kernel, syscalls as sc
from tests.conftest import KIB, small_config


# ======================================================================
# Synthetic-stream units
# ======================================================================
def _reclaim(instigator, victim, **extra):
    attrs = {"instigator_pid": instigator, "victim_pid": victim,
             "pages": 1, **extra}
    return {"type": "event", "name": "kernel.reclaim", "t_ns": 0,
            "pid": instigator, "attrs": attrs}


def test_split_by_pid_is_a_partition():
    records = [
        {"type": "event", "name": "a", "pid": 1},
        {"type": "event", "name": "b", "pid": 2},
        {"type": "event", "name": "c"},          # no pid -> bucket 0
        {"type": "span", "name": "d", "pid": 1},
    ]
    buckets = split_by_pid(records)
    assert set(buckets) == {UNATTRIBUTED, 1, 2}
    assert sum(len(b) for b in buckets.values()) == len(records)
    # Concatenation is a permutation of the input: nothing lost or doubled.
    flat = [r for bucket in buckets.values() for r in bucket]
    assert sorted(map(id, flat)) == sorted(map(id, records))


def test_interference_matrix_counts_one_cell_per_reclaim():
    records = [
        _reclaim(1, 2), _reclaim(1, 2), _reclaim(2, 1), _reclaim(1, 1),
        {"type": "event", "name": "kernel.spawn",
         "attrs": {"pid": 1, "comm": "a"}},
    ]
    matrix = interference_matrix(records)
    assert matrix == {1: {2: 2, 1: 1}, 2: {1: 1}}
    reclaims = sum(1 for r in records if r["name"] == "kernel.reclaim")
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims


def test_render_matrix_labels_kernel_and_comms():
    matrix = {0: {1: 3}, 1: {0: 1}}
    text = render_matrix(matrix, {1: "probe"})
    assert "(kernel)" in text
    assert "1:probe" in text
    assert "row-sum" in text


def test_process_names_reads_spawn_comms():
    records = [
        {"type": "event", "name": "kernel.spawn",
         "attrs": {"pid": 3, "comm": "fccd"}},
        {"type": "event", "name": "other", "attrs": {"pid": 9}},
    ]
    assert process_names(records) == {3: "fccd"}


# ======================================================================
# ObsView over a live two-process kernel
# ======================================================================
@pytest.fixture
def two_client_kernel():
    kernel = Kernel(small_config())

    def writer(path):
        fd = (yield sc.create(path)).value
        yield sc.pwrite(fd, 0, b"x" * (4 * KIB))
        yield sc.close(fd)

    def statter(path):
        for _ in range(3):
            yield sc.stat(path)

    a = kernel.spawn(writer("/mnt0/a.dat"), "writer")
    b = kernel.spawn(statter("/mnt0/a.dat"), "statter")
    kernel.run()
    return kernel, a, b


def test_obsview_filters_per_client(two_client_kernel):
    kernel, a, b = two_client_kernel
    view_a, view_b = ObsView(kernel.obs, a.pid), ObsView(kernel.obs, b.pid)
    # Filtering: every record a view returns carries its pid.
    for view in (view_a, view_b):
        assert view.records()
        assert all(r.get("pid") == view.pid for r in view.records())
    # Partition: per-pid views plus the unattributed bucket cover the
    # stream exactly.
    buckets = split_by_pid(kernel.obs.events)
    assert sum(len(b_) for b_ in buckets.values()) == len(kernel.obs.events)
    assert len(view_a.records()) == len(buckets.get(a.pid, []))
    assert "ObsView" in repr(view_a)


def test_obsview_syscall_counts_match_ledger(two_client_kernel):
    kernel, a, b = two_client_kernel
    counts_a = ObsView(kernel.obs, a.pid).syscall_counts()
    counts_b = ObsView(kernel.obs, b.pid).syscall_counts()
    assert counts_a.get("pwrite", 0) >= 1
    assert counts_b.get("stat", 0) == 3
    assert "stat" not in counts_a
    # The two ledgers sum to the aggregate counters, name by name.
    totals = {}
    for counts in (counts_a, counts_b):
        for name, n in counts.items():
            totals[name] = totals.get(name, 0) + n
    for name, n in totals.items():
        counter = kernel.obs.metrics.counter(f"kernel.syscall.{name}.calls")
        assert counter.value == n


# ======================================================================
# Chrome trace export
# ======================================================================
def test_chrome_trace_events_shapes(two_client_kernel):
    kernel, a, _b = two_client_kernel
    records = list(kernel.obs.dump_records())
    events = chrome_trace_events(records)
    closed_spans = [
        r for r in records
        if r.get("type") == "span" and r.get("end_ns") is not None
    ]
    point_events = [r for r in records if r.get("type") == "event"]
    complete = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "n"]
    meta = [e for e in events if e.get("ph") == "M"]
    assert len(complete) == len(closed_spans)
    assert len(instants) == len(point_events)
    assert meta, "track metadata missing"
    assert all(e["pid"] == TRACE_PID for e in events)
    # The writer gets its own track; kernel-side records land on tid 0.
    tids = {e["tid"] for e in complete + instants}
    assert a.pid in tids
    thread_names = {
        e["tid"]: e["args"]["name"] for e in meta
        if e.get("name") == "thread_name"
    }
    assert thread_names.get(KERNEL_TRACK) == "(kernel)"
    assert "writer" in thread_names.get(a.pid, "")


def test_write_chrome_trace_roundtrip(two_client_kernel, tmp_path):
    kernel, _a, _b = two_client_kernel
    records = list(kernel.obs.dump_records())
    out = tmp_path / "trace.json"
    count = write_chrome_trace(out, records)
    payload = json.loads(out.read_text())
    assert payload["displayTimeUnit"] == "ns"
    non_meta = [e for e in payload["traceEvents"] if e.get("ph") != "M"]
    assert len(non_meta) == count
    # Timestamps are microseconds: ns/1000 with sub-us precision kept.
    for entry in non_meta:
        assert isinstance(entry["ts"], float)


# ======================================================================
# Validator hardening
# ======================================================================
def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_validate_rejects_close_without_open(tmp_path):
    bad = tmp_path / "bad.jsonl"
    _write_lines(bad, [{"type": "span", "name": "s", "end_ns": 5}])
    with pytest.raises(ValueError, match="closed[ \n]+without opening"):
        validate_jsonl(bad)


def test_validate_rejects_duplicate_span_ids(tmp_path):
    bad = tmp_path / "bad.jsonl"
    span = {"type": "span", "name": "s", "span_id": 7,
            "start_ns": 0, "end_ns": 5}
    _write_lines(bad, [span, dict(span)])
    with pytest.raises(ValueError, match="duplicate span_id 7"):
        validate_jsonl(bad)


def test_validate_rejects_backwards_span(tmp_path):
    bad = tmp_path / "bad.jsonl"
    _write_lines(bad, [{"type": "span", "name": "s", "span_id": 1,
                        "start_ns": 10, "end_ns": 5}])
    with pytest.raises(ValueError, match="ends[ \n]+before it starts"):
        validate_jsonl(bad)


def test_validate_rejects_unspawned_pid(tmp_path):
    bad = tmp_path / "bad.jsonl"
    _write_lines(bad, [
        {"type": "event", "name": "kernel.spawn", "attrs": {"pid": 1}},
        {"type": "event", "name": "x", "pid": 99},
    ])
    with pytest.raises(ValueError, match="pid 99"):
        validate_jsonl(bad)


def test_validate_skips_pid_check_without_spawns(tmp_path):
    ok = tmp_path / "ok.jsonl"
    _write_lines(ok, [{"type": "event", "name": "x", "pid": 99}])
    assert validate_jsonl(ok) == 1


def test_validate_accepts_kernel_dump(two_client_kernel, tmp_path):
    kernel, _a, _b = two_client_kernel
    out = tmp_path / "dump.jsonl"
    n = write_jsonl(out, kernel.obs.dump_records())
    assert validate_jsonl(out) == n


def test_summarize_pids_names_each_client(two_client_kernel):
    kernel, a, b = two_client_kernel
    text = summarize_pids(list(kernel.obs.dump_records()))
    assert "writer" in text and "statter" in text
    assert str(a.pid) in text and str(b.pid) in text


def test_summarize_pids_ignores_another_tenants_children():
    # Client 1's span is open when client 2 opens one, so the stream
    # records it as client 2's parent; client 1's self time must still
    # lose only its own child's 3 s.
    clock = [0]
    stream = EventStream(lambda: clock[0])
    stream.current_pid = 1
    outer = stream.span("a.outer").start()
    inner = stream.span("a.inner").start()
    clock[0] = 3_000_000_000
    inner.end()
    stream.current_pid = 2
    other = stream.span("b.work").start()
    assert other.parent_id == outer.span_id
    clock[0] = 7_000_000_000
    other.end()
    stream.current_pid = 1
    clock[0] = 10_000_000_000
    outer.end()
    rows = {
        line.split()[0]: line.split()[-1]
        for line in summarize_pids(list(stream.records)).splitlines()[2:]
    }
    assert rows == {"1": "10.00s", "2": "4.00s"}


# ======================================================================
# Contention acceptance: the milestone's end-to-end criteria
# ======================================================================
@pytest.fixture(scope="module")
def contention_run(tmp_path_factory):
    from repro.experiments.observe import observe_config, observe_figure

    tmp = tmp_path_factory.mktemp("contention")
    jsonl, chrome = tmp / "run.jsonl", tmp / "run.trace.json"
    report = observe_figure(
        "contention",
        out_path=str(jsonl),
        config=observe_config(memory_mb=32),
        chrome_trace=str(chrome),
    )
    return report, jsonl, chrome


def test_contention_streams_union_to_full_stream(contention_run):
    report, _jsonl, _chrome = contention_run
    event_like = [
        r for r in report.records if r.get("type") in ("event", "span")
    ]
    buckets = split_by_pid(event_like)
    pids = set(report.result["pids"].values())
    assert pids <= set(buckets)
    assert sum(len(b) for b in buckets.values()) == len(event_like)


def test_contention_matrix_shows_cross_client_interference(contention_run):
    report, _jsonl, _chrome = contention_run
    matrix = report.interference()
    pid_a, pid_b = sorted(report.result["pids"].values())
    cross = matrix.get(pid_a, {}).get(pid_b, 0) + \
        matrix.get(pid_b, {}).get(pid_a, 0)
    assert cross > 0, f"no cross-client evictions: {matrix}"
    reclaims = len(report.events("kernel.reclaim"))
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims


def test_contention_artifacts_validate(contention_run):
    report, jsonl, chrome = contention_run
    assert validate_jsonl(jsonl) == len(report.records)
    payload = json.loads(chrome.read_text())
    closed_spans = [
        r for r in report.records
        if r.get("type") == "span" and r.get("end_ns") is not None
    ]
    complete = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert len(complete) == len(closed_spans)
    # Both clients own a track in the trace.
    tids = {e["tid"] for e in complete}
    assert set(report.result["pids"].values()) <= tids
