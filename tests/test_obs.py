"""The observability layer: metrics, events/spans, exporters, and the
kernel/ICL integration the layer exists for (joining inference-phase
spans against kernel activity on one simulated timeline)."""

import json
import random

import pytest

from repro.experiments.observe import observe_config, observe_figure
from repro.experiments.runner import TrialSpec, configuration, drain_stats, run_trials
from repro.obs import DISABLED, Observability, capture_metrics, merge_samples
from repro.icl.fccd import FCCD
from repro.obs.events import EventStream
from repro.obs.export import main as export_main
from repro.obs.export import (
    read_jsonl,
    run_stats_records,
    stream_digest,
    summarize_events,
    summarize_metrics,
    validate_jsonl,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry, SnapshotStats
from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.errors import FileNotFound
from repro.toolbox.timers import Stopwatch
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024


def sequential_read(path, chunk=64 * KIB):
    fd = (yield sc.open(path)).value
    size = (yield sc.fstat(fd)).value.size
    offset = 0
    while offset < size:
        got = (yield sc.pread(fd, offset, min(chunk, size - offset))).value
        offset += got.nbytes
    yield sc.close(fd)


# ======================================================================
# Histograms
# ======================================================================
class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        h = Histogram("h", bounds=(10, 100, 1000))
        for value in (5, 10, 11, 100, 999, 1000, 1001):
            h.observe(value)
        # <=10 | <=100 | <=1000 | overflow
        assert h.bucket_counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == 5 + 10 + 11 + 100 + 999 + 1000 + 1001
        assert h.min == 5 and h.max == 1001

    def test_overflow_bucket_catches_everything(self):
        h = Histogram("h", bounds=(1,))
        h.observe(10**18)
        assert h.bucket_counts == [0, 1]

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))

    def test_quantiles_approximate_from_buckets(self):
        h = Histogram("h", bounds=(10, 100, 1000))
        for _ in range(90):
            h.observe(7)
        for _ in range(10):
            h.observe(500)
        assert h.quantile(0.5) == 10.0  # covering bucket's upper bound
        assert h.quantile(0.95) == 1000.0
        assert h.mean == pytest.approx((90 * 7 + 10 * 500) / 100)

    def test_default_bounds_span_cache_hit_to_seconds(self):
        h = Histogram("h")
        assert h.bounds[0] <= 1_000  # sub-microsecond hits distinguishable
        assert h.bounds[-1] >= 10**9  # seconds-long stalls not all overflow


# ======================================================================
# Registry and merging
# ======================================================================
class TestRegistryAndMerge:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_merge_counters_add_gauges_last_wins(self):
        a = [{"type": "metric", "kind": "counter", "name": "c", "value": 2},
             {"type": "metric", "kind": "gauge", "name": "g", "value": 5}]
        b = [{"type": "metric", "kind": "counter", "name": "c", "value": 3},
             {"type": "metric", "kind": "gauge", "name": "g", "value": 7}]
        merged = {(s["kind"], s["name"]): s for s in merge_samples(a, b)}
        assert merged[("counter", "c")]["value"] == 5
        assert merged[("gauge", "g")]["value"] == 7

    def test_merge_histograms_bucketwise(self):
        h1, h2 = Histogram("h", bounds=(10, 100)), Histogram("h", bounds=(10, 100))
        h1.observe(5)
        h2.observe(50)
        h2.observe(5000)
        (merged,) = merge_samples([h1.sample()], [h2.sample()])
        assert merged["count"] == 3
        assert merged["bucket_counts"] == [1, 1, 1]
        assert merged["min"] == 5 and merged["max"] == 5000

    def test_merge_histograms_bounds_mismatch_degrades(self):
        h1, h2 = Histogram("h", bounds=(10,)), Histogram("h", bounds=(99,))
        h1.observe(1)
        h2.observe(2)
        (merged,) = merge_samples([h1.sample()], [h2.sample()])
        assert merged["bounds"] is None and merged["bucket_counts"] is None
        assert merged["count"] == 2 and merged["sum"] == 3

    def test_register_stats_exports_fields_as_counters(self):
        import dataclasses

        @dataclasses.dataclass
        class S(SnapshotStats):
            foo: int = 0

        reg = MetricsRegistry()
        s = S()
        reg.register_stats("x", s)
        s.foo = 9
        assert {"type": "metric", "kind": "counter", "name": "x.foo",
                "value": 9} in reg.collect()

    def test_snapshot_stats_delta(self):
        import dataclasses

        @dataclasses.dataclass
        class S(SnapshotStats):
            a: int = 0
            b: int = 0

        s = S(a=3, b=5)
        before = s.snapshot()
        s.a += 4
        assert s.delta(before).as_dict() == {"a": 4, "b": 0}


# ======================================================================
# Spans and events
# ======================================================================
class FakeClock:
    def __init__(self):
        self.now = 0


class TestSpans:
    def test_nesting_assigns_parent(self):
        stream = EventStream(lambda: 0)
        with stream.span("outer") as outer:
            with stream.span("inner"):
                pass
        records = {r["name"]: r for r in stream.spans()}
        assert records["inner"]["parent_id"] == outer.span_id
        assert records["outer"]["parent_id"] is None

    def test_span_times_come_from_the_stream_clock(self):
        clock = FakeClock()
        stream = EventStream(lambda: clock.now)
        span = stream.span("s").start()
        clock.now = 500
        assert span.end() == 500
        (record,) = stream.spans()
        assert record["start_ns"] == 0 and record["end_ns"] == 500

    def test_end_before_start_matches_stopwatch_misuse(self):
        # The span API mirrors Stopwatch: stopping before starting is a
        # RuntimeError in both, so misuse reads identically across the
        # timing layers.  (Stopwatch.stop is a generator; the check
        # fires on first advance.)
        with pytest.raises(RuntimeError):
            next(Stopwatch().stop())
        stream = EventStream(lambda: 0)
        with pytest.raises(RuntimeError):
            stream.span("s").end()

    def test_double_start_and_double_end_raise(self):
        stream = EventStream(lambda: 0)
        span = stream.span("s").start()
        with pytest.raises(RuntimeError):
            span.start()
        span.end()
        with pytest.raises(RuntimeError):
            span.end()

    def test_unclosed_span_detected(self):
        stream = EventStream(lambda: 0)
        stream.span("left-open").start()
        assert [s.name for s in stream.unclosed()] == ["left-open"]
        with pytest.raises(RuntimeError, match="left-open"):
            stream.check_closed()

    def test_out_of_order_close_is_allowed(self):
        # Interleaved simulated processes can close spans out of LIFO
        # order; both must still record.
        stream = EventStream(lambda: 0)
        a = stream.span("a").start()
        b = stream.span("b").start()
        a.end()
        b.end()
        assert sorted(r["name"] for r in stream.spans()) == ["a", "b"]
        stream.check_closed()

    def test_exception_inside_span_records_error_attr(self):
        stream = EventStream(lambda: 0)
        with pytest.raises(ValueError):
            with stream.span("risky"):
                raise ValueError("boom")
        (record,) = stream.spans()
        assert record["attrs"]["error"] == "ValueError"

    def test_disabled_observability_returns_noop_span(self):
        span = DISABLED.span("anything", a=1)
        with span:
            span.attrs["later"] = 2  # must not raise
        DISABLED.count("nope")
        DISABLED.event("nope")
        assert DISABLED.collect() == []
        # The shared instance must stay empty: nothing may register on it.
        assert DISABLED.metrics.collect() == []
        assert len(DISABLED.events) == 0


# ======================================================================
# Exporters
# ======================================================================
class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        obs = Observability(FakeClock())
        obs.count("c", 3)
        obs.observe("h", 42)
        obs.event("e", detail="x")
        with obs.span("s", tag=(1, 2)):  # tuple attr must not break JSON
            pass
        path = tmp_path / "dump.jsonl"
        count = write_jsonl(path, obs.dump_records())
        assert validate_jsonl(path) == count
        records = read_jsonl(path)
        by_type = {}
        for r in records:
            by_type.setdefault(r["type"], []).append(r)
        assert {r["name"]: r["value"] for r in by_type["metric"]
                if r["kind"] == "counter"}["c"] == 3
        assert by_type["event"][0]["attrs"] == {"detail": "x"}
        assert by_type["span"][0]["attrs"] == {"tag": [1, 2]}

    def test_unclosed_spans_exported_flagged(self, tmp_path):
        obs = Observability(FakeClock())
        obs.span("open").start()
        records = list(obs.dump_records())
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["unclosed"] is True and span["end_ns"] is None

    def test_validate_rejects_bad_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "metric"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            validate_jsonl(bad)
        no_type = tmp_path / "untyped.jsonl"
        no_type.write_text('{"name": "x"}\n')
        with pytest.raises(ValueError, match="'type' field"):
            validate_jsonl(no_type)

    def test_summaries_render_every_kind(self):
        obs = Observability(FakeClock())
        obs.count("requests", 2)
        obs.observe("latency", 1_500)
        obs.event("tick")
        with obs.span("phase"):
            pass
        metrics_text = summarize_metrics(obs.collect())
        assert "requests" in metrics_text and "latency" in metrics_text
        assert "1.5us" in metrics_text
        events_text = summarize_events(obs.events)
        assert "tick" in events_text and "phase" in events_text


# ======================================================================
# Kernel integration
# ======================================================================
def small_config():
    return MachineConfig(
        page_size=64 * KIB,
        memory_bytes=48 * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )


class TestKernelIntegration:
    def test_cache_hit_miss_metrics_match_oracle_workload(self):
        # Oracle workload: write a small file (cache misses on insert),
        # then read it twice from cache (pure hits).  The policy-level
        # stats the registry exports must match those counts exactly.
        config = small_config()
        kernel = Kernel(config)
        nbytes = 8 * config.page_size
        kernel.run_process(make_file("/mnt0/f.dat", nbytes, sync=False), "w")
        stats = kernel.oracle.cache_stats()
        before = stats.snapshot()
        for i in range(2):
            kernel.run_process(sequential_read("/mnt0/f.dat"), f"r{i}")
        delta = stats.delta(before)
        assert delta.misses == 0
        # 8 data pages per pass; metadata touches may add more hits.
        assert delta.hits >= 16

        names = {s["name"]: s["value"]
                 for s in kernel.obs.collect() if s["kind"] == "counter"}
        assert names["cache.file.hits"] == stats.hits
        assert names["cache.file.misses"] == stats.misses
        assert names["cache.file.evictions"] == stats.evictions

    def test_syscall_metrics_count_every_call(self):
        kernel = Kernel(small_config())
        kernel.run_process(make_file("/mnt0/g.dat", 64 * KIB), "w")
        samples = {s["name"]: s for s in kernel.obs.collect()}
        assert samples["kernel.syscall.create.calls"]["value"] == 1
        lat = samples["kernel.syscall.write.latency_ns"]
        assert lat["kind"] == "histogram"
        assert lat["count"] == samples["kernel.syscall.write.calls"]["value"] > 0

    def test_probe_span_joins_reclaim_events(self, tmp_path):
        # The acceptance criterion: in an `observe scan` dump, at least
        # one fccd.probe_batch span must contain a kernel.reclaim event
        # within its simulated-time window.
        out = tmp_path / "observe-scan.jsonl"
        report = observe_figure("scan", out_path=str(out))
        spans = report.spans("fccd.probe_batch")
        assert spans, "scan scenario recorded no probe spans"
        joined = [s for s in spans if report.events_within(s, "kernel.reclaim")]
        assert joined, "no reclaim events landed inside any probe span"
        # And the same join must survive the JSONL round trip.
        records = read_jsonl(out)
        disk_spans = [r for r in records
                      if r["type"] == "span" and r["name"] == "fccd.probe_batch"]
        reclaims = [r for r in records
                    if r["type"] == "event" and r["name"] == "kernel.reclaim"]
        assert any(
            s["start_ns"] <= e["t_ns"] <= s["end_ns"]
            for s in disk_spans for e in reclaims
        )
        assert validate_jsonl(out) == len(records)

    def test_observe_scenarios_all_produce_icl_spans(self):
        for scenario, span_name in (
            ("fldc", "fldc.refresh"),
            ("mac", "mac.gb_alloc"),
        ):
            report = observe_figure(scenario)
            assert report.spans(span_name), scenario

    def test_fldc_probe_span_names_distinguish_batch_from_sweep(self):
        """The vectored probe records ``fldc.stat_batch``; the
        sequential fallback records ``fldc.stat_sweep`` — distinct
        names, so exported JSONL can tell the two probe shapes apart."""
        from repro.icl.fldc import FLDC

        paths = [f"/mnt0/d/f{i}" for i in range(6)]
        for batch, expected, absent in (
            (True, "fldc.stat_batch", "fldc.stat_sweep"),
            (False, "fldc.stat_sweep", "fldc.stat_batch"),
        ):
            kernel = Kernel(MachineConfig())

            def populate():
                yield sc.mkdir("/mnt0/d")
                for path in paths:
                    fd = (yield sc.create(path)).value
                    yield sc.close(fd)
            kernel.run_process(populate(), "setup")
            fldc = FLDC(obs=kernel.obs, batch_probes=batch)

            def app():
                return (yield from fldc.layout_order(paths))
            kernel.run_process(app(), "fldc")
            names = {r["name"] for r in kernel.obs.events.spans()}
            assert expected in names, (batch, names)
            assert absent not in names, (batch, names)


# ======================================================================
# Syscall records (the opt-in strace on the obs stream)
# ======================================================================
def recording(kernel):
    kernel.obs.syscall_records = True
    return kernel


def records(kernel, pid=None):
    """Attrs of every ``kernel.syscall`` record (or one pid's), in order."""
    return [r["attrs"] for r in kernel.obs.events.by_name("kernel.syscall")
            if pid is None or r["pid"] == pid]


def names(kernel, pid=None):
    return [r["syscall"] for r in records(kernel, pid)]


def issue(*syscalls):
    for syscall in syscalls:
        yield syscall


def pipe_pair(kernel, writer, reader):
    """Run ``writer`` and ``reader`` on the two ends of one pipe."""
    pipe = recording(kernel).make_pipe()
    w = kernel.spawn_with_pipe_ends(writer, [(pipe, "pipe_w")], "w")
    r = kernel.spawn_with_pipe_ends(reader, [(pipe, "pipe_r")], "r")
    kernel.run()
    return w, r


class TestSyscallRecords:
    def test_records_syscalls_in_order(self, kernel):
        def app():
            fd = (yield sc.create("/mnt0/f")).value
            yield sc.write(fd, 100)
            yield sc.close(fd)
        recording(kernel).run_process(app(), "writer")
        assert names(kernel) == ["create", "write", "close"]

    def test_records_carry_process_identity_and_timing(self, kernel):
        proc = recording(kernel).spawn(issue(sc.sleep(5_000)), "sleeper")
        kernel.run()
        assert records(kernel, proc.pid) == [
            {"syscall": "sleep", "args": (5_000,), "start_ns": 0, "elapsed_ns": 5_000},
        ]

    def test_counts_and_totals(self, kernel):
        recording(kernel).run_process(issue(*[sc.sleep(1_000)] * 3, sc.gettime()), "app")
        assert names(kernel) == ["sleep"] * 3 + ["gettime"]
        assert sum(r["elapsed_ns"] for r in records(kernel)[:3]) == 3_000

    def test_records_attributed_per_process(self, kernel):
        a = recording(kernel).spawn(issue(sc.sleep(10)), "a")
        b = kernel.spawn(issue(sc.sleep(10)), "b")
        kernel.run()
        assert names(kernel, a.pid) == names(kernel, b.pid) == ["sleep"]

    def test_event_capacity_bounds_records(self, config):
        kernel = recording(Kernel(config, event_capacity=5))
        kernel.run_process(issue(*[sc.gettime()] * 20), "app")
        # The ring keeps the newest records: the last gettimes and the exit.
        assert [r["name"] for r in kernel.obs.events] == ["kernel.syscall"] * 4 + ["kernel.exit"]

    def test_bad_event_capacity_rejected(self, config):
        with pytest.raises(ValueError):
            Kernel(config, event_capacity=0)

    def test_clearing_flag_stops_recording(self, kernel):
        recording(kernel).obs.syscall_records = False
        kernel.run_process(issue(sc.sleep(1)), "app")
        assert records(kernel) == []

    def test_records_off_by_default_and_purely_additive(self, config):
        def dump(kernel):
            kernel.run_process(make_file("/mnt0/d.dat", 256 * KIB), "w")
            kernel.run_process(sequential_read("/mnt0/d.dat"), "r")
            return list(kernel.obs.dump_records())

        off = dump(Kernel(config))
        on = dump(recording(Kernel(config)))
        assert not any(r.get("name") == "kernel.syscall" for r in off)
        stripped = [r for r in on if r.get("name") != "kernel.syscall"]
        assert len(stripped) < len(on)
        assert stream_digest(stripped) == stream_digest(off)

    def test_errored_open_recorded_with_error(self, kernel):
        def app():
            try:
                yield sc.open("/mnt0/ghost")
            except FileNotFound:
                pass
            yield sc.sleep(1)
        recording(kernel).run_process(app(), "app")
        opened, slept = records(kernel)
        assert opened["syscall"] == "open" and opened["error"] == "ENOENT"
        assert opened["elapsed_ns"] == kernel.config.syscall_overhead_ns
        assert slept["syscall"] == "sleep" and "error" not in slept

    def test_fccd_probe_pattern_is_visible(self, kernel):
        """The records show FCCD issuing one sorted pread per window."""
        kernel.run_process(make_file("/mnt0/f", 8 * MIB), "setup")
        fccd = FCCD(
            rng=random.Random(1),
            access_unit_bytes=4 * MIB,
            prediction_unit_bytes=1 * MIB,
            batch_probes=False,  # per-probe records are the point here
        )

        def app():
            return (yield from fccd.plan_file("/mnt0/f"))
        recording(kernel).run_process(app(), "prober")
        offsets = [r["args"][1] for r in records(kernel)
                   if r["syscall"] == "pread" and r["args"][2] == 1]
        assert len(offsets) == 8  # 8 MiB / 1 MiB prediction units
        assert offsets == sorted(offsets)

    def test_dump_validates_and_converts_to_chrome_trace(self, kernel, tmp_path):
        recording(kernel).run_process(make_file("/mnt0/v.dat", 64 * KIB), "w")
        dump, trace = tmp_path / "records.jsonl", tmp_path / "records.trace.json"
        write_jsonl(dump, kernel.obs.dump_records())
        assert export_main(["export", "--validate", str(dump)]) == 0
        assert export_main(["export", "--chrome-trace", str(trace), str(dump)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"] == "kernel.syscall" for e in events)


class TestBlockingSyscallsRecordedOnce:
    """A syscall that blocks is re-executed by the kernel on every
    wakeup; it must still yield one record, not one per attempt."""

    def test_blocking_pipe_read_appears_exactly_once(self, kernel):
        def reader(r_fd):
            result = (yield sc.read(r_fd, 100)).value
            yield sc.close(r_fd)
            return result.nbytes

        # The writer sleeps first so the reader blocks.
        _, cons = pipe_pair(kernel, lambda w: issue(
            sc.sleep(2_000_000), sc.write(w, 100), sc.close(w)), reader)
        assert cons.result == 100
        assert names(kernel, cons.pid) == ["read", "close"]

    def test_blocked_read_start_ns_is_first_attempt(self, kernel):
        _, cons = pipe_pair(
            kernel,
            lambda w: issue(sc.sleep(5_000_000), sc.write(w, 10), sc.close(w)),
            lambda r: issue(sc.read(r, 10), sc.close(r)),
        )
        (read,) = [e for e in kernel.obs.events.by_name("kernel.syscall")
                   if e["pid"] == cons.pid and e["attrs"]["syscall"] == "read"]
        # Attempted at once, completed only after the writer's 5 ms
        # sleep: start_ns keeps the blocked interval visible.
        assert read["attrs"]["start_ns"] < 5_000_000 <= read["t_ns"]

    def test_blocking_waitpid_appears_exactly_once(self, kernel):
        def child():
            yield sc.sleep(3_000_000)
            return "done"

        def parent():
            pid = (yield sc.spawn(child(), "child")).value
            return (yield sc.waitpid(pid)).value

        assert recording(kernel).run_process(parent(), "parent") == "done"
        assert names(kernel).count("waitpid") == 1

    def test_contended_pipe_traffic_counts_completed_calls(self, kernel):
        """Producer/consumer with capacity stalls on both sides: one
        record per *completed* call, however often either side blocked."""
        from repro.sim.proc.process import PipeBuffer

        total = PipeBuffer.CAPACITY * 3
        calls = {"write": 0, "read": 0}

        def producer(w_fd):
            sent = 0
            while sent < total:
                calls["write"] += 1
                sent += (yield sc.write(w_fd, total - sent)).value
            yield sc.close(w_fd)
            return sent

        def consumer(r_fd):
            yield sc.sleep(10_000_000)
            while True:
                calls["read"] += 1
                if (yield sc.read(r_fd, PipeBuffer.CAPACITY)).value.eof:
                    break
            yield sc.close(r_fd)

        prod, cons = pipe_pair(kernel, producer, consumer)
        assert prod.result == total
        assert names(kernel, prod.pid).count("write") == calls["write"]
        assert names(kernel, cons.pid).count("read") == calls["read"]


# ======================================================================
# Runner capture
# ======================================================================
def _metric_trial(seed, *, config, nbytes):
    kernel = Kernel(config)
    kernel.run_process(make_file("/mnt0/t.dat", nbytes, sync=False), "w")
    kernel.run_process(sequential_read("/mnt0/t.dat"), "r")
    return {"ok": True}


class TestRunnerCapture:
    def test_capture_metrics_attaches_enabled_instances_only(self):
        with capture_metrics() as capture:
            obs = Observability(FakeClock())
            obs.count("seen")
            Observability(enabled=False)  # must not attach
        names = [s["name"] for s in capture.samples()]
        assert "seen" in names

    def test_trial_metrics_flow_into_run_stats(self):
        specs = [
            TrialSpec("obs-test", i, _metric_trial,
                      params={"config": small_config(), "nbytes": 4 * 64 * KIB})
            for i in range(2)
        ]
        drain_stats()
        with configuration(jobs=1, use_cache=False):
            values = run_trials(specs)
        assert all(v == {"ok": True} for v in values)
        (stats,) = drain_stats()
        names = {s["name"]: s["value"] for s in stats.metric_samples
                 if s["kind"] == "counter"}
        # Counters merge across the two trials: 4 pages written each.
        assert names["cache.file.misses"] >= 8
        assert names["kernel.syscall.create.calls"] == 2

    def test_run_stats_records_jsonl(self, tmp_path):
        specs = [TrialSpec("obs-jsonl", 0, _metric_trial,
                           params={"config": small_config(),
                                   "nbytes": 2 * 64 * KIB})]
        drain_stats()
        with configuration(jobs=1, use_cache=False):
            run_trials(specs)
        stats = drain_stats()
        path = tmp_path / "metrics.jsonl"
        count = write_jsonl(path, run_stats_records(stats))
        assert validate_jsonl(path) == count
        records = read_jsonl(path)
        assert records[0]["type"] == "run_stats"
        assert records[0]["experiment"] == "obs-jsonl"
        assert any(r["type"] == "metric" and r["experiment"] == "obs-jsonl"
                   for r in records[1:])

    def test_cached_trials_still_contribute_metrics(self, tmp_path):
        spec = TrialSpec("obs-cache", 0, _metric_trial,
                         params={"config": small_config(),
                                 "nbytes": 2 * 64 * KIB})
        drain_stats()
        with configuration(jobs=1, use_cache=True, cache_dir=tmp_path):
            run_trials([spec])
            (fresh,) = drain_stats()
            run_trials([spec])
            (cached,) = drain_stats()
        assert cached.cached == 1
        fresh_names = {s["name"] for s in fresh.metric_samples}
        cached_names = {s["name"] for s in cached.metric_samples}
        assert "cache.file.misses" in fresh_names
        assert fresh_names == cached_names
