"""Exporters: JSONL dumps, validation, and aggregated text summaries.

Every record is one JSON object per line — metrics, events, spans, and
runner telemetry share the artifact, distinguished by their ``type``
field (``metric`` / ``event`` / ``span`` / ``run_stats`` / ``meta``).
CI validates the artifact with ``python -m repro.obs.export --validate
FILE...``, which exits non-zero on the first malformed line or span
pairing/attribution violation, and ``--chrome-trace OUT.json FILE...``
converts validated artifacts into a Perfetto-loadable trace
(:mod:`repro.obs.chrome`).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.views import render_table


def _jsonable(value: Any) -> Any:
    """Coerce exotic values (tuples, keys, generators) to JSON-safe form."""
    return json.loads(json.dumps(value, default=str))


def write_jsonl(path: Union[str, Path],
                records: Iterable[Dict[str, Any]]) -> int:
    """Write records one-per-line; returns the number written."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(_jsonable(record), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def write_json(path: Union[str, Path], payload: Any) -> None:
    """Write one indented, key-sorted JSON document (a run's report file)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def stream_digest(records: Iterable[Dict[str, Any]]) -> str:
    """A stable sha256 over a stream's events, spans, and pid ledgers.

    This is the arena's determinism pin: same seed ⇒ identical digest
    across runs and across client construction orders (and a tracked
    baseline digest in ``BENCH_arena.json``).  Each covered record is
    canonicalized (sorted keys, no whitespace) and fed to the hash in
    stream order; ``metric`` samples are excluded so the pin covers
    exactly the attributed event stream plus the per-pid syscall
    ledgers, independent of which registry instruments happen to exist.
    """
    digest = hashlib.sha256()
    for record in records:
        if record.get("type") not in ("event", "span", "pid_stats"):
            continue
        canonical = json.dumps(
            _jsonable(record), sort_keys=True, separators=(",", ":")
        )
        digest.update(canonical.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def validate_jsonl(path: Union[str, Path]) -> int:
    """Validate a JSONL artifact; returns the record count.

    Two passes.  Line pass: every line parses as a JSON object with a
    ``type`` field.  Stream pass (span pairing and attribution):

    * a span closed without ever opening (``end_ns`` set, ``start_ns``
      or ``span_id`` missing) is an error;
    * ``end_ns`` earlier than ``start_ns`` is an error (simulated time
      never runs backward);
    * duplicate ``span_id`` values are an error;
    * if the stream carries ``kernel.spawn`` events (any attributed
      kernel dump does), a record stamped with a pid the kernel never
      spawned is an error.  Files without spawn events (runner metric
      dumps) skip the pid check.

    Raises ``ValueError`` naming the first offending line.  This is the
    check CI runs against the artifacts the smoke run uploads.
    """
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            raise ValueError(f"{path}:{lineno}: blank line in JSONL output")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {err}") from err
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(
                f"{path}:{lineno}: record is not an object with a 'type' field"
            )
        records.append(record)

    # Stream pass: collect the legitimate pid set first (spawn events may
    # legally appear anywhere relative to the records they legitimize).
    spawned = {
        int(r["attrs"]["pid"])
        for r in records
        if r.get("type") == "event" and r.get("name") == "kernel.spawn"
        and "pid" in (r.get("attrs") or {})
    }
    seen_span_ids: Dict[int, int] = {}
    for lineno, record in enumerate(records, start=1):
        kind = record.get("type")
        if kind == "span":
            span_id = record.get("span_id")
            if record.get("end_ns") is not None and (
                span_id is None or record.get("start_ns") is None
            ):
                raise ValueError(
                    f"{path}:{lineno}: span {record.get('name')!r} closed "
                    f"without opening (missing span_id/start_ns)"
                )
            if span_id is not None:
                if span_id in seen_span_ids:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate span_id {span_id} "
                        f"(first seen on line {seen_span_ids[span_id]})"
                    )
                seen_span_ids[span_id] = lineno
            start, end = record.get("start_ns"), record.get("end_ns")
            if start is not None and end is not None and end < start:
                raise ValueError(
                    f"{path}:{lineno}: span {record.get('name')!r} ends "
                    f"before it starts ({end} < {start})"
                )
        if spawned and kind in ("event", "span"):
            pid = record.get("pid")
            if pid is not None and pid != 0 and pid not in spawned:
                raise ValueError(
                    f"{path}:{lineno}: record attributed to pid {pid}, "
                    f"which the kernel never spawned"
                )
    return len(records)


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------
def event_records(stream, include_unclosed: bool = True) -> Iterator[Dict[str, Any]]:
    """Every record in an :class:`~repro.obs.events.EventStream`.

    Spans still open at export time are emitted with ``end_ns: null``
    and ``unclosed: true`` rather than silently dropped — an unclosed
    span in a dump is a bug worth seeing.
    """
    yield from iter(stream)
    if include_unclosed:
        for span in stream.unclosed():
            record = span.as_record()
            record["unclosed"] = True
            yield record


def run_stats_records(stats_list) -> Iterator[Dict[str, Any]]:
    """Runner telemetry (:class:`~repro.experiments.runner.RunStats`)
    as JSONL records: one ``run_stats`` line per experiment, followed by
    that experiment's merged per-trial metric samples tagged with the
    experiment id."""
    for stats in stats_list:
        yield {
            "type": "run_stats",
            "experiment": stats.experiment_id,
            "trials": stats.trials,
            "cached": stats.cached,
            "simulated": stats.simulated,
            "wall_s": stats.wall_s,
            "sim_s": stats.sim_s,
        }
        for sample in getattr(stats, "metric_samples", []):
            tagged = dict(sample)
            tagged["experiment"] = stats.experiment_id
            yield tagged


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------
def _format_ns(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e9:
        return f"{value / 1e9:.2f}s"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def _histogram_quantile(sample: Dict[str, Any], q: float) -> Optional[float]:
    bounds = sample.get("bounds")
    buckets = sample.get("bucket_counts")
    count = sample.get("count", 0)
    if not bounds or not buckets or not count:
        return None
    rank = q * count
    running = 0
    for i, n in enumerate(buckets):
        running += n
        if running >= rank and n:
            if i < len(bounds):
                return float(bounds[i])
            return sample.get("max")
    return sample.get("max")


def summarize_metrics(samples: Iterable[Dict[str, Any]]) -> str:
    """An aligned text table over metric samples, sorted by name.

    Counters/gauges get one value column; histograms show count, mean,
    approximate p50/p95, and max in human time units (histogram values
    here are simulated nanoseconds).
    """
    rows: List[List[str]] = []
    for sample in sorted(samples, key=lambda s: (s["name"], s["kind"])):
        if sample.get("type") != "metric":
            continue
        if sample["kind"] == "histogram":
            count = sample.get("count", 0)
            mean = (sample["sum"] / count) if count else None
            rows.append([
                sample["name"], "histogram", str(count),
                _format_ns(mean),
                _format_ns(_histogram_quantile(sample, 0.5)),
                _format_ns(_histogram_quantile(sample, 0.95)),
                _format_ns(sample.get("max")),
            ])
        else:
            value = sample["value"]
            shown = f"{value:g}" if isinstance(value, float) else str(value)
            rows.append([sample["name"], sample["kind"], shown,
                         "", "", "", ""])
    header = ["name", "kind", "value/count", "mean", "p50", "p95", "max"]
    return render_table(header, rows, left=True)


def summarize_events(records: Iterable[Dict[str, Any]]) -> str:
    """Per-name event/span counts with total span time, as a text table."""
    counts: Dict[tuple, Dict[str, Any]] = {}
    for record in records:
        if record.get("type") not in ("event", "span"):
            continue
        key = (record["type"], record["name"])
        agg = counts.setdefault(key, {"n": 0, "elapsed": 0})
        agg["n"] += 1
        agg["elapsed"] += record.get("elapsed_ns") or 0
    header = ["name", "type", "count", "total-time"]
    rows = [
        [name, kind, str(agg["n"]),
         _format_ns(agg["elapsed"]) if kind == "span" else ""]
        for (kind, name), agg in sorted(counts.items(),
                                        key=lambda kv: kv[0][1])
    ]
    return render_table(header, rows, left=True)


def summarize_pids(records: Iterable[Dict[str, Any]]) -> str:
    """Per-process rollup: events, spans, and span self-time per pid.

    Self-time charges each span with its own duration minus its direct
    children's (via ``parent_id``), so one pid's column sums to time it
    actually spent, not time double-counted through nesting.  Only a
    child with the parent's own pid counts: a span opened while another
    tenant's span is open records that span as its parent, but the two
    are interleaved work, not nested work.  Pid 0 is the
    unattributed/kernel bucket; process names come from ``kernel.spawn``
    events when present.
    """
    records = list(records)
    names: Dict[int, str] = {}
    per_pid: Dict[int, Dict[str, int]] = {}

    def bucket(pid: int) -> Dict[str, int]:
        agg = per_pid.get(pid)
        if agg is None:
            per_pid[pid] = agg = {"events": 0, "spans": 0, "self_ns": 0}
        return agg

    spans: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("type")
        if kind == "event":
            attrs = record.get("attrs") or {}
            if record.get("name") == "kernel.spawn" and "pid" in attrs:
                names[int(attrs["pid"])] = str(attrs.get("comm", ""))
            bucket(record.get("pid", 0))["events"] += 1
        elif kind == "span":
            spans.append(record)
            bucket(record.get("pid", 0))["spans"] += 1
    pid_of = {r["span_id"]: r.get("pid", 0) for r in spans if r.get("span_id") is not None}
    child_time: Dict[int, int] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None and pid_of.get(parent) == record.get("pid", 0):
            child_time[parent] = child_time.get(parent, 0) + (record.get("elapsed_ns") or 0)
    for record in spans:
        span_id = record.get("span_id")
        elapsed = record.get("elapsed_ns") or 0
        self_ns = elapsed - child_time.get(span_id, 0) if span_id is not None else elapsed
        bucket(record.get("pid", 0))["self_ns"] += max(self_ns, 0)

    header = ["pid", "comm", "events", "spans", "span-self-time"]
    rows = [
        [
            str(pid),
            "(kernel)" if pid == 0 else names.get(pid, ""),
            str(agg["events"]),
            str(agg["spans"]),
            _format_ns(agg["self_ns"]) if agg["spans"] else "",
        ]
        for pid, agg in sorted(per_pid.items())
    ]
    return render_table(header, rows, left=True)


USAGE = """\
usage: python -m repro.obs.export --validate FILE [FILE ...]
       python -m repro.obs.export --chrome-trace OUT.json FILE.jsonl [FILE ...]
"""


def main(argv: List[str]) -> int:
    args = argv[1:]
    if args and args[0] == "--validate" and len(args) >= 2:
        for target in args[1:]:
            try:
                count = validate_jsonl(target)
            except (OSError, ValueError) as err:
                print(f"FAIL: {err}", file=sys.stderr)
                return 1
            print(f"ok: {target}: {count} record(s)")
        return 0
    if args and args[0] == "--chrome-trace" and len(args) >= 3:
        from repro.obs.chrome import write_chrome_trace

        out = args[1]
        records: List[Dict[str, Any]] = []
        for target in args[2:]:
            try:
                validate_jsonl(target)
                records.extend(read_jsonl(target))
            except (OSError, ValueError) as err:
                print(f"FAIL: {err}", file=sys.stderr)
                return 1
        count = write_chrome_trace(out, records)
        print(f"wrote {out}: {count} trace event(s); "
              f"open at https://ui.perfetto.dev")
        return 0
    print(USAGE, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
