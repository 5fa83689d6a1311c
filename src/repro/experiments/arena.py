"""``repro arena`` — N concurrent gray-box clients on one shared kernel.

ROADMAP item 1's "millions of users" story in miniature: this driver
builds a tenant mix (FCCD / FLDC / MAC inference clients plus scan,
grep, and MAC-admitted-sort background jobs), interleaves all of them on
*one* kernel through :class:`repro.sim.arena.Arena`, and reports
per-client fairness, accuracy, and throughput as N sweeps 1 → 1024.

Accuracy is defined so contention is visible:

* **fccd** — each client owns a ``hot`` and a ``cold`` file (flushed at
  setup).  Per round it re-reads ``hot`` end to end, then asks FCCD to
  order ``[cold, hot]`` by cache residency; accuracy is the fraction of
  rounds ranking ``hot`` first.  On a quiet machine this is trivially
  1.0; under contention other tenants evict ``hot`` between the warm-up
  and the probes — the Heisenberg/interference regime the paper worries
  about, measured per tenant.
* **fldc** — layout_order of the client's own shuffled-name directory
  versus its true creation order (normalized by pairwise inversions).
  i-numbers are exact, not timing-derived, so this stays ~1.0 at every
  N — the control that separates timing-channel degradation (fccd, mac)
  from contention-proof inference.
* **mac** — bytes granted by ``gb_alloc`` relative to the request
  ceiling; memory pressure from other tenants shrinks grants.
* **scan / grep / gbsort** — no accuracy (throughput-only background);
  gbsort drives the MAC-admitted fastsort read phase, so admission
  waiting appears in the arena too.

Every quantity is deterministic: client names fix RNG streams and
policy order (:func:`repro.sim.arena.client_rng`), setup runs in
sorted-name order, and the obs-stream digest
(:func:`repro.obs.export.stream_digest`) is the reproducibility pin the
bench suite gates on.  At N=1 a client body is bit-identical to
:func:`run_single_client` driving the same body with no arena — the
equivalence the acceptance test asserts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps.fastsort import gb_fastsort_read_phase
from repro.apps.grep import grep
from repro.apps.scan import linear_scan
from repro.experiments.harness import format_table
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.icl.mac import MAC
from repro.obs.export import stream_digest, write_json, write_jsonl
from repro.obs.views import (
    client_rollup,
    interference_matrix,
    process_names,
    render_matrix,
)
from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.arena import Arena, ArenaClient, client_rng, make_policy
from repro.sim.clock import MILLIS
from repro.sim.inject import _fnv1a, _splitmix64
from repro.sim.kernel import Oracle
from repro.workloads.files import create_files, make_file

KIB = 1024
MIB = 1024 * 1024

ARENA_SEED = 0xA12E7A

#: Default tenant composition, cycled deterministically over client
#: indices (index 0 is always fccd, so N=1 exercises the primary ICL).
DEFAULT_MIX = "fccd=6,fldc=3,mac=2,scan=2,grep=1,gbsort=1"

#: The acceptance sweep.
SWEEP_NS = (1, 2, 8, 64, 256, 1024)

_ROOT = "/mnt0/arena"
_SHARED_SCAN = f"{_ROOT}/shared-scan.dat"
_SHARED_GREP = tuple(f"{_ROOT}/shared-grep{i}.dat" for i in range(3))


def arena_config(memory_mb: int = 48) -> MachineConfig:
    """A small shared machine: per-tenant working sets are a few hundred
    KiB, so contention sets in around N≈64 and is severe by N=1024 while
    the full sweep still completes in seconds."""
    return MachineConfig(
        page_size=64 * KIB,
        memory_bytes=memory_mb * MIB,
        kernel_reserved_bytes=16 * MIB,
        data_disks=1,
    )


def _derived_rng(seed: int, name: str, domain: str) -> random.Random:
    """A setup-time RNG stream independent of the client's probe stream."""
    return random.Random(_splitmix64((seed ^ _fnv1a(f"{domain}/{name}")) & ((1 << 64) - 1)))


def _rank_accuracy(recovered: Sequence[str], truth: Sequence[str]) -> float:
    """1 minus the normalized pairwise-inversion count (1.0 = exact)."""
    rank = {path: i for i, path in enumerate(truth)}
    order = [rank[p] for p in recovered if p in rank]
    k = len(order)
    if k < 2:
        return 1.0
    inversions = sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if order[i] > order[j]
    )
    return 1.0 - inversions / (k * (k - 1) / 2)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


# ======================================================================
# Client specs
# ======================================================================
@dataclass
class ClientSpec:
    """One tenant's recipe: private setup, body factory, arena knobs.

    ``body(client, kernel, markers)`` returns the drive generator;
    ``markers=False`` is the sequential fallback the single-client
    equivalence harness uses (no STEP sentinels, safe under
    ``kernel.run_process``).  ``shared`` names machine-wide assets
    (created once, whichever tenants need them).
    """

    name: str
    kind: str
    body: Callable[[Any, Kernel, bool], Generator]
    setup: Optional[Callable[[], Generator]] = None
    shared: Tuple[str, ...] = ()
    weight: float = 1.0
    quantum: Optional[int] = None


def _fccd_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    page = config.page_size
    nbytes = 8 * page
    rounds = 3
    hot = f"{_ROOT}/{name}.hot"
    # A fresh cold file per round: FCCD's own probes cache whatever they
    # touch (the Heisenberg effect), so re-probing one cold file would
    # make rounds 2..R degenerate ties even on an idle machine.  With a
    # per-round cold target, an idle machine scores exactly 1.0 and any
    # loss is contention — other tenants evicting `hot` between the
    # warm-up read and the probes.
    colds = [f"{_ROOT}/{name}.cold{r}" for r in range(rounds)]

    def setup() -> Generator:
        yield from make_file(hot, nbytes, sync=False)
        for cold in colds:
            yield from make_file(cold, nbytes, sync=False)

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        fccd = FCCD(
            rng=client.rng,
            access_unit_bytes=nbytes,
            prediction_unit_bytes=page,
            obs=kernel.obs,
            step_markers=markers,
        )
        correct = 0
        probes = 0
        for cold in colds:
            # Re-assert the working set: read `hot` end to end, leave
            # `cold` untouched.  Under contention other tenants evict
            # `hot` between this warm-up and the probes below.
            fd = (yield sc.open(hot)).value
            while not (yield sc.read(fd, 4 * page)).value.eof:
                pass
            yield sc.close(fd)
            yield from fccd.checkpoint()
            ordered, plans = yield from fccd.order_files([cold, hot])
            probes += sum(plan.total_probes for plan in plans.values())
            if ordered[0] == hot:
                correct += 1
        return {"kind": "fccd", "accuracy": correct / rounds, "probes": probes}

    return ClientSpec(name=name, kind="fccd", body=body, setup=setup)


def _fldc_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    directory = f"{_ROOT}/{name}.d"
    count = 8
    shuffle_rng = _derived_rng(seed, name, "fldc-setup")
    creation = [f"g{i:02d}" for i in range(count)]
    shuffle_rng.shuffle(creation)
    truth = [f"{directory}/{n}" for n in creation]

    def setup() -> Generator:
        yield sc.mkdir(directory)
        yield from create_files(
            directory, count, 2 * config.page_size, sync=False, names=creation
        )

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        fldc = FLDC(obs=kernel.obs, step_markers=markers)
        rounds = 3
        total = 0.0
        for _ in range(rounds):
            names_now = (yield sc.readdir(directory)).value
            ordered, _stats = yield from fldc.layout_order(
                sorted(f"{directory}/{n}" for n in names_now)
            )
            total += _rank_accuracy(ordered, truth)
        return {
            "kind": "fldc",
            "accuracy": total / rounds,
            "probes": rounds * count,
        }

    return ClientSpec(name=name, kind="fldc", body=body, setup=setup)


def _mac_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    page = config.page_size
    target = 32 * page

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        mac = MAC(
            page_size=page,
            initial_increment_bytes=4 * page,
            max_increment_bytes=16 * page,
            rng=client.rng,
            obs=kernel.obs,
            step_markers=markers,
        )
        rounds = 2
        granted = 0
        for _ in range(rounds):
            allocation = yield from mac.gb_alloc(page, target, page)
            if allocation is not None:
                granted += allocation.granted_bytes
                yield from mac.gb_free(allocation)
            yield from mac.checkpoint()
            yield sc.sleep(5 * MILLIS)
        return {
            "kind": "mac",
            "accuracy": granted / (rounds * target),
            "probes": mac.stats.probe_touches,
        }

    return ClientSpec(name=name, kind="mac", body=body)


def _scan_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    unit = 4 * config.page_size

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        total = 0
        for _ in range(2):
            report = yield from linear_scan(_SHARED_SCAN, unit=unit)
            total += report.bytes_read
        return {"kind": "scan", "accuracy": None, "bytes": total}

    return ClientSpec(
        name=name, kind="scan", body=body, shared=("scan",), quantum=8
    )


def _grep_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    unit = 4 * config.page_size

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        total = 0
        for _ in range(2):
            report = yield from grep(list(_SHARED_GREP), unit=unit)
            total += report.bytes_scanned
        return {"kind": "grep", "accuracy": None, "bytes": total}

    return ClientSpec(
        name=name, kind="grep", body=body, shared=("grep",), quantum=8
    )


def _gbsort_spec(name: str, seed: int, config: MachineConfig) -> ClientSpec:
    page = config.page_size
    input_path = f"{_ROOT}/{name}.in"
    run_dir = f"{_ROOT}/{name}.runs"
    nbytes = 32 * page

    def setup() -> Generator:
        yield sc.mkdir(run_dir)
        yield from make_file(input_path, nbytes, sync=False)

    def body(client: Any, kernel: Kernel, markers: bool = True) -> Generator:
        mac = MAC(
            page_size=page,
            initial_increment_bytes=4 * page,
            max_increment_bytes=16 * page,
            rng=client.rng,
            obs=kernel.obs,
            step_markers=markers,
        )
        try:
            report = yield from gb_fastsort_read_phase(
                input_path, run_dir, mac, min_pass_bytes=8 * page, unit=4 * page
            )
        except TimeoutError:
            # Admission starved out by the other tenants — a legitimate
            # outcome at high N, reported rather than fatal.
            return {"kind": "gbsort", "accuracy": None, "passes": 0, "starved": True}
        return {
            "kind": "gbsort",
            "accuracy": None,
            "passes": len(report.pass_bytes),
            "starved": False,
        }

    return ClientSpec(
        name=name, kind="gbsort", body=body, setup=setup, quantum=16
    )


_SPEC_BUILDERS: Dict[str, Callable[[str, int, MachineConfig], ClientSpec]] = {
    "fccd": _fccd_spec,
    "fldc": _fldc_spec,
    "mac": _mac_spec,
    "scan": _scan_spec,
    "grep": _grep_spec,
    "gbsort": _gbsort_spec,
}


def parse_mix(text: str) -> List[Tuple[str, int]]:
    """``"fccd=6,scan=2"`` → ``[("fccd", 6), ("scan", 2)]`` (validated)."""
    mix: List[Tuple[str, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _eq, weight_text = part.partition("=")
        kind = kind.strip()
        if kind not in _SPEC_BUILDERS:
            raise ValueError(
                f"unknown client kind {kind!r}; choose from {', '.join(_SPEC_BUILDERS)}"
            )
        weight = int(weight_text) if weight_text else 1
        if weight < 1:
            raise ValueError(f"mix weight for {kind!r} must be >= 1")
        mix.append((kind, weight))
    if not mix:
        raise ValueError("empty client mix")
    return mix


def assign_kinds(n: int, mix: Sequence[Tuple[str, int]]) -> List[str]:
    """Kind per client index: the weighted pattern cycled over 0..n-1."""
    pattern = [kind for kind, weight in mix for _ in range(weight)]
    return [pattern[i % len(pattern)] for i in range(n)]


def build_specs(
    n: int, seed: int, config: MachineConfig, mix: str = DEFAULT_MIX
) -> List[ClientSpec]:
    """The N tenants, named ``<kind><index>`` so names are unique and
    sorted-name order (which fixes pids and the policy schedule) is
    stable."""
    if n < 1:
        raise ValueError("need at least one client")
    kinds = assign_kinds(n, parse_mix(mix))
    return [
        _SPEC_BUILDERS[kind](f"{kind}{index:04d}", seed, config)
        for index, kind in enumerate(kinds)
    ]


# ======================================================================
# Setup (shared by the arena and the single-client harness)
# ======================================================================
def _setup_machine(kernel: Kernel, specs: Sequence[ClientSpec]) -> None:
    """Create every private and shared asset, then flush the cache.

    Runs per-spec setups in sorted-name order — the same order the arena
    spawns clients — so the filesystem image (inode numbers, block
    placement) is a pure function of the spec set.  The final flush
    empties the file cache: every client starts from the same cold
    state, and at N=1 the image is identical to the single-client
    harness's.
    """
    def mkroot() -> Generator:
        yield sc.mkdir(_ROOT)

    kernel.run_process(mkroot(), "setup:root")
    shared: set = set()
    for spec in sorted(specs, key=lambda s: s.name):
        if spec.setup is not None:
            kernel.run_process(spec.setup(), f"setup:{spec.name}")
        shared.update(spec.shared)
    page = kernel.config.page_size
    if "scan" in shared:
        kernel.run_process(
            make_file(_SHARED_SCAN, 96 * page, sync=False), "setup:shared-scan"
        )
    if "grep" in shared:
        def grep_files() -> Generator:
            for path in _SHARED_GREP:
                yield from make_file(path, 16 * page, sync=False)

        kernel.run_process(grep_files(), "setup:shared-grep")
    Oracle(kernel).flush_file_cache()


# ======================================================================
# Report
# ======================================================================
@dataclass
class ArenaReport:
    """One arena run: per-client rows plus machine-wide aggregates.

    The report keeps summaries, not the obs stream: the interference
    matrix (``interference[instigator][victim]`` reclaim counts), the
    ``{pid: comm}`` names that label it and the stream's record count,
    which is all :meth:`render` prints.  Pass ``out_path`` to
    :func:`run_arena` for the records themselves.
    """

    n: int
    policy: str
    seed: int
    mix: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    sim_elapsed_ns: int = 0
    total_steps: int = 0
    total_turns: int = 0
    host_elapsed_s: float = 0.0
    fairness_turns: float = 1.0
    fairness_syscalls: float = 1.0
    kind_accuracy: Dict[str, float] = field(default_factory=dict)
    reclaims: int = 0
    digest: str = ""
    interference: Dict[int, Dict[int, int]] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)
    record_count: int = 0
    out_path: Optional[str] = None
    report_path: Optional[str] = None

    @property
    def steps_per_second(self) -> float:
        if self.host_elapsed_s <= 0:
            return 0.0
        return self.total_steps / self.host_elapsed_s

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "arena_report",
            "n": self.n,
            "policy": self.policy,
            "seed": self.seed,
            "mix": self.mix,
            "sim_elapsed_ns": self.sim_elapsed_ns,
            "total_steps": self.total_steps,
            "total_turns": self.total_turns,
            "host_elapsed_s": round(self.host_elapsed_s, 4),
            "fairness_turns": round(self.fairness_turns, 6),
            "fairness_syscalls": round(self.fairness_syscalls, 6),
            "kind_accuracy": {
                k: round(v, 6) for k, v in sorted(self.kind_accuracy.items())
            },
            "reclaims": self.reclaims,
            "digest": self.digest,
            "clients": self.rows,
        }

    def render(self, top: int = 12) -> str:
        parts = [
            f"== arena: N={self.n} policy={self.policy} seed={hex(self.seed)} ==",
            (
                f"steps={self.total_steps}  turns={self.total_turns}  "
                f"sim={self.sim_elapsed_ns / 1e9:.3f}s  "
                f"host={self.host_elapsed_s:.2f}s  "
                f"({self.steps_per_second / 1e3:.0f}k steps/s)"
            ),
            (
                f"fairness (Jain): turns={self.fairness_turns:.3f}  "
                f"syscalls={self.fairness_syscalls:.3f}  "
                f"reclaims={self.reclaims}"
            ),
            "accuracy by kind: "
            + (
                "  ".join(
                    f"{kind}={acc:.3f}"
                    for kind, acc in sorted(self.kind_accuracy.items())
                )
                or "(no accuracy-bearing clients)"
            ),
            f"obs digest: {self.digest}",
            "",
        ]
        shown = self.rows
        note = ""
        if len(shown) > top:
            shown = sorted(self.rows, key=lambda r: -r["syscalls"])[:top]
            note = (
                f"... {len(self.rows) - top} client row(s) elided"
                f" (top {top} by syscalls shown; full set in the JSON report)"
            )
        headers = [
            "client", "kind", "pid", "turns", "syscalls", "probes",
            "accuracy", "ev.caused", "ev.suffered", "thr(sys/s)",
        ]
        table_rows = [
            [
                row["name"], row["kind"], row["pid"], row["turns"],
                row["syscalls"], row["probes"],
                "-" if row["accuracy"] is None else f"{row['accuracy']:.3f}",
                row["evictions_caused"], row["evictions_suffered"],
                f"{row['throughput_per_s']:.0f}",
            ]
            for row in shown
        ]
        parts.append(format_table(headers, table_rows))
        if note:
            parts.append(note)
        if self.interference:
            parts.append("")
            parts.append("interference matrix (reclaim events, evictor x victim):")
            parts.append(render_matrix(self.interference, self.names, top=8))
        if self.out_path:
            parts.append("")
            parts.append(f"wrote {self.record_count} records to {self.out_path}")
        if self.report_path:
            parts.append(f"wrote report to {self.report_path}")
        return "\n".join(parts)


# ======================================================================
# Drivers
# ======================================================================
def run_arena(
    n: int,
    policy: str = "round-robin",
    seed: int = ARENA_SEED,
    mix: str = DEFAULT_MIX,
    config: Optional[MachineConfig] = None,
    out_path: Optional[str] = None,
    report_path: Optional[str] = None,
) -> ArenaReport:
    """Run N tenants to completion on one kernel; returns the report.

    ``out_path`` dumps the full obs stream as JSONL (the artifact CI
    validates); ``report_path`` writes the fairness/accuracy/throughput
    report as JSON.  The returned report holds only summaries of the
    stream, so neither the records nor the kernel outlive the call.
    """
    config = config or arena_config()
    specs = build_specs(n, seed, config, mix)
    # Ring sized so spawn events survive the whole run (the validator's
    # pid check reads them) even when a thrashing high-N run emits a
    # reclaim event per probe miss.
    kernel = Kernel(config, event_capacity=max(100_000, 512 * n))
    host_start = time.perf_counter()
    _setup_machine(kernel, specs)
    arena = Arena(kernel, policy=make_policy(policy), seed=seed)
    for spec in specs:
        arena.add_client(
            spec.name,
            lambda client, _spec=spec: _spec.body(client, kernel, True),
            kind=spec.kind,
            weight=spec.weight,
            quantum=spec.quantum,
        )
    clients = arena.run()
    host_elapsed = time.perf_counter() - host_start
    records = list(kernel.obs.dump_records())
    report = _build_report(
        n, policy, seed, mix, arena, clients, kernel, records, host_elapsed
    )
    if out_path is not None:
        write_jsonl(Path(out_path), records)
        report.out_path = str(out_path)
    if report_path is not None:
        write_json(report_path, report.to_json())
        report.report_path = str(report_path)
    return report


def _build_report(
    n: int,
    policy: str,
    seed: int,
    mix: str,
    arena: Arena,
    clients: List[ArenaClient],
    kernel: Kernel,
    records: List[Dict[str, Any]],
    host_elapsed: float,
) -> ArenaReport:
    rollup = client_rollup(records)
    sim_elapsed = kernel.clock.now
    sim_seconds = sim_elapsed / 1e9 if sim_elapsed else 0.0
    rows: List[Dict[str, Any]] = []
    by_kind: Dict[str, List[float]] = {}
    for client in clients:
        cell = rollup.get(client.pid, {})
        result = client.result if isinstance(client.result, dict) else {}
        accuracy = result.get("accuracy")
        if accuracy is not None:
            by_kind.setdefault(client.kind, []).append(float(accuracy))
        rows.append(
            {
                "name": client.name,
                "kind": client.kind,
                "pid": client.pid,
                "turns": client.turns,
                "parks": client.parks,
                "syscalls": client.syscalls,
                # Span-attributed probes when the ICL batches (fccd),
                # else the client's own count (mac's touch loops).
                "probes": cell.get("probes", 0) or int(result.get("probes") or 0),
                "accuracy": accuracy,
                "evictions_caused": cell.get("evictions_caused", 0),
                "evictions_suffered": cell.get("evictions_suffered", 0),
                "cpu_ns": client.cpu_ns,
                "finished_ns": client.finished_ns,
                "throughput_per_s": (
                    client.syscalls / sim_seconds if sim_seconds else 0.0
                ),
                "result": result or client.result,
            }
        )
    # One cell per reclaim event, so the cells sum to the reclaim count.
    matrix = interference_matrix(records)
    return ArenaReport(
        n=n,
        policy=policy,
        seed=seed,
        mix=mix,
        rows=rows,
        sim_elapsed_ns=sim_elapsed,
        total_steps=arena.total_steps,
        total_turns=arena.total_turns,
        host_elapsed_s=host_elapsed,
        fairness_turns=jain_index([row["turns"] for row in rows]),
        fairness_syscalls=jain_index([row["syscalls"] for row in rows]),
        kind_accuracy={
            kind: sum(values) / len(values) for kind, values in by_kind.items()
        },
        reclaims=sum(sum(row.values()) for row in matrix.values()),
        digest=stream_digest(records),
        interference=matrix,
        names=process_names(records),
        record_count=len(records),
    )


class _SoloHandle:
    """Stands in for :class:`ArenaClient` under ``run_single_client``."""

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self.rng = rng
        self.kind = ""
        self.pid = -1


def run_single_client(
    kind: str,
    seed: int = ARENA_SEED,
    config: Optional[MachineConfig] = None,
) -> Dict[str, Any]:
    """Drive one client body with **no arena** — the bit-identity reference.

    Same spec builder, same setup order, same ``(seed, name)`` RNG
    stream as ``run_arena(n=1, mix=kind)``; the only difference is that
    the body runs to completion under ``kernel.run_process`` with step
    markers off.  The acceptance test asserts the returned accuracy is
    bit-identical to the arena's at N=1.
    """
    config = config or arena_config()
    spec = _SPEC_BUILDERS[kind](f"{kind}0000", seed, config)
    kernel = Kernel(config)
    _setup_machine(kernel, [spec])
    handle = _SoloHandle(spec.name, client_rng(seed, spec.name))
    return kernel.run_process(spec.body(handle, kernel, False), spec.name)


def arena_sweep(
    ns: Sequence[int] = SWEEP_NS,
    policy: str = "round-robin",
    seed: int = ARENA_SEED,
    mix: str = DEFAULT_MIX,
    config: Optional[MachineConfig] = None,
) -> List[ArenaReport]:
    """One fresh machine per N; returns the reports in sweep order."""
    return [
        run_arena(n, policy=policy, seed=seed, mix=mix, config=config)
        for n in ns
    ]


def render_sweep(reports: Sequence[ArenaReport]) -> str:
    headers = [
        "N", "steps", "sim(s)", "host(s)", "ksteps/s",
        "fair(turns)", "fair(sys)", "fccd", "fldc", "mac", "reclaims",
        "digest",
    ]
    rows = []
    for report in reports:
        acc = report.kind_accuracy
        rows.append(
            [
                report.n,
                report.total_steps,
                f"{report.sim_elapsed_ns / 1e9:.2f}",
                f"{report.host_elapsed_s:.2f}",
                f"{report.steps_per_second / 1e3:.0f}",
                f"{report.fairness_turns:.3f}",
                f"{report.fairness_syscalls:.3f}",
                "-" if "fccd" not in acc else f"{acc['fccd']:.3f}",
                "-" if "fldc" not in acc else f"{acc['fldc']:.3f}",
                "-" if "mac" not in acc else f"{acc['mac']:.3f}",
                report.reclaims,
                report.digest[:12],
            ]
        )
    return "== arena sweep ==\n" + format_table(headers, rows)
