"""Multi-tenant arena: policies, the shell, determinism, attribution.

Four layers of coverage:

* **policy/shell units** — heap keys, weighted shares, quantum parking,
  STEP consumption, exception delivery through the shell, and the
  arena's guard rails (duplicate names, reuse, deadlock detection);
* **determinism** — same seed ⇒ byte-identical obs digest across runs
  *and* across ``add_client`` orderings, for every policy;
* **N=1 equivalence** — an arena of one produces results bit-identical
  to driving the same body with ``Kernel.run_process`` (fccd, fldc,
  mac), the refactor's no-regression pin;
* **partition properties** — at N=64 the per-pid ledger sums to the
  aggregate syscall counters, ``split_by_pid`` is a true partition, and
  the interference matrix's cell sum equals the stream's reclaim count
  (Hypothesis fuzzes the seed).
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.arena import (
    ARENA_SEED,
    arena_config,
    assign_kinds,
    jain_index,
    parse_mix,
    run_arena,
    run_single_client,
)
from repro.obs.export import read_jsonl, stream_digest
from repro.obs.views import (
    interference_matrix,
    process_names,
    render_matrix,
    split_by_pid,
)
from repro.sim import Kernel, MachineConfig
from repro.sim import syscalls as sc
from repro.sim.arena import (
    STEP,
    Arena,
    RoundRobinPolicy,
    SeededRandomPolicy,
    WeightedPolicy,
    client_rng,
    make_policy,
)
from repro.sim.errors import SimOSError
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024


def small_config(memory_mb: int = 8) -> MachineConfig:
    return MachineConfig(
        page_size=64 * KIB,
        memory_bytes=memory_mb * MIB,
        kernel_reserved_bytes=4 * MIB,
        data_disks=1,
    )


def drain(arena, max_turns=10_000):
    return arena.run(max_turns=max_turns)


# ======================================================================
# Policies
# ======================================================================
def test_round_robin_strict_rotation():
    policy = RoundRobinPolicy()
    policy.bind(["a", "b", "c"], [1.0] * 3, seed=0)
    # Every index's turn-t key sorts before any index's turn-t+1 key.
    assert policy.key(2, 0) < policy.key(0, 1)
    assert policy.key(0, 0) < policy.key(1, 0) < policy.key(2, 0)


def test_weighted_policy_share():
    policy = WeightedPolicy()
    policy.bind(["heavy", "light"], [3.0, 1.0], seed=0)
    # Simulate the heap: count grants in virtual-time order.
    events = sorted(
        [(policy.key(0, t), "heavy") for t in range(30)]
        + [(policy.key(1, t), "light") for t in range(30)]
    )
    first_40 = [name for _k, name in events[:40]]
    assert first_40.count("heavy") == 30  # 3:1 share → heavy exhausts first
    assert first_40.count("light") == 10


def test_weighted_policy_rejects_bad_weight():
    policy = WeightedPolicy()
    with pytest.raises(ValueError):
        policy.bind(["a"], [0.0], seed=0)


def test_seeded_random_policy_is_name_keyed():
    a = SeededRandomPolicy()
    a.bind(["x", "y", "z"], [1.0] * 3, seed=7)
    b = SeededRandomPolicy()
    b.bind(["x", "y", "z"], [1.0] * 3, seed=7)
    assert [a.key(i, t) for i in range(3) for t in range(4)] == [
        b.key(i, t) for i in range(3) for t in range(4)
    ]
    c = SeededRandomPolicy()
    c.bind(["x", "y", "z"], [1.0] * 3, seed=8)
    assert [a.key(i, 0) for i in range(3)] != [c.key(i, 0) for i in range(3)]


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown interleave policy"):
        make_policy("lottery")


def test_client_rng_pure_function_of_seed_and_name():
    assert client_rng(5, "a").random() == client_rng(5, "a").random()
    assert client_rng(5, "a").random() != client_rng(5, "b").random()
    assert client_rng(5, "a").random() != client_rng(6, "a").random()


# ======================================================================
# Shell mechanics
# ======================================================================
def _counting_body(path, n_reads, unit):
    def body(_client):
        fd = (yield sc.open(path)).value
        for _ in range(n_reads):
            yield sc.pread(fd, 0, unit)
        yield sc.close(fd)
        return n_reads
    return body


@pytest.fixture
def kernel_with_file():
    kernel = Kernel(small_config())
    kernel.run_process(make_file("/mnt0/a.dat", 256 * KIB, sync=False), "setup")
    return kernel


def test_quantum_parks_markerless_body(kernel_with_file):
    kernel = kernel_with_file
    arena = Arena(kernel, seed=1)
    arena.add_client("c", _counting_body("/mnt0/a.dat", 10, KIB), quantum=3)
    (client,) = drain(arena)
    assert client.result == 10
    # 12 syscalls total (open + 10 preads + close) → parks at 3, 6, 9, 12.
    assert client.parks == 4
    assert client.turns == client.parks + 1  # opening park + one per quantum


def test_step_markers_park_the_body(kernel_with_file):
    kernel = kernel_with_file

    def body(_client):
        fd = (yield sc.open("/mnt0/a.dat")).value
        for _ in range(3):
            yield sc.pread(fd, 0, KIB)
            yield STEP
        yield sc.close(fd)
        return "ok"

    arena = Arena(kernel, seed=1)
    arena.add_client("c", body)
    (client,) = drain(arena)
    assert client.result == "ok"
    assert client.parks == 3


def test_step_outside_arena_is_rejected_by_kernel(kernel_with_file):
    def body():
        yield STEP

    with pytest.raises(TypeError):
        kernel_with_file.run_process(body(), "naked-step")


def test_shell_rejects_non_syscall_yield(kernel_with_file):
    def bad(_client):
        yield 42

    arena = Arena(kernel_with_file, seed=1)
    arena.add_client("bad", bad)
    with pytest.raises(TypeError, match="must yield Syscall objects or STEP"):
        drain(arena)


def test_kernel_errors_are_rethrown_into_the_body(kernel_with_file):
    def body(_client):
        try:
            yield sc.open("/mnt0/does-not-exist")
        except SimOSError as exc:
            return f"caught:{exc.errno_name}"
        return "no error"

    arena = Arena(kernel_with_file, seed=1)
    arena.add_client("c", body, quantum=1)
    (client,) = drain(arena)
    assert client.result == "caught:ENOENT"


def test_two_clients_interleave_round_robin(kernel_with_file):
    kernel = kernel_with_file
    order = []

    def body(name):
        def gen(_client):
            fd = (yield sc.open("/mnt0/a.dat")).value
            for i in range(3):
                order.append((name, i))
                yield sc.pread(fd, 0, KIB)
                yield STEP
            yield sc.close(fd)
        return gen

    arena = Arena(kernel, policy=RoundRobinPolicy(), seed=1)
    arena.add_client("b", body("b"))
    arena.add_client("a", body("a"))
    drain(arena)
    # Strict alternation in sorted-name order, not add order.
    assert order == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
    ]


def test_arena_guard_rails(kernel_with_file):
    arena = Arena(kernel_with_file, seed=1)
    arena.add_client("c", _counting_body("/mnt0/a.dat", 1, KIB), quantum=5)
    with pytest.raises(ValueError, match="duplicate client name"):
        arena.add_client("c", _counting_body("/mnt0/a.dat", 1, KIB))
    with pytest.raises(ValueError, match="weight must be positive"):
        arena.add_client("w", _counting_body("/mnt0/a.dat", 1, KIB), weight=0)
    with pytest.raises(ValueError, match="quantum must be"):
        arena.add_client("q", _counting_body("/mnt0/a.dat", 1, KIB), quantum=0)
    drain(arena)
    with pytest.raises(RuntimeError, match="already ran"):
        drain(arena)
    with pytest.raises(RuntimeError, match="already ran"):
        arena.add_client("late", _counting_body("/mnt0/a.dat", 1, KIB))


def test_one_arena_per_kernel(kernel_with_file):
    Arena(kernel_with_file, seed=1)
    with pytest.raises(ValueError, match="already registered"):
        Arena(kernel_with_file, seed=2)


def test_arena_detects_kernel_deadlock():
    kernel = Kernel(small_config())

    def reader(_client):
        read_fd, _write_fd = (yield sc.pipe()).value
        yield sc.read(read_fd, 1)  # nobody ever writes

    arena = Arena(kernel, seed=1)
    arena.add_client("stuck", reader, quantum=100)
    with pytest.raises(RuntimeError, match="deadlock"):
        drain(arena)


def test_max_turns_guard(kernel_with_file):
    def forever(_client):
        while True:
            yield sc.gettime()
            yield STEP

    arena = Arena(kernel_with_file, seed=1)
    arena.add_client("spin", forever)
    with pytest.raises(RuntimeError, match="max_turns"):
        arena.run(max_turns=50)


def test_pids_and_rngs_follow_sorted_names(kernel_with_file):
    kernel = kernel_with_file
    arena = Arena(kernel, seed=9)
    arena.add_client("zeta", _counting_body("/mnt0/a.dat", 1, KIB), quantum=5)
    arena.add_client("alpha", _counting_body("/mnt0/a.dat", 1, KIB), quantum=5)
    clients = drain(arena)
    assert [c.name for c in clients] == ["alpha", "zeta"]
    assert clients[0].pid < clients[1].pid
    expected = client_rng(9, "alpha")
    # The client's rng was consumed identically (not at all) — compare
    # the next draw to a fresh stream for the same (seed, name).
    assert arena.client("alpha").rng.random() == expected.random()


# ======================================================================
# Determinism
# ======================================================================
def _digest_of_run(policy_name, add_order):
    kernel = Kernel(small_config())
    kernel.run_process(make_file("/mnt0/a.dat", 512 * KIB, sync=False), "setup")
    arena = Arena(kernel, policy=make_policy(policy_name), seed=0xDEC0)

    def noisy_body(_client):
        fd = (yield sc.open("/mnt0/a.dat")).value
        for _ in range(4):
            yield sc.pread(fd, 0, KIB)
            yield STEP
        yield sc.close(fd)

    for name in add_order:
        arena.add_client(name, noisy_body)
    drain(arena)
    return stream_digest(kernel.obs.dump_records())


@pytest.mark.parametrize("policy_name", ["round-robin", "weighted", "random"])
def test_digest_independent_of_run_and_add_order(policy_name):
    names = ["c3", "c1", "c4", "c0", "c2"]
    first = _digest_of_run(policy_name, names)
    again = _digest_of_run(policy_name, names)
    reordered = _digest_of_run(policy_name, list(reversed(names)))
    assert first == again
    assert first == reordered


def test_experiment_digest_reproducible_across_runs():
    a = run_arena(8, config=arena_config())
    b = run_arena(8, config=arena_config())
    assert a.digest == b.digest
    assert a.total_steps == b.total_steps
    assert [r["name"] for r in a.rows] == [r["name"] for r in b.rows]


def test_different_seeds_change_the_schedule():
    a = run_arena(8, policy="random", seed=1)
    b = run_arena(8, policy="random", seed=2)
    assert a.digest != b.digest


# ======================================================================
# N=1 equivalence: the refactor's no-regression pin
# ======================================================================
@pytest.mark.parametrize("kind", ["fccd", "fldc", "mac"])
def test_single_client_bit_identity(kind):
    solo = run_single_client(kind, seed=ARENA_SEED)
    arena = run_arena(1, mix=kind, seed=ARENA_SEED)
    assert arena.rows[0]["result"] == solo
    assert arena.rows[0]["accuracy"] == solo["accuracy"]


# ======================================================================
# Partition properties at N=64
# ======================================================================
@pytest.fixture(scope="module")
def arena64(tmp_path_factory):
    out = tmp_path_factory.mktemp("arena64") / "n64.jsonl"
    return run_arena(64, out_path=str(out))


@pytest.fixture(scope="module")
def arena64_records(arena64):
    """The N=64 run's obs stream, read back from the JSONL it wrote."""
    return read_jsonl(arena64.out_path)


def test_n64_report_summaries_match_its_stream(arena64, arena64_records):
    assert arena64.interference == interference_matrix(arena64_records)
    assert arena64.interference, "N=64 on the arena machine must thrash"
    assert arena64.names == process_names(arena64_records)
    lines = Path(arena64.out_path).read_text().splitlines()
    assert arena64.record_count == len(lines) == len(arena64_records)


def test_n64_ledger_sums_to_aggregate_counters(arena64_records):
    by_name = {}
    totals = {}
    for record in arena64_records:
        if record.get("type") == "pid_stats":
            for name, count in record["syscalls"].items():
                by_name[name] = by_name.get(name, 0) + count
        elif record.get("type") == "metric" and record.get("kind") == "counter":
            metric = record.get("name", "")
            if metric.startswith("kernel.syscall.") and metric.endswith(".calls"):
                totals[metric[len("kernel.syscall."):-len(".calls")]] = record["value"]
    assert by_name and totals
    assert by_name == totals


def test_n64_split_by_pid_is_a_partition(arena64, arena64_records):
    event_like = [
        r for r in arena64_records if r.get("type") in ("event", "span")
    ]
    buckets = split_by_pid(event_like)
    assert sum(len(b) for b in buckets.values()) == len(event_like)
    client_pids = {row["pid"] for row in arena64.rows}
    assert client_pids <= set(buckets), "every client contributed records"


def test_n64_matrix_cells_sum_to_reclaim_count(arena64_records):
    events = [r for r in arena64_records if r.get("type") == "event"]
    matrix = interference_matrix(events)
    reclaims = sum(
        1 for r in events if r.get("name") == "kernel.reclaim"
    )
    assert reclaims > 0, "N=64 on the arena machine must thrash"
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims


def test_n64_report_attributes_every_client(arena64):
    assert len(arena64.rows) == 64
    assert all(row["syscalls"] > 0 for row in arena64.rows)
    assert all(row["turns"] > 0 for row in arena64.rows)
    assert 0 < arena64.fairness_turns <= 1.0
    assert set(arena64.kind_accuracy) == {"fccd", "fldc", "mac"}


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partition_invariants_fuzzed(seed):
    """At N=64 on a thrashing machine, attribution stays a partition.

    Synthetic cheap clients (create + re-read a private file) keep each
    example fast while the 64 working sets still exceed memory.
    """
    kernel = Kernel(small_config(memory_mb=6), event_capacity=200_000)

    def body(name):
        path = f"/mnt0/{name}.dat"

        def gen(_client):
            yield from make_file(path, 2 * 64 * KIB, sync=False)
            fd = (yield sc.open(path)).value
            yield sc.pread(fd, 0, KIB)
            yield sc.close(fd)
        return gen

    arena = Arena(kernel, policy=make_policy("random"), seed=seed)
    for i in range(64):
        arena.add_client(f"t{i:02d}", body(f"t{i:02d}"), quantum=2)
    clients = drain(arena)
    records = list(kernel.obs.dump_records())

    ledger = {}
    totals = {}
    for record in records:
        if record.get("type") == "pid_stats":
            for name, count in record["syscalls"].items():
                ledger[name] = ledger.get(name, 0) + count
        elif record.get("type") == "metric" and record.get("kind") == "counter":
            metric = record.get("name", "")
            if metric.startswith("kernel.syscall.") and metric.endswith(".calls"):
                totals[metric[len("kernel.syscall."):-len(".calls")]] = record["value"]
    assert ledger == totals

    event_like = [r for r in records if r.get("type") in ("event", "span")]
    buckets = split_by_pid(event_like)
    assert sum(len(b) for b in buckets.values()) == len(event_like)

    events = [r for r in event_like if r["type"] == "event"]
    matrix = interference_matrix(events)
    reclaims = sum(1 for r in events if r.get("name") == "kernel.reclaim")
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims
    assert all(c.done for c in clients)


# ======================================================================
# Experiment-layer helpers
# ======================================================================
def test_parse_mix_and_assignment():
    assert parse_mix("fccd=2,scan") == [("fccd", 2), ("scan", 1)]
    assert assign_kinds(5, [("fccd", 2), ("scan", 1)]) == [
        "fccd", "fccd", "scan", "fccd", "fccd"
    ]
    with pytest.raises(ValueError, match="unknown client kind"):
        parse_mix("fccd,warp")
    with pytest.raises(ValueError, match="empty client mix"):
        parse_mix(" , ")


def test_jain_index_bounds():
    assert jain_index([5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0


def test_render_matrix_truncates_large_matrices():
    rng = random.Random(3)
    matrix = {
        i: {j: rng.randrange(1, 9) for j in rng.sample(range(1, 40), 6)}
        for i in range(1, 40)
    }
    text = render_matrix(matrix, top=8)
    lines = text.splitlines()
    assert "elided" in lines[-1]
    # Header + rule + 8 rows + note.
    assert len(lines) == 11
    full = render_matrix(matrix, top=None)
    assert "elided" not in full
    small = {1: {2: 3}}
    assert "elided" not in render_matrix(small, top=8)


# ======================================================================
# Scheduler support: batch growth and reap
# ======================================================================
def test_scheduler_reap_frees_finished_slots():
    kernel = Kernel(small_config())

    def tiny():
        yield sc.gettime()

    proc = kernel.spawn(tiny(), "t")
    kernel.run()
    scheduler = kernel.scheduler
    assert proc.pid in scheduler.finished
    assert scheduler.reap(proc.pid) is True
    assert proc.pid not in scheduler.finished
    assert scheduler.reap(proc.pid) is False


def test_arena_reaps_finished_clients(kernel_with_file):
    arena = Arena(kernel_with_file, seed=1)
    for i in range(8):
        arena.add_client(
            f"c{i}", _counting_body("/mnt0/a.dat", 2, KIB), quantum=2
        )
    clients = drain(arena)
    finished = kernel_with_file.scheduler.finished
    assert all(c.pid not in finished for c in clients)
    assert all(c.syscalls > 0 for c in clients)  # stats survived the reap
