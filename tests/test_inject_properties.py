"""Property tests for the injection layer's determinism contract.

The claim under test: a :class:`FaultInjector` is a pure function of
``(seed, config)``.  For *any* configuration Hypothesis can build —
arbitrary jitter, spikes, fault rates, scheduler jitter, interference
mixes — two runs of the same seeded workload produce a byte-identical
fault schedule, an identical machine state, and an identical
observability record stream.  A companion test pushes the same claim
through the parallel trial runner: ``--jobs N`` must not change a bit.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import runner
from repro.experiments.robustness import (
    _fldc_robustness_trial,
    small_trial_config,
)
from repro.experiments.runner import TrialSpec, run_trials
from repro.sim import (
    FaultInjector,
    InjectionConfig,
    InterferenceSpec,
    Kernel,
    LatencyNoise,
    MILLIS,
    TransientFaults,
)
from repro.sim.inject import horizon_after
from tests.conftest import small_config
from tests.test_kernel_fuzz import chaos_process, probe_process, state_digest

latency_specs = st.builds(
    LatencyNoise,
    jitter_ns=st.integers(min_value=0, max_value=60_000),
    spike_prob=st.floats(min_value=0.0, max_value=0.25, allow_nan=False),
    spike_ns=st.integers(min_value=0, max_value=8 * MILLIS),
    granularity_ns=st.integers(min_value=0, max_value=25_000),
)

fault_specs = st.builds(
    TransientFaults,
    fail_prob=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    errno=st.sampled_from(["EAGAIN", "EINTR"]),
    max_consecutive=st.integers(min_value=1, max_value=3),
)

interference_specs = st.lists(
    st.builds(
        InterferenceSpec,
        kind=st.sampled_from(
            ["cache_dirtier", "cpu_hog", "memory_hog", "dir_ager"]
        ),
        intensity=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    ),
    max_size=2,
).map(tuple)

injection_configs = st.builds(
    InjectionConfig,
    seed=st.integers(min_value=0, max_value=2 ** 48),
    latency=st.none() | latency_specs,
    touch_latency=st.none() | latency_specs,
    faults=st.none() | fault_specs,
    sched_jitter_ns=st.integers(min_value=0, max_value=80_000),
    interference=interference_specs,
)


def _run_instrumented(config: InjectionConfig, seed: int):
    """One noisy machine run; returns every observable byte of it."""
    kernel = Kernel(small_config())
    injector = FaultInjector(config)
    injector.install(kernel)
    injector.spawn_interference(kernel, horizon_after(kernel, 30 * MILLIS))
    kernel.spawn(chaos_process(seed, 15), "chaos")
    kernel.spawn(probe_process(seed, 6, batch=bool(seed % 2)), "probe")
    kernel.run()
    records = json.dumps(list(kernel.obs.dump_records()), sort_keys=True)
    return (
        kernel.clock.now,
        state_digest(kernel),
        list(injector.schedule),
        injector.schedule_digest(),
        records,
    )


@settings(max_examples=15, deadline=None)
@given(config=injection_configs, seed=st.integers(min_value=0, max_value=10 ** 6))
def test_same_seed_and_config_replays_byte_identically(config, seed):
    first = _run_instrumented(config, seed)
    second = _run_instrumented(config, seed)
    assert first[2] == second[2], f"fault schedules diverged (seed={seed})"
    assert first == second, f"replay diverged (seed={seed}, config={config})"


@settings(max_examples=8, deadline=None)
@given(
    config=injection_configs.filter(
        lambda c: c.faults is not None and c.faults.fail_prob > 0.01
    ),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_different_injection_seeds_draw_different_streams(config, seed):
    """Distinct seeds must not share a fault/jitter stream (the whole
    point of seeding); identical streams would silently correlate
    every trial of a sweep."""
    import dataclasses

    twin = dataclasses.replace(config, seed=config.seed + 1)
    ours = FaultInjector(config)
    theirs = FaultInjector(twin)
    ours_draws = [ours._stream("fault", "stat").next_float() for _ in range(64)]
    theirs_draws = [
        theirs._stream("fault", "stat").next_float() for _ in range(64)
    ]
    assert ours_draws != theirs_draws, f"seed={config.seed}"


def _spike_counters(kernel: Kernel):
    return {
        sample["name"]: sample["value"]
        for sample in kernel.obs.metrics.collect()
        if sample["name"].startswith("inject.spike")
    }


def _stream_counters(injector: FaultInjector):
    """Draws consumed per stream (a stream never drawn from counts as absent)."""
    return {
        key: stream.counter
        for key, stream in injector._streams.items()
        if stream.counter
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 48),
    latency=st.none() | latency_specs,
    touch_latency=st.none() | latency_specs,
    kind=st.sampled_from(["touch", "pread"]),
    elapsed_ns=st.integers(min_value=0, max_value=10 * MILLIS),
    warmup=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=1, max_value=300),
    k=st.integers(min_value=0, max_value=300),
)
# An inactive family draws nothing, whichever config makes it inactive.
@example(seed=1, latency=None, touch_latency=None, kind="pread",
         elapsed_ns=150, warmup=3, n=8, k=8)
@example(seed=2, latency=LatencyNoise(), touch_latency=None, kind="touch",
         elapsed_ns=150, warmup=3, n=8, k=4)
@example(seed=3, latency=LatencyNoise(jitter_ns=100),
         touch_latency=LatencyNoise(), kind="touch",
         elapsed_ns=150, warmup=3, n=8, k=4)
@example(seed=4, latency=None, touch_latency=LatencyNoise(jitter_ns=100),
         kind="pread", elapsed_ns=150, warmup=3, n=8, k=4)
def test_block_draws_equal_sequential_draws(
    seed, latency, touch_latency, kind, elapsed_ns, warmup, n, k
):
    """A probe-noise block is ``n`` sequential ``probe_elapsed`` calls
    drawn ahead: the same times, and ``commit(k)`` leaves exactly the
    stream counters, spike schedule, stats and obs spike counters that
    ``k`` sequential calls leave."""
    k = min(k, n)
    config = InjectionConfig(seed=seed, latency=latency, touch_latency=touch_latency)

    reference = FaultInjector(config)._stream("probe", kind)
    for _ in range(warmup):
        reference.next_float()
    peeked = reference.peek_floats(n)
    assert reference.counter == warmup
    assert peeked == [reference.next_float() for _ in range(n)]

    ours, twin = FaultInjector(config), FaultInjector(config)
    our_kernel, twin_kernel = Kernel(small_config()), Kernel(small_config())
    ours.install(our_kernel)
    twin.install(twin_kernel)
    # Start mid-stream: nonzero counters, schedule and totals.
    for _ in range(warmup):
        ours.probe_elapsed(kind, elapsed_ns)
        twin.probe_elapsed(kind, elapsed_ns)
    block = ours.probe_noise_block(kind, elapsed_ns, n)
    family = touch_latency if kind == "touch" and touch_latency is not None else latency
    if family is None or not family.active:
        assert block is None
        assert ours._streams == {}
        assert twin.probe_elapsed(kind, elapsed_ns) == elapsed_ns
        assert twin._streams == {} and twin.stats() == ours.stats()
        return
    assert block is not None
    times, commit = block
    commit(k)
    expected = [twin.probe_elapsed(kind, elapsed_ns) for _ in range(k)]
    assert times[:k] == expected
    assert _stream_counters(ours) == _stream_counters(twin)
    assert ours.schedule == twin.schedule
    assert ours.stats() == twin.stats()
    assert _spike_counters(our_kernel) == _spike_counters(twin_kernel)
    expected += [twin.probe_elapsed(kind, elapsed_ns) for _ in range(n - k)]
    assert times == expected


@pytest.mark.parametrize("field", ["jitter_ns", "spike_ns", "granularity_ns"])
@pytest.mark.parametrize("value", [1e6, 2.5e3, 0.0, True, False])
def test_latency_noise_rejects_non_int_durations(field, value):
    """Simulated time is integer nanoseconds: a float duration (or a
    bool posing as 0/1) would leak into the clock."""
    with pytest.raises(ValueError, match=field):
        LatencyNoise(**{field: value})


def _fldc_specs():
    config = small_trial_config()
    return [
        TrialSpec(
            experiment_id="inject-prop-jobs",
            trial_index=trial,
            fn=_fldc_robustness_trial,
            params=dict(config=config, level=0.5, hardened=True),
            seed=1000 + trial,
        )
        for trial in range(4)
    ]


def test_trials_identical_across_parallel_runners(tmp_path):
    """jobs=1 and jobs=2 produce bit-identical trial values: the fault
    schedule is derived from the spec seed, never from worker state."""
    with runner.configuration(jobs=1, use_cache=False):
        serial = run_trials(_fldc_specs())
    with runner.configuration(jobs=2, use_cache=False):
        parallel = run_trials(_fldc_specs())
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
