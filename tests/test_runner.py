"""Parallel trial runner: determinism, caching, telemetry."""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner
from repro.experiments.figures import fig1_probe_correlation
from repro.experiments.runner import (
    TrialSpec,
    cache_key,
    clear_cache,
    configuration,
    configured,
    derive_seed,
    drain_stats,
    run_trials,
)
from tests.conftest import small_config


# Module-level so specs are picklable by worker processes.
def sum_trial(seed, *, a, b):
    return {"sum": a + b, "seed": seed}


def echo_trial(seed, *, payload):
    return payload


def seed_stream_trial(seed, *, draws):
    import random

    rng = random.Random(seed)
    return [rng.randrange(1_000_000) for _ in range(draws)]


def specs_for(n, experiment_id="unit", seed=None):
    return [
        TrialSpec(
            experiment_id=experiment_id,
            trial_index=i,
            fn=sum_trial,
            params={"a": i, "b": 10},
            seed=seed,
        )
        for i in range(n)
    ]


class TestSeeding:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed("fig1", 3) == derive_seed("fig1", 3)

    def test_derive_seed_varies_by_index_and_experiment(self):
        seeds = {derive_seed("fig1", i) for i in range(50)}
        assert len(seeds) == 50
        assert derive_seed("fig1", 0) != derive_seed("fig2", 0)

    def test_derive_seed_varies_by_base_seed(self):
        assert derive_seed("fig1", 0, base_seed=1) != derive_seed("fig1", 0)

    def test_derive_seed_fits_in_63_bits(self):
        for i in range(20):
            assert 0 <= derive_seed("x", i) < 2**63

    def test_spec_resolves_explicit_seed(self):
        spec = TrialSpec("e", 0, sum_trial, {}, seed=7)
        assert spec.resolved_seed() == 7

    def test_spec_derives_seed_when_none(self):
        spec = TrialSpec("e", 4, sum_trial, {})
        assert spec.resolved_seed() == derive_seed("e", 4)


class TestRunTrials:
    def test_values_in_spec_order(self):
        values = run_trials(specs_for(5))
        assert [v["sum"] for v in values] == [10, 11, 12, 13, 14]

    def test_empty_specs(self):
        assert run_trials([]) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_trials(specs_for(1), jobs=0)

    def test_parallel_matches_sequential(self):
        sequential = run_trials(specs_for(8), jobs=1)
        parallel = run_trials(specs_for(8), jobs=4)
        assert parallel == sequential

    def test_results_are_json_normalised(self):
        spec = TrialSpec(
            "unit", 0, echo_trial, {"payload": {"t": (1, 2), "k": {3: "x"}}}
        )
        (value,) = run_trials([spec])
        # Identical shape whether the value came from a worker, inline
        # execution, or the cache: tuples -> lists, int keys -> str.
        assert value == {"t": [1, 2], "k": {"3": "x"}}

    def test_telemetry_accumulates(self):
        drain_stats()
        run_trials(specs_for(3))
        (stats,) = drain_stats()
        assert stats.trials == 3
        assert stats.simulated == 3
        assert stats.cached == 0
        assert len(stats.trial_s) == 3
        assert "unit" in stats.summary()
        assert drain_stats() == []


class TestCache:
    def test_hit_on_second_run(self, tmp_path):
        drain_stats()
        first = run_trials(specs_for(3), use_cache=True, cache_dir=tmp_path)
        second = run_trials(specs_for(3), use_cache=True, cache_dir=tmp_path)
        assert first == second
        cold, warm = drain_stats()
        assert (cold.cached, cold.simulated) == (0, 3)
        assert (warm.cached, warm.simulated) == (3, 0)

    def test_param_change_invalidates(self, tmp_path):
        base = TrialSpec("unit", 0, sum_trial, {"a": 1, "b": 2})
        changed = TrialSpec("unit", 0, sum_trial, {"a": 1, "b": 3})
        drain_stats()
        run_trials([base], use_cache=True, cache_dir=tmp_path)
        run_trials([changed], use_cache=True, cache_dir=tmp_path)
        _, stats = drain_stats()
        assert stats.simulated == 1  # different params -> miss

    def test_seed_change_invalidates(self, tmp_path):
        drain_stats()
        run_trials(specs_for(1, seed=1), use_cache=True, cache_dir=tmp_path)
        run_trials(specs_for(1, seed=2), use_cache=True, cache_dir=tmp_path)
        _, stats = drain_stats()
        assert stats.simulated == 1

    def test_machine_config_participates_in_key(self):
        small = TrialSpec("u", 0, echo_trial, {"payload": small_config()})
        bigger = TrialSpec(
            "u", 0, echo_trial, {"payload": small_config(data_disks=2)}
        )
        assert cache_key(small) != cache_key(bigger)
        assert cache_key(small) == cache_key(
            TrialSpec("u", 0, echo_trial, {"payload": small_config()})
        )

    def test_corrupt_cache_entry_is_resimulated(self, tmp_path):
        spec = specs_for(1)[0]
        run_trials([spec], use_cache=True, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ not json")
        drain_stats()
        (value,) = run_trials([spec], use_cache=True, cache_dir=tmp_path)
        assert value == {"sum": 10, "seed": spec.resolved_seed()}
        (stats,) = drain_stats()
        assert stats.simulated == 1

    def test_stale_key_is_rejected(self, tmp_path):
        spec = specs_for(1)[0]
        run_trials([spec], use_cache=True, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.json")
        blob = json.loads(entry.read_text())
        blob["key"] = "0" * 64  # wrong key: e.g. a truncated-hash collision
        entry.write_text(json.dumps(blob))
        drain_stats()
        run_trials([spec], use_cache=True, cache_dir=tmp_path)
        (stats,) = drain_stats()
        assert stats.simulated == 1

    def test_clear_cache(self, tmp_path):
        run_trials(specs_for(4), use_cache=True, cache_dir=tmp_path)
        assert clear_cache(tmp_path) == 4
        assert clear_cache(tmp_path) == 0

    def test_cache_off_by_default(self, tmp_path):
        with configuration(cache_dir=tmp_path):
            run_trials(specs_for(2))
        assert list(tmp_path.glob("*.json")) == []


class TestConfiguration:
    def test_context_restores_everything(self, tmp_path):
        before = configured()
        saved = (before.jobs, before.use_cache, before.cache_dir)
        with configuration(jobs=7, use_cache=True, cache_dir=tmp_path):
            active = configured()
            assert (active.jobs, active.use_cache) == (7, True)
            assert active.cache_dir == tmp_path
        after = configured()
        assert (after.jobs, after.use_cache, after.cache_dir) == saved

    def test_configure_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            runner.configure(jobs=0)

    def test_none_overrides_are_ignored(self):
        with configuration(jobs=3):
            with configuration(jobs=None, use_cache=None, cache_dir=None):
                assert configured().jobs == 3


class TestDriverParity:
    """The acceptance property: a real figure driver produces
    bit-identical rows under ``jobs=1`` and ``jobs=4``."""

    def test_fig1_rows_identical_across_job_counts(self):
        kwargs = dict(
            config=small_config(),
            file_mb=4,
            access_units_mb=(1, 2),
            prediction_units_mb=(1, 2),
            trials=2,
            seed=1234,
        )
        with configuration(jobs=1):
            sequential = fig1_probe_correlation(**kwargs)
        with configuration(jobs=4):
            parallel = fig1_probe_correlation(**kwargs)
        assert parallel.rows == sequential.rows

    def test_fig1_cached_rerun_matches_fresh(self, tmp_path):
        kwargs = dict(
            config=small_config(),
            file_mb=4,
            access_units_mb=(1,),
            prediction_units_mb=(1,),
            trials=2,
            seed=99,
        )
        with configuration(use_cache=True, cache_dir=tmp_path):
            drain_stats()
            fresh = fig1_probe_correlation(**kwargs)
            cached = fig1_probe_correlation(**kwargs)
            cold, warm = drain_stats()
        assert cached.rows == fresh.rows
        assert warm.simulated == 0
        assert warm.cached == cold.trials
