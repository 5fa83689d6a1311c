"""``tools/ab.py``: the §8 verdict over paired samples, and the refusal
to compare trees whose benchmarks differ.  No test runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: A parent with quartiles 1.95 and 2.05 (IQR 0.1) around a 2.0 median.
PARENT = [1.9, 1.95, 1.95, 2.0, 2.0, 2.0, 2.0, 2.05, 2.05, 2.1]


def test_clear_gain_is_better():
    change = [x - 0.3 for x in PARENT]
    assert ab.verdict(PARENT, change, "lower") == (10, "better")


def test_nine_of_ten_pairs_suffice():
    change = [x - 0.3 for x in PARENT]
    change[4] = PARENT[4] + 0.5
    assert ab.verdict(PARENT, change, "lower") == (9, "better")


def test_eight_of_ten_pairs_do_not():
    change = [x - 0.3 for x in PARENT]
    change[4] = PARENT[4] + 0.5
    change[7] = PARENT[7]  # a tie counts for neither side
    assert ab.verdict(PARENT, change, "lower") == (8, "not shown")


def test_gap_within_parent_iqr_is_not_shown():
    change = [x - 0.05 for x in PARENT]  # wins every pair, by less than the IQR
    assert ab.verdict(PARENT, change, "lower") == (10, "not shown")


def test_clear_loss_is_worse():
    change = [x + 0.3 for x in PARENT]
    assert ab.verdict(PARENT, change, "lower") == (0, "worse")


def test_higher_is_better_flips_the_sign():
    change = [x + 0.3 for x in PARENT]
    assert ab.verdict(PARENT, change, "higher") == (10, "better")
    assert ab.verdict(PARENT, [x - 0.3 for x in PARENT], "higher") == (0, "worse")


def test_unpaired_samples_are_rejected():
    with pytest.raises(ValueError):
        ab.verdict(PARENT, PARENT[:-1], "lower")


def test_benchmark_differences_name_the_changed_files(tmp_path):
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        (root / "benchmarks" / "e2e").mkdir(parents=True)
        (root / "benchmarks" / "e2e" / "run.py").write_text("same\n")
        (root / "BENCHMARK.json").write_text("{}\n")
        (root / "src.py").write_text(f"{name}\n")  # outside the benchmark
        trees.append(root)
    assert ab.benchmark_differences(*trees) == []
    (trees[1] / "benchmarks" / "e2e" / "run.py").write_text("edited\n")
    (trees[1] / "benchmarks" / "e2e" / "extra.py").write_text("new\n")
    assert ab.benchmark_differences(*trees) == [
        "benchmarks/e2e/extra.py", "benchmarks/e2e/run.py",
    ]
