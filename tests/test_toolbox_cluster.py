"""Two-means clustering: exactness and degenerate handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.toolbox.cluster import two_means

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def brute_force_ss(values):
    """Minimum within-SS over every threshold split of the sorted values."""
    ordered = sorted(values)
    best = float("inf")
    for cut in range(1, len(ordered)):
        low, high = ordered[:cut], ordered[cut:]
        ss = 0.0
        for group in (low, high):
            mean = sum(group) / len(group)
            ss += sum((v - mean) ** 2 for v in group)
        best = min(best, ss)
    return best


class TestTwoMeans:
    def test_obvious_bimodal_split(self):
        values = [1.0, 1.1, 0.9, 100.0, 101.0, 99.0]
        split = two_means(values)
        assert sorted(split.low_group) == [0, 1, 2]
        assert sorted(split.high_group) == [3, 4, 5]
        assert split.low_center == pytest.approx(1.0)
        assert split.high_center == pytest.approx(100.0)
        assert 1.1 < split.threshold < 99.0

    def test_probe_time_scales(self):
        """The actual FCCD use: microseconds vs milliseconds."""
        cached = [4000, 4100, 3900]      # ~4 us
        on_disk = [8_000_000, 9_000_000]  # ~8-9 ms
        split = two_means(cached + on_disk)
        assert sorted(split.low_group) == [0, 1, 2]
        assert split.high_center / split.low_center > 1000

    def test_single_value(self):
        split = two_means([7.0])
        assert split.low_group == (0,)
        assert split.high_group == ()

    def test_all_equal_means_one_group(self):
        split = two_means([3.0] * 5)
        assert len(split.low_group) == 5
        assert split.high_group == ()
        assert split.separation == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            two_means([])

    def test_groups_partition_indices(self):
        values = [5.0, 1.0, 9.0, 2.0]
        split = two_means(values)
        assert sorted(split.low_group + split.high_group) == [0, 1, 2, 3]

    def test_low_group_really_lower(self):
        values = [10.0, 2.0, 8.0, 1.0, 9.0]
        split = two_means(values)
        low_max = max(values[i] for i in split.low_group)
        high_min = min(values[i] for i in split.high_group)
        assert low_max <= split.threshold <= high_min

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(floats, min_size=2, max_size=24))
    def test_matches_brute_force_optimum(self, values):
        split = two_means(values)
        if len(set(values)) == 1:
            assert split.high_group == ()
            return
        assert split.within_ss == pytest.approx(
            brute_force_ss(values), abs=1e-3, rel=1e-6
        )

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(floats, min_size=2, max_size=30))
    def test_centers_are_group_means(self, values):
        split = two_means(values)
        low = [values[i] for i in split.low_group]
        assert split.low_center == pytest.approx(sum(low) / len(low), rel=1e-9, abs=1e-9)
        if split.high_group:
            high = [values[i] for i in split.high_group]
            assert split.high_center == pytest.approx(
                sum(high) / len(high), rel=1e-9, abs=1e-9
            )
