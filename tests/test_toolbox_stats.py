"""Statistics routines, with hypothesis checks against the stdlib."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.toolbox.stats import (
    OnlineStats,
    SampleStats,
    exponential_average,
    linear_regression,
    pearson_correlation,
    sign_test,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.variance == 0.0

    def test_single_value(self):
        stats = OnlineStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.stdev == 0.0
        assert stats.minimum == stats.maximum == 5.0

    def test_known_values(self):
        stats = OnlineStats().extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(statistics.variance(
            [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(floats, min_size=2, max_size=50))
    def test_matches_statistics_module(self, values):
        stats = OnlineStats().extend(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert stats.variance == pytest.approx(
            statistics.variance(values), abs=1e-5, rel=1e-6
        )
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(floats, min_size=1, max_size=30),
        right=st.lists(floats, min_size=1, max_size=30),
    )
    def test_merge_equals_single_accumulator(self, left, right):
        merged = OnlineStats().extend(left).merge(OnlineStats().extend(right))
        whole = OnlineStats().extend(left + right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, abs=1e-6, rel=1e-9)
        assert merged.variance == pytest.approx(whole.variance, abs=1e-4, rel=1e-6)

    def test_merge_with_empty(self):
        stats = OnlineStats().extend([1.0, 2.0])
        merged = stats.merge(OnlineStats())
        assert merged.mean == pytest.approx(1.5)


class TestSampleStats:
    def test_median_odd_and_even(self):
        assert SampleStats([3, 1, 2]).median == 2
        assert SampleStats([4, 1, 2, 3]).median == 2.5

    def test_percentiles(self):
        stats = SampleStats(list(range(101)))
        assert stats.percentile(0) == 0
        assert stats.percentile(50) == 50
        assert stats.percentile(100) == 100

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            SampleStats([1]).percentile(101)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SampleStats().mean

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(floats, min_size=1, max_size=50))
    def test_median_matches_statistics(self, values):
        assert SampleStats(values).median == pytest.approx(
            statistics.median(values), abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(floats, min_size=1, max_size=50), pct=st.floats(0, 100))
    def test_percentile_within_range(self, values, pct):
        result = SampleStats(values).percentile(pct)
        assert min(values) <= result <= max(values)


class TestCorrelation:
    def test_perfect_positive(self):
        xs = [1, 2, 3, 4]
        assert pearson_correlation(xs, [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1, 2, 3, 4]
        assert pearson_correlation(xs, [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_yields_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(floats, floats), min_size=2, max_size=40))
    def test_result_bounded(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assert -1.0 - 1e-9 <= pearson_correlation(xs, ys) <= 1.0 + 1e-9


class TestRegression:
    def test_recovers_exact_line(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [5.0, 7.0, 9.0, 11.0]
        slope, intercept = linear_regression(xs, ys)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(5.0)

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError):
            linear_regression([1, 1], [2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_regression([1], [2])

    @settings(max_examples=40, deadline=None)
    @given(
        slope=st.floats(-100, 100),
        intercept=st.floats(-100, 100),
        xs=st.lists(
            st.floats(min_value=-1000, max_value=1000, allow_nan=False),
            min_size=2,
            max_size=30,
            unique=True,
        ),
    )
    def test_recovers_arbitrary_noiseless_line(self, slope, intercept, xs):
        from hypothesis import assume

        assume(max(xs) - min(xs) > 1e-3)  # avoid numerically degenerate spreads
        ys = [slope * x + intercept for x in xs]
        got_slope, got_intercept = linear_regression(xs, ys)
        assert got_slope == pytest.approx(slope, abs=1e-6, rel=1e-6)
        assert got_intercept == pytest.approx(intercept, abs=1e-4, rel=1e-4)


class TestExponentialAverage:
    def test_alpha_one_tracks_last_value(self):
        assert exponential_average([1.0, 5.0, 3.0], alpha=1.0) == 3.0

    def test_smoothing(self):
        result = exponential_average([0.0, 10.0], alpha=0.5)
        assert result == 5.0

    def test_initial_value_used(self):
        assert exponential_average([10.0], alpha=0.5, initial=0.0) == 5.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            exponential_average([1.0], alpha=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exponential_average([], alpha=0.5)


class TestSignTest:
    def test_strongly_one_sided_is_significant(self):
        pairs = [(10.0, 1.0)] * 10
        pos, neg, p = sign_test(pairs)
        assert (pos, neg) == (10, 0)
        assert p < 0.01

    def test_balanced_is_not_significant(self):
        pairs = [(1.0, 2.0), (2.0, 1.0)] * 5
        _pos, _neg, p = sign_test(pairs)
        assert p > 0.5

    def test_ties_discarded(self):
        pos, neg, p = sign_test([(1.0, 1.0)] * 5)
        assert (pos, neg, p) == (0, 0, 1.0)

    def test_p_value_matches_binomial(self):
        # 9 positives of 10: two-sided p = 2 * (C(10,0)+C(10,1)) / 2^10.
        pairs = [(2.0, 1.0)] * 9 + [(1.0, 2.0)]
        _pos, _neg, p = sign_test(pairs)
        expected = 2 * (1 + 10) / 2**10
        assert p == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(floats, floats), max_size=40))
    def test_p_value_in_unit_interval(self, pairs):
        _pos, _neg, p = sign_test(pairs)
        assert 0.0 <= p <= 1.0
