"""Error metrics."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from roomsense.metrics import smape
from roomsense.records import DataValidationError

counts = st.lists(st.integers(0, 500), min_size=1, max_size=30)


class TestSmape:
    def test_exact_forecast_is_zero(self):
        assert smape([3, 5, 9], [3, 5, 9]) == 0.0

    def test_single_pair_1_vs_3(self):
        assert smape([1], [3]) == pytest.approx(50.0)

    def test_double_forecast_is_one_third(self):
        actual = [2, 5, 11, 40]
        forecast = [2 * a for a in actual]
        assert smape(forecast, actual) == pytest.approx(100.0 / 3, abs=0.01)

    def test_zero_zero_pair_contributes_nothing(self):
        assert smape([0, 1], [0, 1]) == 0.0
        assert smape([0, 0], [0, 4]) == pytest.approx(50.0)

    def test_length_mismatch_errors(self):
        with pytest.raises(DataValidationError):
            smape([1, 2], [1])

    def test_empty_errors(self):
        with pytest.raises(DataValidationError):
            smape([], [])

    @given(counts, counts)
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        f, t = a[:n], b[:n]
        left = smape(f, t)
        assert left == pytest.approx(smape(t, f))
        assert 0.0 <= left <= 100.0

