"""Tests for retrieval metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.eval import accuracy_at_k, overall_gain


class TestAccuracyAtK:
    def test_basic(self):
        assert accuracy_at_k([1, 2, 3, 4], {1, 3}) == pytest.approx(0.5)

    def test_k_truncates(self):
        assert accuracy_at_k([1, 2, 3, 4], {1}, k=2) == pytest.approx(0.5)
        assert accuracy_at_k([1, 2, 3, 4], {4}, k=2) == 0.0

    def test_empty_returned(self):
        assert accuracy_at_k([], {1}) == 0.0

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            accuracy_at_k([1], {1}, k=0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30,
                    unique=True),
           st.sets(st.integers(0, 50)))
    @settings(max_examples=50, deadline=None)
    def test_property_bounded(self, returned, relevant):
        acc = accuracy_at_k(returned, relevant)
        assert 0.0 <= acc <= 1.0
        if set(returned) <= relevant:
            assert acc == 1.0
        if not (set(returned) & relevant):
            assert acc == 0.0


class TestOverallGain:
    def test_gain(self):
        assert overall_gain([0.4, 0.5, 0.6]) == pytest.approx(0.2)

    def test_single_round(self):
        assert overall_gain([0.4]) == 0.0

    def test_negative_gain(self):
        assert overall_gain([0.5, 0.3]) == pytest.approx(-0.2)
