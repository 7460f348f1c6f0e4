"""Tests for shared helpers in repro.utils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.utils import (
    as_rng,
    check_2d,
    check_in_range,
    check_positive,
    pairwise_sq_dists,
)


class TestAsRng:
    def test_int_seed_deterministic(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestChecks:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)
        assert check_positive("x", 0, strict=False) == 0
        with pytest.raises(ConfigurationError):
            check_positive("x", -1, strict=False)

    def test_check_in_range(self):
        assert check_in_range("x", 0.5, 0, 1) == 0.5
        assert check_in_range("x", 0.0, 0, 1) == 0.0
        with pytest.raises(ConfigurationError):
            check_in_range("x", 0.0, 0, 1, inclusive=(False, True))
        with pytest.raises(ConfigurationError):
            check_in_range("x", 1.5, 0, 1)

    def test_check_2d(self):
        out = check_2d("x", np.arange(3.0))
        assert out.shape == (1, 3)
        out = check_2d("x", np.zeros((2, 3)))
        assert out.shape == (2, 3)
        with pytest.raises(ConfigurationError):
            check_2d("x", np.zeros((2, 2, 2)))
        with pytest.raises(ConfigurationError):
            check_2d("x", np.zeros((0, 3)))


class TestPairwiseSqDists:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        fast = pairwise_sq_dists(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(fast, naive)

    @given(hnp.arrays(np.float64, (4, 2),
                      elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_property_nonnegative_and_zero_diag(self, a):
        d2 = pairwise_sq_dists(a, a)
        assert d2.min() >= 0.0
        assert np.allclose(np.diag(d2), 0.0, atol=1e-6)
