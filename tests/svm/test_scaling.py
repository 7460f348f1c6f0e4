"""Tests for the feature scalers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import NotFittedError
from repro.svm import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_not_divided_by_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    def test_transform_uses_fit_statistics(self):
        scaler = StandardScaler().fit(np.array([[0.0], [10.0]]))
        out = scaler.transform(np.array([[5.0]]))
        assert out[0, 0] == pytest.approx(0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))

    @given(hnp.arrays(np.float64, (15, 3),
                      elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_property_inverse_roundtrip(self, x):
        scaler = StandardScaler().fit(x)
        z = scaler.transform(x)
        assert np.allclose(scaler.inverse_transform(z), x, atol=1e-8)

