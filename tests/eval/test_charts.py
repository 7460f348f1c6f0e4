"""Tests for terminal charts."""

import pytest

from repro.errors import ConfigurationError
from repro.eval.charts import line_chart


class TestLineChart:
    def test_contains_markers_and_legend(self):
        chart = line_chart({"MIL": [0.4, 0.6, 0.8],
                            "WRF": [0.4, 0.45, 0.45]})
        assert "A=MIL" in chart
        assert "B=WRF" in chart
        assert "r0" in chart and "r2" in chart
        assert "%" in chart

    def test_collision_marked(self):
        chart = line_chart({"a": [0.5], "b": [0.5]})
        assert "*" in chart

    def test_higher_value_on_higher_row(self):
        chart = line_chart({"a": [0.1, 0.9]}, height=10)
        rows = [line for line in chart.splitlines() if "|" in line]
        first_marker_row = next(i for i, r in enumerate(rows) if "A" in r)
        last_marker_row = max(i for i, r in enumerate(rows) if "A" in r)
        assert first_marker_row < last_marker_row  # 0.9 printed above 0.1

    def test_empty(self):
        assert line_chart({}) == "(no data)"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_chart({"a": [0.5]}, height=1)
        with pytest.raises(ConfigurationError):
            line_chart({"a": [0.5]}, lo=1.0, hi=0.0)
