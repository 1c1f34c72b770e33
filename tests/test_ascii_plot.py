"""Tests for the terminal line-plot renderer."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import _load_bench

line_plot = _load_bench("ascii_plot").line_plot


class TestLinePlot:
    def test_basic_render_contains_markers_and_legend(self):
        x = [0, 1, 2, 3]
        out = line_plot(x, {"up": [0, 1, 2, 3], "down": [3, 2, 1, 0]},
                        width=40, height=10, title="T")
        assert out.startswith("T")
        assert "o = up" in out and "x = down" in out
        assert "o" in out and "x" in out

    def test_extremes_land_on_first_and_last_rows(self):
        x = [0.0, 1.0]
        out = line_plot(x, {"s": [0.0, 1.0]}, width=20, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        assert "o" in rows[0]      # max on the top row
        assert "o" in rows[-1]     # min on the bottom row

    def test_log_scale(self):
        x = [1, 2, 3]
        out = line_plot(x, {"speedup": [1.0, 100.0, 10000.0]}, logy=True)
        assert "+1e+04" in out or "1e+04" in out

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            line_plot([0, 1], {"bad": [1.0, 0.0]}, logy=True)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            line_plot([0, 1, 2], {"s": [1.0, 2.0]})

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            line_plot([1.0], {"s": [2.0]})

    def test_constant_series_does_not_divide_by_zero(self):
        out = line_plot([0, 1, 2], {"flat": [5.0, 5.0, 5.0]})
        assert "o" in out

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=16, max_value=100),
        st.integers(min_value=4, max_value=30),
    )
    def test_property_geometry(self, n, n_series, seed, width, height):
        """Never crashes; output grid has the requested dimensions."""
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-10, 10, n))
        x[-1] = x[0] + max(x[-1] - x[0], 1e-3)  # ensure spread
        series = {f"s{i}": rng.uniform(-5, 5, n) for i in range(n_series)}
        out = line_plot(x, series, width=width, height=height)
        rows = [l for l in out.splitlines() if l.rstrip().endswith("|")]
        assert len(rows) == height
        for row in rows:
            inner = row[row.index("|") + 1 : row.rindex("|")]
            assert len(inner) == width
