"""ASCII figure rendering."""

import pytest

from repro.analysis.figures import bar_chart, line_plot
from repro.errors import ConfigError


def test_bar_chart_scales_to_peak():
    text = bar_chart([("a", 10), ("b", 5)], width=10)
    lines = text.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5


def test_bar_chart_reference_marker():
    text = bar_chart([("a", 2)], width=10, reference=10)
    assert "|" in text


def test_bar_chart_title_and_unit():
    text = bar_chart([("x", 1)], title="T", unit="us")
    assert text.splitlines()[0] == "T"
    assert "1us" in text


def test_bar_chart_empty_rejected():
    with pytest.raises(ConfigError):
        bar_chart([])


def test_bar_chart_zero_values():
    text = bar_chart([("a", 0), ("b", 0)])
    assert "#" not in text


def test_line_plot_places_points():
    text = line_plot({"base": [(0, 0), (10, 100)]}, width=20, height=5)
    assert "o" in text
    assert "legend: o=base" in text


def test_line_plot_multiple_series_distinct_glyphs():
    text = line_plot({
        "a": [(0, 1)], "b": [(1, 2)],
    })
    assert "o=a" in text and "x=b" in text


def test_line_plot_ceiling_clamps():
    text = line_plot({"s": [(0, 10), (1, 10**9)]}, y_ceiling=100,
                     height=4, width=10)
    assert "100" in text.splitlines()[0]


def test_line_plot_empty_rejected():
    with pytest.raises(ConfigError):
        line_plot({})
    with pytest.raises(ConfigError):
        line_plot({"s": []})


def test_line_plot_single_point_degenerate():
    text = line_plot({"s": [(5, 5)]}, width=8, height=3)
    assert "o" in text
