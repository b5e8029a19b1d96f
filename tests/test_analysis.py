"""Tests for the analysis helpers (tables, figures, reports)."""

import pytest

from repro.analysis import ExperimentReport, Table, ascii_bar_chart, ascii_line_chart, format_value


class TestFormatValue:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (True, "yes"),
            (False, "no"),
            (0.0, "0"),
            (3.14159, "3.14"),
            (0.001234, "0.0012"),
            (12345.6, "12,346"),
            ("text", "text"),
            (7, "7"),
        ],
    )
    def test_rendering(self, value, expected):
        assert format_value(value) == expected


class TestTable:
    def test_add_rows_positionally_and_by_name(self):
        table = Table("demo", ["name", "value"])
        table.add_row("a", 1.0)
        table.add_row(name="b", value=2.0)
        rendered = table.render()
        assert "demo" in rendered and "a" in rendered and "b" in rendered
        assert table.rows == [["a", "1.00"], ["b", "2.00"]]

    def test_row_length_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)
        with pytest.raises(ValueError):
            table.add_row(1, 2, **{"a": 3})

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table("demo", [])

    def test_sort_by_numeric_column(self):
        table = Table("demo", ["name", "value"])
        table.add_row("big", 10.0)
        table.add_row("small", 2.0)
        table.sort_by("value")
        assert [row[0] for row in table.rows] == ["small", "big"]
        table.sort_by("value", reverse=True)
        assert [row[0] for row in table.rows] == ["big", "small"]

    def test_alignment_in_render(self):
        table = Table("demo", ["column"])
        table.add_row("a-much-longer-value")
        lines = table.render().splitlines()
        assert len(lines[2]) == len(lines[4])  # header width == row width


class TestCharts:
    def test_bar_chart_scales_to_width(self):
        chart = ascii_bar_chart("latency", {"hit": 1.0, "miss": 4.0}, width=20, unit="us")
        lines = chart.splitlines()
        assert lines[0] == "latency"
        hit_line = next(line for line in lines if line.startswith("hit"))
        miss_line = next(line for line in lines if line.startswith("miss"))
        assert miss_line.count("#") == 20
        assert hit_line.count("#") == 5

    def test_bar_chart_empty(self):
        assert "(no data)" in ascii_bar_chart("nothing", {})

    def test_bar_chart_invalid_width(self):
        with pytest.raises(ValueError):
            ascii_bar_chart("x", {"a": 1.0}, width=0)

    def test_line_chart_contains_markers_and_legend(self):
        chart = ascii_line_chart(
            "speedup",
            {"agile": [(1, 1.0), (2, 2.0), (4, 3.0)], "host": [(1, 1.0), (2, 1.0), (4, 1.0)]},
            width=30,
            height=8,
        )
        assert "legend" in chart
        assert "*" in chart and "o" in chart

    def test_line_chart_empty_and_invalid(self):
        assert "(no data)" in ascii_line_chart("x", {"s": []})
        with pytest.raises(ValueError):
            ascii_line_chart("x", {}, width=1, height=1)


class TestExperimentReport:
    def test_render_includes_everything(self):
        report = ExperimentReport("E2", "Reconfiguration latency")
        table = Table("latency", ["function", "us"])
        table.add_row("aes128", 120.0)
        report.add_table(table)
        report.add_figure(ascii_bar_chart("x", {"a": 1.0}))
        report.observe("partial reconfiguration is faster than full")
        report.record_metric("speedup", 3.5)
        text = report.render()
        assert "[E2]" in text
        assert "aes128" in text
        assert "partial reconfiguration" in text
        assert "speedup = 3.5" in text
        assert str(report) == text
