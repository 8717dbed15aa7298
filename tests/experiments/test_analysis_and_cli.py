"""Tests for the SVG renderer and the CLI."""

import xml.dom.minidom

import pytest

from repro.analysis import BarChart, LineChart
from repro.analysis.render import (figure3_chart, figure4_chart,
                                   figure5_chart, figure6_chart)
from repro.cli import build_parser, main
from repro.experiments import (chaos, figure4, figure5, figure6, table1,
                               transport_chaos)
from repro.experiments.figures import (Figure4Cell, Figure4Result,
                                       Figure5Point, Figure5Result,
                                       Figure6Point, Figure6Result)
from repro.metrics import SpeedSearchResult


def assert_valid_svg(text):
    document = xml.dom.minidom.parseString(text)
    assert document.documentElement.tagName == "svg"
    return document


class TestLineChart:
    def test_renders_series_and_legend(self):
        chart = LineChart(title="t", x_label="x", y_label="y")
        chart.add_series("a", [(0, 0), (1, 1), (2, 4)])
        chart.add_series("b", [(0, 2), (1, 3)], dashed=True)
        svg = chart.to_svg()
        assert_valid_svg(svg)
        assert svg.count("<polyline") == 2
        assert ">a<" in svg and ">b<" in svg
        assert "stroke-dasharray" in svg

    def test_log_x_axis(self):
        chart = LineChart(title="t", log_x=True)
        chart.add_series("a", [(0.125, 1), (0.5, 2), (2.0, 3)])
        assert_valid_svg(chart.to_svg())

    def test_log_x_rejects_nonpositive(self):
        chart = LineChart(title="t", log_x=True)
        chart.add_series("a", [(0.0, 1)])
        with pytest.raises(ValueError):
            chart.to_svg()

    def test_empty_chart_renders(self):
        assert_valid_svg(LineChart(title="empty").to_svg())

    def test_save(self, tmp_path):
        chart = LineChart(title="t")
        chart.add_series("a", [(0, 0), (1, 1)])
        path = tmp_path / "chart.svg"
        chart.save(str(path))
        assert_valid_svg(path.read_text())

    def test_title_escaped(self):
        chart = LineChart(title="a < b & c")
        svg = chart.to_svg()
        assert "a &lt; b &amp; c" in svg


class TestBarChart:
    def make(self):
        return BarChart(title="t", groups=["g1", "g2"],
                        series_names=["s1", "s2"],
                        values=[[100.0, 50.0], [90.0, 40.0]],
                        y_label="%")

    def test_renders_all_bars(self):
        svg = self.make().to_svg()
        assert_valid_svg(svg)
        # 4 bars + 2 legend swatches.
        assert svg.count("<rect") >= 6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BarChart(title="t", groups=["g"], series_names=["a", "b"],
                     values=[[1.0]]).to_svg()
        with pytest.raises(ValueError):
            BarChart(title="t", groups=["g", "h"], series_names=["a"],
                     values=[[1.0]]).to_svg()


def search(speed):
    return SpeedSearchResult(max_trackable_speed=speed,
                             evaluated=[(speed, 1.0)])


class TestFigureCharts:
    def test_figure4_chart(self):
        result = Figure4Result(cells=[
            Figure4Cell(33, True, 100.0, 3),
            Figure4Cell(33, False, 87.0, 3),
            Figure4Cell(50, True, 100.0, 3),
            Figure4Cell(50, False, 78.0, 3),
        ])
        assert_valid_svg(figure4_chart(result).to_svg())

    def test_figure5_chart(self):
        result = Figure5Result(points=[
            Figure5Point(0.25, 1.0, "takeover", search(3.0)),
            Figure5Point(0.5, 1.0, "takeover", search(1.0)),
            Figure5Point(0.25, 1.0, "relinquish", search(5.0)),
        ])
        svg = figure5_chart(result).to_svg()
        assert_valid_svg(svg)
        assert "takeover" in svg and "relinquish" in svg

    def test_figure6_chart(self):
        result = Figure6Result(points=[
            Figure6Point(1.0, 2.0, search(0.0)),
            Figure6Point(2.0, 2.0, search(4.0)),
        ])
        assert_valid_svg(figure6_chart(result).to_svg())


class TestCli:
    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_figure3_run_and_svg(self, tmp_path):
        lines = []
        svg_path = tmp_path / "figure3.svg"
        exit_code = main(["figure3", "--svg", str(svg_path)],
                         out=lines.append)
        assert exit_code == 0
        output = "\n".join(lines)
        assert "Figure 3" in output
        assert_valid_svg(svg_path.read_text())
        # figure3_chart integration (real run, not synthetic).
        result3 = None

    def test_table1_quick(self):
        lines = []
        assert main(["table1", "--quick"], out=lines.append) == 0
        assert any("Table 1" in line for line in lines)


class TestSweepSizes:
    @pytest.mark.parametrize("argv", [
        ["table1", "--repetitions", "0"],
        ["figure4", "--repetitions", "-1"],
        ["chaos", "--jobs", "-2"],
    ])
    def test_cli_rejects_bad_sizes(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv, out=lambda _: None)
        assert exit_info.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_cli_accepts_jobs_zero(self):
        assert build_parser().parse_args(["chaos", "--jobs", "0"]).jobs == 0

    @pytest.mark.parametrize("sweep", [figure4, table1, figure5, figure6,
                                       chaos, transport_chaos])
    def test_sweeps_reject_zero_repetitions(self, sweep):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            sweep(repetitions=0)
