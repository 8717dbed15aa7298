"""Tests for the run report: text summary, SVG dashboard, Prometheus."""

import xml.dom.minidom
from dataclasses import replace

from repro.experiments import TankScenario, run_tank_scenario
from repro.sim import dump_trace
from repro.telemetry.report import RunReport


def make_run():
    scenario = TankScenario(columns=6, rows=2, seed=11)
    run = run_tank_scenario(scenario)
    return run.app.sim


class TestFromSim:
    def test_text_summary_covers_subsystems(self):
        sim = make_run()
        sim_report = RunReport.from_sim(sim)
        text = sim_report.format_text()
        assert "gm" in text
        assert "radio" in text
        assert "frames by kind" in text.lower() or "heartbeat" in text
        assert "span" in text.lower()

    def test_profiler_section_present_when_enabled(self):
        from repro.experiments.scenarios import build_app
        from repro.radio import reset_frame_ids

        reset_frame_ids()
        scenario = TankScenario(columns=6, rows=2, seed=11)
        app = build_app(scenario)
        app.sim.enable_profiler()
        app.install()
        app.run(until=scenario.duration)
        report = RunReport.from_sim(app.sim)
        text = report.format_text()
        assert "handler" in text
        # Quiet sense polls are charged, not dispatched, so the profiler
        # never sees them; the report shows both counts.
        assert app.sim.profiler.events_profiled == report.events_dispatched
        assert report.events_fired > report.events_dispatched
        assert report.implicit_polls > 0
        assert f"{report.implicit_polls} sense polls run implicitly" in text

    def test_dashboard_svg_is_wellformed(self, tmp_path):
        sim = make_run()
        sim_report = RunReport.from_sim(sim)
        svg = sim_report.dashboard_svg()
        xml.dom.minidom.parseString(svg)
        assert svg.count("<svg") >= 5  # outer + 4 panels
        path = tmp_path / "dash.svg"
        sim_report.save_dashboard(str(path))
        xml.dom.minidom.parse(str(path))

    def test_prometheus_export(self, tmp_path):
        sim = make_run()
        sim_report = RunReport.from_sim(sim)
        path = tmp_path / "metrics.prom"
        sim_report.save_prometheus(str(path))
        text = path.read_text()
        assert "# TYPE repro_trace_records_total counter" in text
        assert "repro_radio_frames_sent_total" in text
        assert "repro_gm_sense_polls_implicit_total" in text


class TestFromTraceFile:
    def test_loaded_trace_report(self, tmp_path):
        sim = make_run()
        path = tmp_path / "run.jsonl"
        dump_trace(sim, str(path))
        loaded = RunReport.from_trace_file(str(path))
        live = RunReport.from_sim(sim)
        assert loaded.category_counts() == live.category_counts()
        assert loaded.duration > 0
        text = loaded.format_text()
        assert "gm" in text
        xml.dom.minidom.parseString(loaded.dashboard_svg())

    def test_loaded_trace_prometheus_has_derived_counter(self, tmp_path):
        sim = make_run()
        path = tmp_path / "run.jsonl"
        dump_trace(sim, str(path))
        loaded = RunReport.from_trace_file(str(path))
        text = loaded.derived_registry().render_prometheus()
        assert 'repro_trace_records_total{category="radio.tx"}' in text

    def test_empty_trace_renders_placeholders(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        loaded = RunReport.from_trace_file(str(path))
        assert loaded.duration == 0.0
        xml.dom.minidom.parseString(loaded.dashboard_svg())
        assert loaded.format_text()


class TestSeriesHelpers:
    def test_rate_series_buckets(self):
        sim = make_run()
        sim_report = RunReport.from_sim(sim)
        series = sim_report.rate_series(["radio"])
        assert "radio" in series
        points = series["radio"]
        assert points
        assert all(time >= 0 for time, _ in points)
        assert any(rate > 0 for _, rate in points)

    def test_leadership_events_sorted(self):
        sim = make_run()
        sim_report = RunReport.from_sim(sim)
        events = sim_report.leadership_events()
        assert events == sorted(events, key=lambda r: r.time)
