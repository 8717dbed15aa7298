"""Tests for --trace-out plumbing and the report CLI."""

import xml.dom.minidom

from repro.cli import main
from repro.experiments import TankScenario, run_tank_scenario
from repro.sim import load_trace, trace_digest


class TestDumpScenarioTrace:
    def test_dump_matches_a_direct_run(self, tmp_path):
        scenario = TankScenario(columns=6, rows=2, seed=11)
        path = tmp_path / "scenario.jsonl"
        run = run_tank_scenario(scenario, str(path))
        dumped = load_trace(str(path))
        assert len(dumped) > 0
        assert trace_digest(dumped) == trace_digest(run.app.sim)
        rerun = run_tank_scenario(scenario).app.sim
        assert trace_digest(dumped) == trace_digest(rerun)


class TestCliTraceOut:
    def test_figure3_writes_trace(self, tmp_path):
        trace_path = tmp_path / "figure3.jsonl"
        lines = []
        assert main(["figure3", "--trace-out", str(trace_path)],
                    out=lines.append) == 0
        assert trace_path.exists()
        assert load_trace(str(trace_path))
        assert any("wrote trace" in line for line in lines)

    def test_table1_quick_writes_trace(self, tmp_path):
        trace_path = tmp_path / "table1.jsonl"
        assert main(["table1", "--quick", "--trace-out",
                     str(trace_path)], out=lambda _: None) == 0
        assert load_trace(str(trace_path))

    def test_report_from_saved_trace(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        scenario = TankScenario(columns=6, rows=2, seed=11)
        run_tank_scenario(scenario, str(trace_path))
        svg_path = tmp_path / "dash.svg"
        prom_path = tmp_path / "metrics.prom"
        lines = []
        assert main(["report", str(trace_path), "--svg", str(svg_path),
                     "--prom", str(prom_path)], out=lines.append) == 0
        xml.dom.minidom.parse(str(svg_path))
        assert "repro_trace_records_total" in prom_path.read_text()
        assert any("gm" in line for line in lines)

    def test_report_missing_file_exits_2(self):
        assert main(["report", "/nonexistent/trace.jsonl"],
                    out=lambda _: None) == 2

    def test_report_live_quick_run(self, tmp_path):
        trace_path = tmp_path / "live.jsonl"
        lines = []
        assert main(["report", "--quick", "--trace-out",
                     str(trace_path)], out=lines.append) == 0
        assert load_trace(str(trace_path))
        output = "\n".join(lines)
        assert "handler" in output  # live runs profile the event loop
