"""The Prometheus export, pinned, and the same from a saved trace.

Each scenario's live export (``RunReport.derived_registry()``) must
equal a file under ``tests/golden/exports`` byte for byte.  A dumped
and reloaded trace must export every family tallied by trace records
exactly as the live run does.

To re-record the files after an intended change, run this module as a
script: ``PYTHONPATH=src python tests/telemetry/test_export_golden.py``.
It prints a unified diff of every file it rewrites, so the diff shows
each line the change moved and nothing else.
"""

from __future__ import annotations

import difflib
import importlib
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments import TankScenario, TransportChaosSpec, \
    run_tank_scenario
from repro.sim import dump_trace
from repro.telemetry.report import (LEADERSHIP_FAMILIES,
                                    SAVED_TRACE_FAMILIES, RunReport)

chaos = importlib.import_module("repro.experiments.chaos")
transport_chaos = importlib.import_module("repro.experiments.transport_chaos")

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXPORTS = os.path.join(ROOT, "tests", "golden", "exports")


def captured_sim(module, run):
    """Run ``run()`` and return the simulator ``module`` built."""
    made = {}
    original = module.Simulator

    class Sim(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["sim"] = self

    module.Simulator = Sim
    try:
        run()
    finally:
        module.Simulator = original
    return made["sim"]


def tank_directory_mtp():
    scenario = TankScenario(columns=6, rows=2, seed=11,
                            enable_transport=True)
    return run_tank_scenario(scenario).app.sim


def chaos_line():
    return captured_sim(
        chaos, lambda: chaos._chaos_run(3, 0.25, 2.0, 1, 0.05, 8, 3))


def transport_chaos_reliable():
    return captured_sim(
        transport_chaos, lambda: transport_chaos._transport_run(
            TransportChaosSpec(mode="reliable", seed=5, crashes=1)))


def export(report: RunReport) -> str:
    return report.derived_registry().render_prometheus()


def families(text: str) -> dict:
    """Each family's export lines, keyed by family name."""
    out: dict = {}
    for line in text.splitlines():
        if line.startswith("# "):
            name = line.split()[2]
        else:
            name = line.split("{")[0].split()[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in out:
                    name = name[:-len(suffix)]
        out.setdefault(name, []).append(line)
    return out


def report_quick(tmp_dir):
    """``python -m repro report --quick --prom``'s export, as text."""
    path = os.path.join(tmp_dir, "quick.prom")
    assert cli_main(["report", "--quick", "--prom", path],
                    out=lambda line: None) == 0
    with open(path, encoding="utf-8") as handle:
        return handle.read()


SCENARIOS = {
    "tank-directory-mtp-seed11": tank_directory_mtp,
    "chaos-line-seed3": chaos_line,
    "transport-chaos-reliable-seed5": transport_chaos_reliable,
}


def golden_path(name: str) -> str:
    return os.path.join(EXPORTS, f"{name}.prom")


def golden(name: str) -> str:
    with open(golden_path(name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_live_export_matches_golden(name):
    assert export(RunReport.from_sim(SCENARIOS[name]())) == golden(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_saved_trace_exports_the_live_record_families(name, tmp_path):
    sim = SCENARIOS[name]()
    path = str(tmp_path / "run.jsonl")
    dump_trace(sim, path)
    live = families(export(RunReport.from_sim(sim)))
    saved = families(export(RunReport.from_trace_file(path)))
    assert sorted(saved) == sorted(
        family[1] for family in SAVED_TRACE_FAMILIES + LEADERSHIP_FAMILIES)
    shared = [family for family in saved if family in live]
    assert {"repro_trace_records_total", "repro_radio_frames_sent_total",
            "repro_radio_frames_lost_total",
            "repro_gm_leader_tenure_seconds"} <= set(shared)
    for family in shared:
        assert saved[family] == live[family], family


def test_report_quick_export_matches_golden(tmp_path):
    assert report_quick(str(tmp_path)) == golden("report-quick")


if __name__ == "__main__":
    import sys
    import tempfile

    os.makedirs(EXPORTS, exist_ok=True)
    exports = {name: export(RunReport.from_sim(build()))
               for name, build in SCENARIOS.items()}
    with tempfile.TemporaryDirectory() as scratch:
        exports["report-quick"] = report_quick(scratch)
    for name, text in exports.items():
        path = golden_path(name)
        old = golden(name) if os.path.exists(path) else ""
        if text == old:
            print(f"unchanged {name}.prom")
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {name}.prom ({len(text.splitlines())} lines)")
        relative = os.path.relpath(path, ROOT)
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), text.splitlines(keepends=True),
            f"a/{relative}", f"b/{relative}"))
