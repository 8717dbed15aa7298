"""The Prometheus export, pinned, and the same from a saved trace.

Each scenario's live export (``RunReport.derived_registry()``) is
compared line by line with a file under ``tests/golden/exports``.  The
one permitted difference is float rounding in the airtime total, which
is computed as ``bits / bitrate``.  A dumped and reloaded trace must
export every family tallied by trace records exactly as the live run
does.

To re-record a file after an intended change, run this module as a
script: ``PYTHONPATH=src python tests/telemetry/test_export_golden.py``.
"""

from __future__ import annotations

import importlib
import math
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

#: Series whose value is a float sum; they may differ by rounding.
ROUNDED = ("repro_radio_airtime_seconds_total",)


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
                            enable_directory=True, enable_mtp=True)
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


def golden(name: str) -> str:
    with open(os.path.join(EXPORTS, f"{name}.prom"),
              encoding="utf-8") as handle:
        return handle.read()


def assert_same_export(live: str, expected: str) -> None:
    live_lines, expected_lines = live.splitlines(), expected.splitlines()
    assert len(live_lines) == len(expected_lines)
    for got, want in zip(live_lines, expected_lines):
        if got == want:
            continue
        assert got.startswith(ROUNDED), (got, want)
        got_name, got_value = got.rsplit(" ", 1)
        want_name, want_value = want.rsplit(" ", 1)
        assert got_name == want_name
        assert math.isclose(float(got_value), float(want_value),
                            rel_tol=1e-12), (got, want)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_live_export_matches_golden(name):
    assert_same_export(export(RunReport.from_sim(SCENARIOS[name]())),
                       golden(name))


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
    assert_same_export(report_quick(str(tmp_path)), golden("report-quick"))


def test_rounding_tolerance_covers_only_the_airtime_total():
    with pytest.raises(AssertionError):
        assert_same_export("repro_radio_bits_sent_total 2\n",
                           "repro_radio_bits_sent_total 3\n")
    assert_same_export("repro_radio_airtime_seconds_total 3.80736\n",
                       "repro_radio_airtime_seconds_total "
                       "3.807359999999992\n")


if __name__ == "__main__":
    import tempfile

    os.makedirs(EXPORTS, exist_ok=True)
    exports = {name: export(RunReport.from_sim(build()))
               for name, build in SCENARIOS.items()}
    with tempfile.TemporaryDirectory() as scratch:
        exports["report-quick"] = report_quick(scratch)
    for name, text in exports.items():
        with open(os.path.join(EXPORTS, f"{name}.prom"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {name}.prom ({len(text.splitlines())} lines)")
