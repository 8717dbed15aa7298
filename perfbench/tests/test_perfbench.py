"""Self-tests of the benchmark, on reduced (``size="small"``) inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from repro import Mote, Simulator  # noqa: E402
from repro.core import ReportRecord  # noqa: E402

import run as run_cli  # noqa: E402
from etbench import calibrate, harness, workloads  # noqa: E402
from etbench.tracing import LayerTracer  # noqa: E402

WORKLOADS = ("border-strip", "transport-storm", "seed-sweep")

#: The workload-specific end-to-end metrics each report must name.
REPORTED = {
    "border-strip": ("error_rate", "report_latency_p50_s",
                     "report_latency_p90_s", "label_integrity",
                     "track_error"),
    "transport-storm": ("error_rate", "invoke_latency_p50_s",
                        "invoke_latency_p90_s"),
    "seed-sweep": ("runs_per_s", "task_s_p50", "task_s_p90", "error_rate"),
}


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


class NominalHost:
    """Calibration stand-in: the host always runs at reference speed."""

    pool_mb = 0.0

    @staticmethod
    def measure() -> float:
        return calibrate.REFERENCE_S


def small(name: str, seed: int = 3) -> workloads.Workload:
    return harness.make_workload(name, seed, size="small")


# ----------------------------------------------------------------------
# Output contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", name, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
        assert not isinstance(entry["value"], bool)
    if not trace:
        body = "\n".join(lines[:-1])
        for metric in ("setup_s", "run_s", "peak_rss_mb") + REPORTED[name]:
            unit = harness.END_TO_END[metric][0]
            assert any(line.split()[:1] == [metric] and f" {unit} (" in line
                       for line in body.splitlines()), metric


def test_percentiles_need_ten_samples_beyond():
    assert workloads.percentile(list(range(99)), 0.9) is None
    assert workloads.percentile(list(range(100)), 0.9) == 89


# ----------------------------------------------------------------------
# Determinism and tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["border-strip", "transport-storm"])
def test_same_seed_gives_same_digest_and_sim_metrics(name):
    first, second = small(name).unit(), small(name).unit()
    assert first.identity == second.identity
    assert first.sim == second.sim
    assert small(name, seed=4).unit().identity != first.identity


def test_seed_sweep_repeats_and_matches_a_serial_run():
    first, second = small("seed-sweep"), small("seed-sweep")
    assert first.unit().identity == second.unit().identity
    assert first.verify() == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_keeps_the_untraced_digest(name):
    report, result = harness.measure_traced(small(name), NominalHost())
    assert report["failures"] == []
    assert report["traced_identity"] == report["identity"]
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert result["metrics"]["sim.events"]["value"] > 0


def test_tracer_restores_every_function_after_an_exception():
    before = {name: Mote.__dict__[name]
              for name in ("register_handler", "periodic", "read_sensor")}
    run_before = Simulator.__dict__["run"]
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert Mote.__dict__["periodic"] is not before["periodic"]
            raise RuntimeError("boom")
    assert {name: Mote.__dict__[name] for name in before} == before
    assert Simulator.__dict__["run"] is run_before


def test_self_time_excludes_wrapped_children():
    tracer = LayerTracer()
    inner = tracer.timed(lambda: sum(range(20000)), "inner")
    outer = tracer.timed(lambda: inner(), "outer")
    outer()
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"))
    assert list(tracer.span_parent) == [-1, 0]


# ----------------------------------------------------------------------
# Each correctness check fails on a broken input
# ----------------------------------------------------------------------
class _Agent:
    def __init__(self, delivered):
        self.delivered = delivered
        self.retransmitted = self.dead_lettered = 0


def _storm_state(sent, delivered, deliveries, agent_deliveries=None):
    agents = {0: _Agent(deliveries if agent_deliveries is None
                        else agent_deliveries)}
    return {"sent": sent, "delivered": delivered, "deliveries": deliveries,
            "agents": agents}


def test_transport_check_catches_a_delivery_counted_twice():
    storm = small("transport-storm")
    sent = {(0, 1): 1.0, (0, 2): 1.5}
    ok, failures = storm._analyse(_storm_state(sent, {(0, 1): 2.0}, 1))
    assert failures == [] and ok["error_rate"] == 0.5
    _, failures = storm._analyse(
        _storm_state(sent, {(0, 1): 2.0}, 2, agent_deliveries=1))
    assert any("tally disagrees" in f for f in failures)
    # The system running a handler twice is reported, not a tally error.
    repeated, failures = storm._analyse(_storm_state(sent, {(0, 1): 2.0}, 2))
    assert failures == [] and repeated["duplicates"] == 1


def test_transport_check_catches_unsent_and_early_deliveries():
    storm = small("transport-storm")
    _, failures = storm._analyse(
        _storm_state({(0, 1): 1.0}, {(0, 9): 2.0}, 1))
    assert any("nobody sent" in f for f in failures)
    _, failures = storm._analyse(
        _storm_state({(0, 1): 3.0}, {(0, 1): 2.0}, 1))
    assert any("before it was sent" in f for f in failures)


def test_border_strip_checks_catch_duplicate_and_phantom_reports():
    strip = small("border-strip")
    app, attempts = strip.build()
    app.run(until=strip.duration)
    _, failures = strip._analyse(app, attempts)
    assert failures == []
    reports = app.base_station.reports
    assert reports
    reports.append(reports[0])
    _, failures = strip._analyse(app, attempts)
    assert any("twice" in f for f in failures)
    reports.pop()
    reports.append(ReportRecord(received_at=1.0, reported_at=0.5,
                                label="tracker#999.1",
                                context_type="tracker", reporter=999,
                                values={}))
    _, failures = strip._analyse(app, attempts)
    assert any("no leader sent" in f for f in failures)


def test_sweep_check_catches_reordered_and_untracked_runs():
    sweep = small("seed-sweep")
    specs = sweep.scenarios(0)
    outcomes = [workloads.timed_task(spec, traced=False) for spec in specs]
    assert workloads.check_sweep(specs, outcomes) == ([], 0)
    failures, _ = workloads.check_sweep(specs, outcomes[::-1])
    assert any("out of order" in f for f in failures)
    broken = outcomes[0].__class__(**{**outcomes[0].__dict__,
                                      "labels_created": 0})
    failures, failed = workloads.check_sweep(specs, [broken] + outcomes[1:])
    assert failed == 1 and failures


def test_units_that_disagree_fail_the_run():
    unit = small("transport-storm").unit()
    other = workloads.Unit(setup_s=0.0, run_s=0.0,
                           identity={**unit.identity, "trace_digest": "x"},
                           sim=unit.sim, failures=[])
    assert harness._consistency([unit, other], small("transport-storm"))


def test_a_failed_check_makes_the_benchmark_exit_non_zero(monkeypatch,
                                                          capsys):
    original = workloads.TransportStorm._analyse

    def broken(self, state):
        sim_metrics, failures = original(self, state)
        return sim_metrics, failures + ["injected failure"]

    monkeypatch.setattr(workloads.TransportStorm, "_analyse", broken)
    code = run_cli.main(["--workload", "transport-storm", "--seed", "2",
                         "--seconds", "0", "--size", "small"])
    assert code != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "correct"] is False
