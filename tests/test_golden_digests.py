"""Golden identity table: (scenario family, seed) → (digest, events, frames).

Each row pins one deterministic run's ``trace_digest``, dispatched event
count and ``frames_sent``.  Any change to simulated behaviour — event
order, RNG draws, frames on the air — changes at least one of them, so it
must edit ``tests/golden/digests.json`` visibly in its diff.  A pure
speed-up or refactor leaves the table alone.

On a mismatch the failure message prints the freshly measured row as
JSON; when the behaviour change is intended, paste it into the table.
It also prints how to name the first record where the run moved: dump
the row's trace in both checkouts with

    PYTHONPATH=src python tests/test_golden_digests.py ROW OUT.jsonl

and compare the two files with ``python -m repro trace-diff``.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import sys
from dataclasses import replace

import pytest

from repro.core import EnviroTrackApp
from repro.experiments import SPEED_33_KMH, TankScenario, \
    TransportChaosSpec, run_tank_scenario
from repro.sensing import LineTrajectory, StaticPoint, Target
from repro.sim import Simulator, dump_trace, trace_digest

# ``repro.experiments`` re-exports functions named ``chaos`` and
# ``transport_chaos``, which shadow the submodules for a plain import.
chaos = importlib.import_module("repro.experiments.chaos")
figures = importlib.import_module("repro.experiments.figures")
transport_chaos = importlib.import_module("repro.experiments.transport_chaos")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "golden", "digests.json")

QUICK = TankScenario(columns=6, rows=2, seed=11)


def identity(sim, field) -> dict:
    return {"trace_digest": trace_digest(sim),
            "events": sim.events_fired,
            "frames_sent": field.medium.stats.frames_sent}


def identity_of(scenario: TankScenario) -> dict:
    app = run_tank_scenario(scenario).app
    return identity(app.sim, app.field)


def tank(**overrides) -> dict:
    return identity_of(replace(QUICK, **overrides))


def probe(mode: str, speed: float, seed: int, **task) -> dict:
    """One Figure 5/6 speed-search probe on the §6.2 stress rig."""
    search = figures._SpeedSearchTask(mode=mode, speeds=(speed,),
                                      repetitions=1, seed_base=seed, **task)
    app = run_tank_scenario(
        figures._probe_scenario(search, speed, seed)).app
    return identity(app.sim, app.field)


def captured(monkeypatch, module, run) -> dict:
    """Run ``run()`` while recording the simulator and field that
    ``module`` builds, and return their identity."""
    made = {}

    class Sim(module.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["sim"] = self

    class Field(module.SensorField):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["field"] = self

    monkeypatch.setattr(module, "Simulator", Sim)
    monkeypatch.setattr(module, "SensorField", Field)
    run()
    return identity(made["sim"], made["field"])


def perfbench(name: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from etbench import harness
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    return dict(harness.make_workload(name, 1, size="small").unit().identity)


def intrusion_response() -> dict:
    """``examples/intrusion_response.py``'s two context types on an 8x4
    grid: the intruder's leader looks the gate up in the directory and
    invokes its MTP port, and both leaders refresh their directory
    entries on a timer."""
    path = os.path.join(ROOT, "examples", "intrusion_response.py")
    spec = importlib.util.spec_from_file_location("intrusion_response", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    app = EnviroTrackApp(seed=5, base_loss_rate=0.03)
    app.field.deploy_grid(8, 4)
    app.field.add_target(Target("gate-1", "gate", StaticPoint((6.0, 2.0)),
                                signature_radius=1.2))
    app.field.add_target(Target("walker", "intruder",
                                LineTrajectory((0.0, 1.5), speed=0.12),
                                signature_radius=1.0))
    app.field.install_detection_sensors("intruder_seen", kinds=["intruder"])
    app.field.install_detection_sensors("gate_beacon", kinds=["gate"])
    warnings = []
    app.add_context_type(example.make_intruder_context())
    app.add_context_type(example.make_gate_context(warnings))
    app.run(until=40.0)
    assert warnings, "no invocation reached the gate"
    return identity(app.sim, app.field)


ROWS = {
    "tank/plain/seed=11": lambda mp: tank(),
    "tank/directory+mtp/seed=11":
        lambda mp: tank(enable_transport=True),
    # The tank enters at t=5.0, so the kill must come later to hit a leader.
    "tank/leader-kill/seed=11": lambda mp: tank(leader_kill_times=(8.0,)),
    # Idle motes carry each heartbeat two hops past the group perimeter.
    "tank/flood-hops/seed=11": lambda mp: tank(flood_hops=2),
    # No relinquish: every handover is a receive-timer takeover.
    "tank/takeover-only/seed=11":
        lambda mp: tank(relinquish=False, leader_kill_times=(8.0,)),
    # Figure 4's first quick run: heartbeats within the sensing radius,
    # over the soft reception edge, without member rebroadcast.
    "figure4/within-radius/seed=3340": lambda mp: identity_of(
        TankScenario(columns=12, rows=3, speed=SPEED_33_KMH,
                     heartbeat_tx_range=1.0, member_rebroadcast=False,
                     soft_edge_start=0.5, soft_edge_loss=0.9,
                     base_loss_rate=0.03, with_base_station=False,
                     seed=3340)),
    "figure5/takeover-probe/seed=50": lambda mp: probe(
        "takeover", 0.5, 50, sensing_radius=1.0, heartbeat_period=0.25),
    "figure6/ratio-probe/seed=60": lambda mp: probe(
        "ratio", 0.5, 60, sensing_radius=1.5, communication_radius=1.5),
    "chaos/line/seed=3": lambda mp: captured(
        mp, chaos, lambda: chaos._chaos_run(chaos.ChaosRun(
            seed=3, heartbeat_period=0.25, crash_period=2.0, crashes=1,
            base_loss_rate=0.05, mote_count=8, sensing_count=3))),
    "transport-chaos/reliable/seed=5": lambda mp: captured(
        mp, transport_chaos, lambda: transport_chaos._transport_run(
            TransportChaosSpec(mode="reliable", seed=5, crashes=1))),
    "transport-chaos/raw/seed=5": lambda mp: captured(
        mp, transport_chaos, lambda: transport_chaos._transport_run(
            TransportChaosSpec(mode="raw", seed=5, crashes=1))),
    "intrusion-response/transport/seed=5": lambda mp: intrusion_response(),
    "perfbench/border-strip/small/seed=1":
        lambda mp: perfbench("border-strip"),
    "perfbench/transport-storm/small/seed=1":
        lambda mp: perfbench("transport-storm"),
}


def dump_row(name: str, out: str) -> dict:
    """Run row ``name``, write its trace (the last simulator the run
    built) to ``out`` as JSONL, and return the measured row."""
    made = {}
    init = Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        made["sim"] = sim

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "__init__", recording_init)
        measured = ROWS[name](mp)
    dump_trace(made["sim"], out)
    return measured


def load_table() -> dict:
    with open(TABLE, encoding="utf-8") as f:
        return json.load(f)


def test_table_has_exactly_the_measured_rows():
    assert sorted(load_table()) == sorted(ROWS)


def test_leader_kill_row_differs_from_plain_row():
    table = load_table()
    assert table["tank/leader-kill/seed=11"] != table["tank/plain/seed=11"]


def test_a_later_run_in_the_process_writes_the_same_trace():
    # Nothing carries over from one run to the next: frame ids are
    # numbered per simulator.
    assert intrusion_response() == intrusion_response()


@pytest.mark.parametrize("name", sorted(ROWS))
def test_run_matches_golden_row(name, monkeypatch):
    measured = ROWS[name](monkeypatch)
    expected = load_table().get(name)
    if measured != expected:
        pytest.fail("behaviour changed; if intended, replace the row in "
                    f"tests/golden/digests.json with:\n"
                    f"{json.dumps({name: measured}, indent=2)}\n"
                    "To name the first divergence, run in this checkout "
                    "and in the one the row was recorded in:\n"
                    f"  PYTHONPATH=src python tests/test_golden_digests.py "
                    f"'{name}' trace.jsonl\n"
                    "then: PYTHONPATH=src python -m repro trace-diff "
                    "old/trace.jsonl trace.jsonl")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ROWS:
        sys.exit("usage: python tests/test_golden_digests.py ROW OUT.jsonl\n"
                 "rows: " + ", ".join(sorted(ROWS)))
    print(json.dumps({sys.argv[1]: dump_row(sys.argv[1], sys.argv[2])},
                     indent=2))
