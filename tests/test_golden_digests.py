"""Golden identity table: (scenario family, seed) → (digest, events, frames).

Each row pins one deterministic run's ``trace_digest``, dispatched event
count and ``frames_sent``.  Any change to simulated behaviour — event
order, RNG draws, frames on the air — changes at least one of them, so it
must edit ``tests/golden/digests.json`` visibly in its diff.  A pure
speed-up or refactor leaves the table alone.

On a mismatch the failure message prints the freshly measured row as
JSON; when the behaviour change is intended, paste it into the table.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import replace

import pytest

from repro.experiments import TankScenario, TransportChaosSpec, \
    run_tank_scenario
from repro.sim import trace_digest

# ``repro.experiments`` re-exports functions named ``chaos`` and
# ``transport_chaos``, which shadow the submodules for a plain import.
chaos = importlib.import_module("repro.experiments.chaos")
transport_chaos = importlib.import_module("repro.experiments.transport_chaos")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "golden", "digests.json")

QUICK = TankScenario(columns=6, rows=2, seed=11)


def identity(sim, field) -> dict:
    return {"trace_digest": trace_digest(sim),
            "events": sim.events_fired,
            "frames_sent": field.medium.stats.frames_sent}


def tank(**overrides) -> dict:
    app = run_tank_scenario(replace(QUICK, **overrides)).app
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


ROWS = {
    "tank/plain/seed=11": lambda mp: tank(),
    "tank/directory+mtp/seed=11":
        lambda mp: tank(enable_directory=True, enable_mtp=True),
    "tank/leader-kill/seed=11": lambda mp: tank(leader_kill_times=(1.0,)),
    "chaos/line/seed=3": lambda mp: captured(
        mp, chaos, lambda: chaos._chaos_run(3, 0.25, 2.0, 1, 0.05, 8, 3)),
    "transport-chaos/reliable/seed=5": lambda mp: captured(
        mp, transport_chaos, lambda: transport_chaos._transport_run(
            TransportChaosSpec(mode="reliable", seed=5, crashes=1))),
    "transport-chaos/raw/seed=5": lambda mp: captured(
        mp, transport_chaos, lambda: transport_chaos._transport_run(
            TransportChaosSpec(mode="raw", seed=5, crashes=1))),
    "perfbench/border-strip/small/seed=1":
        lambda mp: perfbench("border-strip"),
    "perfbench/transport-storm/small/seed=1":
        lambda mp: perfbench("transport-storm"),
}


def load_table() -> dict:
    with open(TABLE, encoding="utf-8") as f:
        return json.load(f)


def test_table_has_exactly_the_measured_rows():
    assert sorted(load_table()) == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_run_matches_golden_row(name, monkeypatch):
    measured = ROWS[name](monkeypatch)
    expected = load_table().get(name)
    if measured != expected:
        pytest.fail("behaviour changed; if intended, replace the row in "
                    f"tests/golden/digests.json with:\n"
                    f"{json.dumps({name: measured}, indent=2)}")
