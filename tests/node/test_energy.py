"""Unit tests for the energy accounting extension."""

import pytest

from repro.node import EnergyMeter, Mote
from repro.node.energy import (CPU_POWER, IDLE_LISTEN_POWER, RX_POWER,
                               TX_POWER)
from repro.radio import BROADCAST, Frame, Medium
from repro.sim import Simulator


def build(n=2):
    sim = Simulator(seed=44)
    medium = Medium(sim, communication_radius=5.0)
    motes = [Mote(sim, i, (float(i), 0.0), medium) for i in range(n)]
    meter = EnergyMeter(sim)
    for mote in motes:
        meter.attach(mote)
    return sim, medium, motes, meter


def test_transmit_energy_charged():
    sim, medium, (a, b), meter = build()
    frame = Frame(src=0, dst=BROADCAST, kind="x")
    a.send(frame)
    sim.run(until=1.0)
    airtime = medium.airtime(frame)
    assert meter.ledgers[0].tx_joules == pytest.approx(airtime * TX_POWER)
    # The receiver was charged rx energy.
    assert meter.ledgers[1].rx_joules == pytest.approx(airtime * RX_POWER)


def test_cpu_energy_tracks_busy_time():
    sim, _, (a, _), meter = build()
    a.cpu.post(lambda: None, cost=0.5)
    sim.run(until=1.0)
    # 0.5s CPU busy plus the tx/rx costs of nothing.
    assert meter.ledgers[0].cpu_joules == pytest.approx(
        0.5 * CPU_POWER, rel=0.05)


def test_idle_listening_dominates_quiet_networks():
    sim, _, motes, meter = build()
    sim.schedule(100.0, lambda: None)
    sim.run()
    breakdown = meter.breakdown(sim.now)
    assert breakdown["idle"] > 100 * (breakdown["tx"] + breakdown["rx"]
                                      + breakdown["cpu"] + 1e-12)


def test_total_and_max_node():
    sim, _, (a, b), meter = build()
    a.send(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run(until=10.0)
    total = meter.total_joules(sim.now)
    assert total > 0
    assert meter.max_node_joules(sim.now) <= total
    assert meter.active_joules(sim.now) < total


def test_duplicate_attach_rejected():
    sim, _, (a, _), meter = build()
    with pytest.raises(ValueError):
        meter.attach(a)


def test_drain_validates_and_charges():
    sim, _, _, meter = build()
    meter.drain(1, 0.25)
    meter.drain(1, 0.5)
    with pytest.raises(ValueError, match="drain"):
        meter.drain(1, -0.1)
    assert meter.ledgers[1].drain_joules == 0.75
    assert meter.ledgers[0].drain_joules == 0.0
    assert meter.breakdown(sim.now)["drain"] == 0.75


def test_custom_model():
    sim = Simulator()
    medium = Medium(sim, communication_radius=5.0)
    mote = Mote(sim, 0, (0.0, 0.0), medium)
    Mote(sim, 1, (1.0, 0.0), medium)
    meter = EnergyMeter(sim)
    meter.attach(mote)
    frame = Frame(src=0, dst=BROADCAST, kind="x")
    mote.send(frame)
    sim.run(until=1.0)
    # The MICA powers: only the metered mote is charged, its airtime at
    # the transmit power and its second of listening at the idle power.
    (ledger,) = meter.ledgers.values()
    assert ledger.tx_joules == pytest.approx(medium.airtime(frame) * TX_POWER)
    assert ledger.idle_joules(sim.now) == IDLE_LISTEN_POWER


def test_energy_scales_with_heartbeat_rate():
    """Protocol-level sanity: a faster heartbeat burns more radio energy
    (the trade-off Figure 5 implies)."""
    from repro.experiments.scenarios import TankScenario, build_app

    def radio_energy(heartbeat_period):
        scenario = TankScenario(columns=8, rows=2, seed=3,
                                heartbeat_period=heartbeat_period,
                                with_base_station=False)
        app = build_app(scenario)
        app.install()
        meter = EnergyMeter(app.sim)
        for mote in app.field.mote_list():
            meter.attach(mote)
        app.run(until=60.0)
        return meter.active_joules(app.sim.now)

    assert radio_energy(0.125) > radio_energy(1.0)
