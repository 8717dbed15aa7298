"""Unit tests for the mote runtime."""

import pytest

import repro.radio.mac as mac_module
from repro.node import Mote
from repro.radio import BROADCAST, Frame, Medium
from repro.sim import Simulator


def build(n=2, spacing=1.0, radius=5.0):
    sim = Simulator(seed=6)
    medium = Medium(sim, communication_radius=radius)
    motes = [Mote(sim, i, (i * spacing, 0.0), medium) for i in range(n)]
    return sim, medium, motes


def test_send_and_dispatch_by_kind():
    sim, _, (a, b) = build()
    got = []
    b.register_handler("ping", lambda frame: got.append(frame.payload))
    b.register_handler("other", lambda frame: got.append("wrong"))
    a.send(Frame(src=0, dst=BROADCAST, kind="ping", payload={"n": 1}))
    sim.run(until=1.0)
    assert got == [{"n": 1}]


def test_send_stamps_frame_ids_per_simulator():
    # Each simulator numbers its own frames from 1, so a run's ids do not
    # depend on what ran before it in the process.
    for _ in range(2):
        sim, _, (a, _b) = build()
        frames = [Frame(src=0, dst=BROADCAST, kind="m") for _ in range(3)]
        assert [frame.frame_id for frame in frames] == [0, 0, 0]
        for frame in frames:
            a.send(frame)
        assert [frame.frame_id for frame in frames] == [1, 2, 3]


def test_unicast_address_filter():
    sim, _, motes = build(n=3)
    got = []
    for mote in motes[1:]:
        mote.register_handler(
            "m", lambda frame, m=mote: got.append(m.node_id))
    motes[0].send(Frame(src=0, dst=2, kind="m"))
    sim.run(until=1.0)
    assert got == [2]  # mote 1 heard it physically but filtered it


def test_multiple_handlers_all_invoked():
    sim, _, (a, b) = build()
    got = []
    b.register_handler("m", lambda f: got.append("first"))
    b.register_handler("m", lambda f: got.append("second"))
    a.send(Frame(src=0, dst=BROADCAST, kind="m"))
    sim.run(until=1.0)
    assert got == ["first", "second"]


def test_rx_goes_through_cpu():
    """Receptions cost CPU time: a backlogged mote delays dispatch."""
    sim, _, (a, b) = build()
    b.cpu.task_cost = 0.05
    times = []
    b.register_handler("m", lambda f: times.append(sim.now))
    for _ in range(3):
        b.cpu.post(lambda: None, cost=0.2)  # busy work
    a.send(Frame(src=0, dst=BROADCAST, kind="m"))
    sim.run(until=5.0)
    assert times[0] > 0.6  # waited behind 0.6s of queued work


def test_sensor_installation_and_read():
    _, _, (a, _) = build()
    a.install_sensor("temperature", lambda: 42.0)
    assert a.read_sensor("temperature") == 42.0
    assert a.has_sensor("temperature")
    assert not a.has_sensor("light")
    assert "temperature" in a.sensor_names()
    with pytest.raises(KeyError):
        a.read_sensor("light")


def test_failed_mote_is_silent():
    sim, medium, (a, b) = build()
    got = []
    b.register_handler("m", lambda f: got.append(1))
    a.fail()
    a.send(Frame(src=0, dst=BROADCAST, kind="m"))
    sim.run(until=1.0)
    assert got == []
    assert not a.alive


def test_failed_mote_receives_nothing():
    sim, _, (a, b) = build()
    got = []
    b.register_handler("m", lambda f: got.append(1))
    b.fail()
    a.send(Frame(src=0, dst=BROADCAST, kind="m"))
    sim.run(until=1.0)
    assert got == []


def test_failure_stops_timers():
    sim, _, (a, _) = build()
    fired = []
    timer = a.periodic(0.5, lambda: fired.append(sim.now))
    timer.start()
    sim.run(until=1.2)
    assert len(fired) == 2
    a.fail()
    sim.run(until=5.0)
    assert len(fired) == 2


def test_failure_aborts_mac_backoff(monkeypatch):
    # Crash the mote while its CSMA MAC is backing off behind a busy
    # channel: the queued frame must never reach the air — before the
    # fix the mac.backoff event outlived the node and transmitted.
    sim, medium, (a, b) = build()
    got = []
    b.register_handler("zombie", lambda f: got.append(f.kind))
    # Slow, persistent backoff so the retries outlast the noise frame
    # (the default window gives up long before 1s of airtime clears).
    monkeypatch.setattr(mac_module, "BACKOFF", (0.05, 0.1))
    monkeypatch.setattr(mac_module, "MAX_ATTEMPTS", 100)
    # Occupy the channel so a's send enters backoff instead of going out.
    medium.transmit(Frame(src=1, dst=BROADCAST, kind="noise",
                          size_bits=50_000))  # 1s airtime
    a.send(Frame(src=0, dst=BROADCAST, kind="zombie"))
    sim.run(until=0.01)  # CPU task ran; frame now sits in MAC backoff
    assert a.mac.backlog == 0 and a.mac._busy
    a.fail()
    sim.run(until=5.0)
    assert got == []
    tx_nodes = [r.node for r in sim.trace_records("radio.tx")]
    assert 0 not in tx_nodes


def test_recover_restores_radio():
    sim, _, (a, b) = build()
    got = []
    b.register_handler("m", lambda f: got.append(1))
    b.fail()
    b.reboot()
    a.send(Frame(src=0, dst=BROADCAST, kind="m"))
    sim.run(until=1.0)
    assert got == [1]


def test_timer_handlers_run_on_cpu():
    sim, _, (a, _) = build()
    a.cpu.task_cost = 0.1
    fired = []
    timer = a.periodic(1.0, lambda: fired.append(sim.now))
    timer.start()
    sim.run(until=1.5)
    # Fire at t=1.0 plus 0.1 CPU service.
    assert fired[0] == pytest.approx(1.1)


def test_a_restart_after_a_clock_skew_waits_the_skewed_delay():
    # A periodic timer's start delay is in the mote's own seconds: a
    # timer built before a skew and started after it waits the skewed
    # delay, whether the delay is given at construction or to start().
    sim, _, (a, _) = build()
    fired = {"given": [], "passed": []}
    given = a.periodic(1.0, lambda: fired["given"].append(sim.now),
                       initial_delay=0.25)
    passed = a.periodic(1.0, lambda: fired["passed"].append(sim.now))
    a.skew_clock(2.0)
    given.start()
    passed.start(0.25)
    sim.run(until=3.0)
    for times in fired.values():
        assert times == pytest.approx([0.5, 2.5], abs=0.01)


def test_oneshot_helper():
    sim, _, (a, _) = build()
    fired = []
    timer = a.oneshot(lambda: fired.append(sim.now))
    timer.start(0.7)
    sim.run(until=2.0)
    assert len(fired) == 1


def test_watchdog_helper():
    sim, _, (a, _) = build()
    fired = []
    dog = a.watchdog(1.0, lambda: fired.append(sim.now))
    dog.kick()
    sim.schedule(0.8, dog.kick)
    sim.run(until=5.0)
    assert fired[0] == pytest.approx(1.8, abs=0.02)

