"""Unit tests for the MAC layer.

A frame that occupies the channel is put on the air with
``medium.transmit`` directly, with no MAC in between.
"""

import repro.radio.mac as mac_module
from repro.radio import BROADCAST, CsmaMac, Frame, Medium, TransceiverPort
from repro.sim import Simulator


def build(radius=5.0):
    sim = Simulator(seed=3)
    medium = Medium(sim, communication_radius=radius)
    inbox = []
    for node_id, pos in [(0, (0.0, 0.0)), (1, (1.0, 0.0))]:
        port = TransceiverPort(
            node_id, pos,
            lambda frame, n=node_id: inbox.append((n, frame.kind)))
        medium.attach(port)
    return sim, medium, inbox


def sent_by(sim, node_id):
    """Frames ``node_id`` put on the air, from the trace."""
    return len(list(sim.trace_records("radio.tx", node=node_id)))


def test_csma_defers_while_channel_busy():
    sim, medium, inbox = build()
    csma = CsmaMac(sim, medium, (1.0, 0.0))
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="long"))
    csma.send(Frame(src=1, dst=BROADCAST, kind="deferred"))
    sim.run()
    # Both frames delivered; the CSMA one was deferred, not collided.
    kinds = sorted(kind for _, kind in inbox)
    assert kinds == ["deferred", "long"]
    assert medium.stats.receptions_dropped["collision"] == 0


def test_csma_drops_after_max_attempts(monkeypatch):
    monkeypatch.setattr(mac_module, "MAX_ATTEMPTS", 3)
    monkeypatch.setattr(mac_module, "BACKOFF", (0.01, 0.02))
    sim, medium, _ = build()
    # Keep the channel busy with back-to-back long transmissions.
    def keep_busy():
        medium.transmit(Frame(src=0, dst=BROADCAST, kind="noise",
                              size_bits=50_000))  # 1s airtime
        sim.schedule(0.9, keep_busy)

    keep_busy()
    csma = CsmaMac(sim, medium, (1.0, 0.0))
    csma.send(Frame(src=1, dst=BROADCAST, kind="victim"))
    sim.run(until=5.0)
    (drop,) = sim.trace_records("mac.drop")
    assert drop.detail == {"kind": "victim", "cause": "max_attempts"}
    assert sent_by(sim, 1) == 0


def test_csma_queues_behind_inflight_frame():
    # The first frame goes out immediately (idle channel); later frames
    # queue behind the busy-channel backoff and all get delivered.
    sim, medium, inbox = build()
    csma = CsmaMac(sim, medium, (0.0, 0.0))
    for i in range(3):
        csma.send(Frame(src=0, dst=BROADCAST, kind=f"k{i}"))
    assert csma.backlog >= 1
    sim.run()
    assert sorted(kind for _, kind in inbox) == ["k0", "k1", "k2"]
    assert sent_by(sim, 0) == 3


def test_csma_queue_overflow_drops(monkeypatch):
    monkeypatch.setattr(mac_module, "QUEUE_LIMIT", 2)
    sim, medium, _ = build()
    csma = CsmaMac(sim, medium, (0.0, 0.0))
    for i in range(6):
        csma.send(Frame(src=0, dst=BROADCAST, kind=f"k{i}"))
    # First transmitted immediately; second backing off; two queued; the
    # rest dropped on overflow.
    assert [drop.detail["cause"] for drop in sim.trace_records("mac.drop")] \
        == ["queue_overflow", "queue_overflow"]
    sim.run()


def test_shutdown_cancels_inflight_backoff():
    # A frame stuck in backoff behind a busy channel must die with the
    # node: after shutdown() the pending mac.backoff timer is cancelled
    # and nothing transmits, even once the channel clears.
    sim, medium, inbox = build()
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="long",
                          size_bits=50_000))  # 1s airtime
    csma = CsmaMac(sim, medium, (1.0, 0.0))
    csma.send(Frame(src=1, dst=BROADCAST, kind="zombie"))
    csma.send(Frame(src=1, dst=BROADCAST, kind="queued"))
    assert csma.backlog == 1
    sim.schedule(0.001, csma.shutdown)
    sim.run()
    assert sent_by(sim, 1) == 0
    assert csma.backlog == 0
    assert not csma._busy
    assert all(kind == "long" for _, kind in inbox)


def test_shutdown_cancels_turnaround_and_clears_state():
    # Shut down between a transmit and the queued frame's turnaround
    # (mac.next): the queued frame must never hit the air, and the MAC
    # must come back idle (a rebooted mote reuses the same object).
    sim, medium, inbox = build()
    csma = CsmaMac(sim, medium, (0.0, 0.0))
    csma.send(Frame(src=0, dst=BROADCAST, kind="first"))
    csma.send(Frame(src=0, dst=BROADCAST, kind="stale"))
    csma.shutdown()  # first already transmitted; "stale" is in turnaround
    sim.run()
    assert sorted(kind for _, kind in inbox) == ["first"]
    # Clean restart: the same MAC accepts and transmits new traffic.
    csma.send(Frame(src=0, dst=BROADCAST, kind="fresh"))
    sim.run()
    assert "fresh" in [kind for _, kind in inbox]


def test_shutdown_is_idempotent():
    sim, medium, _ = build()
    csma = CsmaMac(sim, medium, (0.0, 0.0))
    csma.shutdown()
    csma.shutdown()
    assert csma.backlog == 0 and not csma._busy
