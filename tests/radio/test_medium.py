"""Unit tests for the broadcast medium: range, loss, collisions, stats."""

import pytest

from repro.radio import BROADCAST, Frame, Medium, TransceiverPort
from repro.sim import Simulator


def make_port(medium, node_id, pos, inbox):
    port = TransceiverPort(node_id, lambda: pos,
                           lambda frame: inbox.append((node_id, frame)))
    medium.attach(port)
    return port


def setup_medium(**kwargs):
    sim = Simulator(seed=1)
    medium = Medium(sim, communication_radius=kwargs.pop("radius", 2.0),
                    **kwargs)
    return sim, medium


def test_delivery_within_range_only():
    sim, medium = setup_medium(radius=2.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    make_port(medium, 2, (5.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert [node for node, _ in inbox] == [1]


def test_sender_does_not_hear_itself():
    sim, medium = setup_medium()
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert inbox == []


def test_delivery_delayed_by_airtime():
    sim, medium = setup_medium(bitrate=1000.0)  # 288ms for 36B frame
    times = []
    make_port(medium, 0, (0.0, 0.0), [])
    port = TransceiverPort(1, lambda: (1.0, 0.0),
                           lambda frame: times.append(sim.now))
    medium.attach(port)
    frame = Frame(src=0, dst=BROADCAST, kind="x")
    medium.transmit(frame)
    sim.run()
    assert times == [pytest.approx(frame.size_bits / 1000.0)]


def test_unknown_source_rejected():
    _, medium = setup_medium()
    with pytest.raises(KeyError):
        medium.transmit(Frame(src=99, dst=BROADCAST, kind="x"))


def test_duplicate_attach_rejected():
    _, medium = setup_medium()
    make_port(medium, 0, (0.0, 0.0), [])
    with pytest.raises(ValueError):
        make_port(medium, 0, (1.0, 0.0), [])


def test_base_loss_drops_some_receptions():
    sim, medium = setup_medium(radius=10.0, base_loss_rate=0.5)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    for _ in range(200):
        medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
        sim.run()
    # Bernoulli(0.5) over 200 sends: between 60 and 140 with huge margin.
    assert 60 <= len(inbox) <= 140


def test_overlapping_transmissions_collide():
    sim, medium = setup_medium(radius=10.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (2.0, 0.0), inbox)
    make_port(medium, 2, (1.0, 0.0), inbox)  # hears both
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    medium.transmit(Frame(src=1, dst=BROADCAST, kind="y"))
    sim.run()
    assert inbox == []  # both frames corrupted everywhere
    assert medium.stats.receptions_dropped["collision"] > 0
    assert medium.stats.frames_lost == 2


def test_non_overlapping_transmissions_do_not_collide():
    sim, medium = setup_medium(radius=10.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (2.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()  # completes first transmission
    medium.transmit(Frame(src=1, dst=BROADCAST, kind="y"))
    sim.run()
    assert len(inbox) == 2


def test_collision_requires_interference_range():
    # Two transmitters far apart; the receiver only hears one of them.
    sim, medium = setup_medium(radius=3.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (100.0, 0.0), inbox)
    make_port(medium, 2, (1.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    medium.transmit(Frame(src=1, dst=BROADCAST, kind="y"))
    sim.run()
    assert [(n, f.kind) for n, f in inbox] == [(2, "x")]


def test_tx_range_limits_reach():
    sim, medium = setup_medium(radius=5.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    make_port(medium, 2, (3.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x", tx_range=2.0))
    sim.run()
    assert [node for node, _ in inbox] == [1]


def test_channel_busy_during_airtime():
    sim, medium = setup_medium(radius=5.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    assert not medium.channel_busy((1.0, 0.0))
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    assert medium.channel_busy((1.0, 0.0))
    sim.run()
    assert not medium.channel_busy((1.0, 0.0))


def test_neighbors_of():
    _, medium = setup_medium(radius=2.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    make_port(medium, 2, (1.5, 0.0), [])
    make_port(medium, 3, (9.0, 0.0), [])
    assert medium.neighbors_of(0) == [1, 2]
    assert medium.neighbors_of(0, radius=1.2) == [1]


def test_addressed_outcome_accounting():
    sim, medium = setup_medium(radius=5.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=1, kind="r"))
    sim.run()
    stats = medium.stats
    assert stats.addressed_sent_by_kind["r"] == 1
    assert stats.addressed_delivered_by_kind["r"] == 1
    assert stats.addressed_loss_fraction("r") == 0.0
    # Addressed to an out-of-range node: counted as a loss.
    make_port(medium, 9, (100.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=9, kind="r"))
    sim.run()
    assert stats.addressed_loss_fraction("r") == 0.5


def test_utilization_accounting():
    sim, medium = setup_medium(radius=5.0, bitrate=1000.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    frame = Frame(src=0, dst=BROADCAST, kind="x")
    medium.transmit(frame)
    sim.run(until=10.0)
    expected = (frame.size_bits / 10.0) / 1000.0
    assert medium.stats.link_utilization(1000.0, sim.now) == \
        pytest.approx(expected)


def test_disabled_port_receives_nothing():
    sim, medium = setup_medium(radius=5.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    port = make_port(medium, 1, (1.0, 0.0), inbox)
    port.enabled = False
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert inbox == []


def test_frame_size_must_be_positive():
    with pytest.raises(ValueError):
        Frame(src=0, dst=BROADCAST, kind="x", size_bits=0)


def test_stats_reset():
    sim, medium = setup_medium(radius=5.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert medium.stats.frames_sent == 1
    medium.stats.reset(sim.now)
    assert medium.stats.frames_sent == 0
    assert medium.stats.started_at == sim.now


# ----------------------------------------------------------------------
# Detach semantics
# ----------------------------------------------------------------------

def test_detached_receiver_mid_flight_gets_nothing():
    # Regression: a node detached while a frame is in flight must not
    # receive it (its radio is gone), and since no other receiver exists
    # the frame counts as lost.
    sim, medium = setup_medium(radius=5.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    medium.detach(1)
    sim.run()
    assert inbox == []
    assert medium.stats.frames_lost == 1
    # The vanished reception is not an attempt either — no phantom stats.
    assert medium.stats.reception_attempts_by_kind["x"] == 0


def test_detached_sender_clears_channel_busy():
    # Regression: an in-flight transmission whose sender has been
    # detached must not keep the channel busy via its stale position.
    sim, medium = setup_medium(radius=5.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    assert medium.channel_busy((1.0, 0.0))
    medium.detach(0)
    assert not medium.channel_busy((1.0, 0.0))


def test_neighbors_of_skips_detached():
    _, medium = setup_medium(radius=2.0)
    make_port(medium, 0, (0.0, 0.0), [])
    make_port(medium, 1, (1.0, 0.0), [])
    make_port(medium, 2, (1.5, 0.0), [])
    assert medium.neighbors_of(0) == [1, 2]
    medium.detach(1)
    assert medium.neighbors_of(0) == [2]


def test_reattach_after_detach_is_fresh():
    # The identity check must accept a *new* port reusing a detached id.
    sim, medium = setup_medium(radius=5.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    make_port(medium, 1, (1.0, 0.0), inbox)
    medium.detach(1)
    make_port(medium, 1, (2.0, 0.0), inbox)
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert [node for node, _ in inbox] == [1]


def test_refresh_position_rebuckets_moved_node():
    # A node moved far across the grid must be found at its new cell
    # (and no longer at the old one) once refresh_position is called.
    sim, medium = setup_medium(radius=2.0)
    inbox = []
    make_port(medium, 0, (0.0, 0.0), inbox)
    pos = [(50.0, 50.0)]
    port = TransceiverPort(1, lambda: pos[0],
                           lambda frame: inbox.append((1, frame)))
    medium.attach(port)
    assert medium.neighbors_of(0) == []
    pos[0] = (1.0, 0.0)
    medium.refresh_position(1)
    assert medium.neighbors_of(0) == [1]
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    assert [node for node, _ in inbox] == [1]


def test_refresh_position_unknown_node_is_noop():
    _, medium = setup_medium(radius=2.0)
    medium.refresh_position(42)  # must not raise
