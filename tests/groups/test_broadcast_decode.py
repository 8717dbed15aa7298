"""One heartbeat object per broadcast, shared by every receiver, and the
frame-to-frame span tree that chains the rebroadcasts."""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import TankScenario, run_tank_scenario
from repro.groups import HEARTBEAT_KIND, GroupConfig, GroupManager, Role
from repro.groups.messages import Heartbeat
from repro.naming import DirectoryService, FieldBounds
from repro.radio import BROADCAST, Frame
from repro.sensing import SensorField
from repro.sim import Simulator, query
from repro.transport import GeoRouter, MtpAgent


class Net:
    """Motes all in radio range of each other, each running group
    management and MTP — the two layers that handle heartbeats."""

    def __init__(self, count=8, seed=2):
        self.sim = Simulator(seed=seed)
        self.field = SensorField(self.sim, communication_radius=20.0)
        self.sensing = set()
        bounds = FieldBounds(0.0, 0.0, float(count), 1.0)
        self.groups = {}
        self.mtp = {}
        for i in range(count):
            mote = self.field.add_mote((float(i), 0.0))
            router = GeoRouter(mote)
            router.start()
            directory = DirectoryService(mote, router, bounds)
            directory.start()
            manager = GroupManager(mote)
            manager.track("tracker",
                          lambda m: m.node_id in self.sensing,
                          GroupConfig(heartbeat_period=0.5))
            manager.start()
            agent = MtpAgent(mote, router, manager, directory=directory)
            agent.start()
            self.groups[i] = manager
            self.mtp[i] = agent


def test_every_receiver_shares_the_sent_heartbeat():
    net = Net()
    leader = net.groups[3]
    send = leader.broadcast
    sent = []

    def spy(kind, payload=None, **kwargs):
        if kind == HEARTBEAT_KIND:
            sent.append(payload)
        send(kind, payload, **kwargs)

    leader.broadcast = spy
    heard = []
    for mote in net.field.motes.values():
        mote.register_handler(HEARTBEAT_KIND,
                              lambda frame: heard.append(frame.payload))
    net.sensing = {3}
    net.sim.run(until=3.0)
    assert len(sent) >= 3
    assert all(isinstance(beat, Heartbeat) for beat in sent)
    # Every copy reaches the other seven motes, and each of them gets
    # the very object the leader sent, not a copy.
    assert len(heard) == len(sent) * 7
    for beat in sent:
        assert sum(payload is beat for payload in heard) == 7


def test_shared_heartbeat_is_immutable():
    beat = Heartbeat(context_type="t", label="t#1.1", leader=1, weight=2,
                     seq=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        beat.weight = 99


def test_malformed_heartbeat_ignored_by_both_handlers():
    net = Net(count=4)
    net.sim.run(until=0.5)
    sender = net.field.motes[0]
    sender.send(Frame(src=0, dst=BROADCAST, kind=HEARTBEAT_KIND,
                      payload={"context_type": "tracker", "label": 7,
                               "leader": "not-a-number"}))
    net.sim.run(until=1.5)
    assert net.field.medium.stats.received_by_kind[HEARTBEAT_KIND] == 3
    for node in (1, 2, 3):
        assert net.groups[node].role("tracker") is Role.IDLE
        assert len(net.mtp[node].table) == 0


def _span_tree_digest(sim):
    # A frame's id is written as the one-element list it was pinned as.
    rows = [[r.span_id, r.name, r.node, r.parent_id,
             [] if r.frame_id is None else [r.frame_id]]
            for r in sim.spans.spans()]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_span_tree_unchanged():
    # Ids, names, nodes, parents and frame links of every span of a small
    # tracking run.  Re-pinned when handlers stopped opening spans: the
    # tree is the earlier one (4,274 spans) with its 3,776 handler spans
    # spliced out, every child reattached to its nearest frame or
    # directory ancestor, equal up to span ids.  Re-pinned again when a
    # queued CPU task kept the span it was posted under: of the 498
    # spans, the 4 heartbeat frames whose send had queued behind other
    # CPU work changed parent, and nothing else did.
    sim = run_tank_scenario(TankScenario(columns=6, rows=2, seed=11)).app.sim
    assert _span_tree_digest(sim) == (
        498,
        "31d07d0f4a346bb33888e9048c8f038e4d17a40f162858b2a4dc26d5ff9fbd71")


def test_rebroadcasts_chain_to_their_heartbeats_through_trace_query():
    net = Net(count=5)
    net.sensing = {1, 2, 3}
    net.sim.run(until=2.0)
    spans = net.sim.spans
    trace = query(net.sim)
    assert not spans.find("handle.")
    forwarded = [record for record in spans.find("frame." + HEARTBEAT_KIND)
                 if record.parent_id is not None]
    assert forwarded
    names = set()
    for record in forwarded:
        # A member's rebroadcast is a child of the heartbeat it heard.
        parent = spans.get(record.parent_id)
        assert parent.name == "frame." + HEARTBEAT_KIND
        assert parent.node != record.node
        cause = parent.frame_id
        frame_id = record.frame_id
        # Its causal ancestry ends with that heartbeat's send, then its
        # own; the heartbeat's story holds the rebroadcast.
        sent = trace.causes(record.span_id).category("radio.tx")
        assert [r.detail["frame_id"] for r in sent.records][-2:] == \
            [cause, frame_id]
        story = trace.span(parent.span_id).category("radio.tx")
        assert frame_id in {r.detail["frame_id"] for r in story.records}
        names.add(id(record.name))
    # One name string per kind and mote, not one per span.
    assert len(names) <= len(net.field.motes)
