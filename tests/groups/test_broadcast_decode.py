"""One heartbeat object per broadcast, shared by every receiver, and the
handler span tree that frames the receptions."""

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
    rows = [[r.span_id, r.name, r.node, r.parent_id, repr(r.started_at),
             repr(r.ended_at), r.frame_ids] for r in sim.spans.spans()]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_span_tree_unchanged():
    # Ids, names, nodes, parents, times and frame links of every span of
    # a small tracking run, pinned from the context-manager spans the
    # mote opened before they became plain swaps.
    sim = run_tank_scenario(TankScenario(columns=6, rows=2, seed=11)).app.sim
    assert _span_tree_digest(sim) == (
        4274,
        "38ab19cbd5c71ea2ffbe96b21a47b082b7e8e57e42c4acf6320bbe4024bb8c76")


def test_handler_spans_chain_to_their_frames_through_trace_query():
    net = Net(count=5)
    net.sensing = {2}
    net.sim.run(until=2.0)
    spans = net.sim.spans
    trace = query(net.sim)
    handled = spans.find("handle." + HEARTBEAT_KIND)
    assert handled
    names = set()
    for record in handled:
        parent = spans.get(record.parent_id)
        assert parent.name == "frame." + HEARTBEAT_KIND
        assert parent.node != record.node
        (frame_id,) = parent.frame_ids
        # The handler's causal ancestry is exactly its frame's send.
        sent = trace.causes(record.span_id).category("radio.tx")
        assert [r.detail["frame_id"] for r in sent.records] == [frame_id]
        assert trace.span(parent.span_id).category("radio.tx").count() >= 1
        names.add(id(record.name))
    # One name string per kind and mote, not one per span.
    assert len(names) <= len(net.field.motes)
