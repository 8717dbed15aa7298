"""Frames carry immutable protocol messages.

Every protocol handler type-checks its payload and ignores anything that
is not its message: a garbage payload of any protocol kind — sent
directly or routed inside a valid ``geo.data`` packet — raises nothing
and changes no protocol state.  Forwarding builds a new message and
leaves the received one as it was.
"""

import copy
import dataclasses

import pytest

from repro.aggregation import REPORT_KIND, AggregateVarSpec
from repro.core import (APP_REPORT_KIND, ContextTypeDef, EnviroTrackApp,
                        MethodDef, TimerInvocation, TrackingObjectDef)
from repro.groups import (GroupConfig, QUERY_KIND, RELINQUISH_KIND,
                          VOUCH_KIND)
from repro.naming import (QUERY_KIND as DIR_QUERY_KIND, REGISTER_KIND,
                          REPLICATE_KIND, RESPONSE_KIND)
from repro.radio import BROADCAST, Frame
from repro.sensing import LineTrajectory, Target
from repro.transport import (GEO_KIND, MTP_ACK_KIND, MTP_DEDUP_KIND,
                             MTP_KIND, Invocation, Packet)

#: Kinds whose handlers read the frame's payload directly.
DIRECT_KINDS = (RELINQUISH_KIND, QUERY_KIND, VOUCH_KIND, MTP_DEDUP_KIND,
                GEO_KIND, REPLICATE_KIND, REPORT_KIND)

#: Kinds delivered by the geographic router to a registered handler.
ROUTED_KINDS = (MTP_KIND, MTP_ACK_KIND, REGISTER_KIND, DIR_QUERY_KIND,
                RESPONSE_KIND, REPORT_KIND, APP_REPORT_KIND)

GARBAGE = ({"context_type": "tracker", "label": "tracker#1.1",
            "leader": 1, "weight": 99, "seq": 1, "sender": 2}, None)


def build_app():
    """A tracking run with every layer live: groups, member reports,
    the directory, MTP and a base station receiving ``MySend``s."""

    def report(ctx):
        location = ctx.read("location")
        if location.valid:
            ctx.my_send({"location": location.value})

    app = EnviroTrackApp(seed=3)
    app.field.deploy_grid(8, 2)
    app.field.add_target(Target("t", "vehicle",
                                LineTrajectory((3.0, 0.5), 0.0),
                                signature_radius=1.2))
    app.field.install_detection_sensors("seen", kinds=["vehicle"])
    app.add_context_type(ContextTypeDef(
        name="tracker", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("o", [
            MethodDef("report", TimerInvocation(1.0), report)])],
        group=GroupConfig(heartbeat_period=0.5)))
    app.place_base_station((0.0, -2.0))
    app.run(until=8.0)
    return app


@pytest.fixture(scope="module")
def app():
    return build_app()


def protocol_state(app):
    """Everything a protocol handler could change, as plain data."""
    sim = app.sim
    state = {"trace": len(sim.trace), "heap": sim.heap_size(),
             "reports": len(app.base_station.reports)}
    for node, agent in app.agents.items():
        for type_name, type_state in agent.groups._types.items():
            state["gm", node, type_name] = copy.deepcopy({
                field.name: getattr(type_state, field.name)
                for field in dataclasses.fields(type_state)
                if not field.name.endswith("timer")})
        for type_name in agent.context_types():
            store = agent.runtime_of(type_name).store
            state["store", node, type_name] = (
                None if store is None else dict(store.reports))
        mtp, directory = agent.mtp, agent.directory
        state["mtp", node] = (
            [(label, pointer.leader, pointer.updated)
             for label, pointer in mtp.table._entries.items()],
            {conn: list(seqs) for conn, seqs in mtp._dedup._seen.items()},
            sorted(mtp._outbox), dict(mtp.acks), mtp.delivered,
            mtp.acked)
        state["dir", node] = (dict(directory._entries), dict(directory.ops),
                              sorted(directory._pending_queries))
    return state


def router_counts(app):
    return {node: (agent.router.forwarded, agent.router.delivered,
                   agent.router.dead_ends)
            for node, agent in app.agents.items()}


@pytest.mark.parametrize("kind", DIRECT_KINDS)
def test_garbage_payload_of_direct_kind_changes_nothing(app, kind):
    assert app.base_station.reports, "the run never reached steady state"
    before = protocol_state(app), router_counts(app)
    for payload in GARBAGE:
        for node, mote in app.field.motes.items():
            mote._dispatch(Frame(src=(node + 1) % 16, dst=BROADCAST,
                                 kind=kind, payload=payload))
    assert (protocol_state(app), router_counts(app)) == before


@pytest.mark.parametrize("kind", ROUTED_KINDS)
def test_garbage_inside_a_valid_packet_changes_nothing(app, kind):
    # Every node that registered a handler for the kind gets the packet.
    receivers = [node for node, agent in app.agents.items()
                 if kind in agent.router._handlers]
    assert receivers
    before = protocol_state(app)
    delivered = {node: app.agents[node].router.delivered
                 for node in receivers}
    for payload in GARBAGE:
        for node in receivers:
            mote = app.field.motes[node]
            packet = Packet(dest=mote.position, origin=(node + 1) % 16,
                            inner_kind=kind, inner=payload, ttl=4,
                            dest_node=node)
            mote._dispatch(Frame(src=(node + 1) % 16, dst=node,
                                 kind=GEO_KIND, payload=packet))
    assert protocol_state(app) == before
    # The router did deliver each packet; only the handler ignored it.
    for node in receivers:
        assert (app.agents[node].router.delivered
                == delivered[node] + len(GARBAGE))


def test_garbage_frames_on_the_air_do_not_stop_tracking():
    app = build_app()
    sender = app.field.motes[5]
    for kind in DIRECT_KINDS:
        for payload in GARBAGE:
            sender.send(Frame(src=5, dst=BROADCAST, kind=kind,
                              payload=payload))
    reports = len(app.base_station.reports)
    app.sim.run(until=16.0)  # must not raise
    assert len(app.leaders("tracker")) == 1
    assert len(app.base_station.reports) > reports


def test_forwarding_an_invocation_leaves_the_received_one_unchanged(app):
    agent = app.agents[4].mtp
    agent.table.update("ghost#9.9", 12, app.sim.now)
    routed = []
    agent.router.route_to_node = \
        lambda node, kind, message: routed.append((node, kind, message))
    try:
        received = Invocation(src_label="x#1.1", src_port=0, src_leader=0,
                              dest_label="ghost#9.9", dest_port=1,
                              args={"n": 1}, chain=3, seq=7)
        agent._forward(received)
    finally:
        del agent.router.route_to_node
        agent.table.forget("ghost#9.9")
    assert received.chain == 3
    ((node, kind, forwarded),) = routed
    assert (node, kind) == (12, MTP_KIND)
    assert forwarded is not received
    assert forwarded == dataclasses.replace(received, chain=2)
    assert forwarded.args is received.args
    with pytest.raises(dataclasses.FrozenInstanceError):
        received.chain = 0


def test_forwarding_a_packet_leaves_the_received_one_unchanged(app):
    router = app.agents[0].router
    sent = []
    router.unicast = lambda dst, kind, payload: sent.append(
        (dst, kind, payload))
    try:
        received = Packet(dest=app.field.motes[7].position, origin=0,
                          inner_kind="nobody", inner={"n": 1}, ttl=5)
        router._step(received)
    finally:
        del router.unicast
    assert received.ttl == 5
    ((_, kind, forwarded),) = sent
    assert kind == GEO_KIND
    assert forwarded == dataclasses.replace(received, ttl=4)
    assert forwarded.inner is received.inner
