"""MTP past-leader forwarding: messages addressed to a stale leader reach
the current one through the forwarding chain (§5.4)."""

from repro.groups import GroupConfig, GroupManager, Role
from repro.naming import DirectoryService, FieldBounds
from repro.sensing import SensorField
from repro.sim import Simulator
from repro.transport import GeoRouter, Invocation, MtpAgent


def build(count=8):
    sim = Simulator(seed=41)
    field = SensorField(sim, communication_radius=3.0)
    sensing = set()
    routers, groups, agents = {}, {}, {}
    bounds = FieldBounds(0.0, 0.0, float(count - 1), 1.0)
    for i in range(count):
        mote = field.add_mote((float(i), 0.0))
        router = GeoRouter(mote)
        router.start()
        directory = DirectoryService(mote, router, bounds)
        directory.start()
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing,
                      GroupConfig(heartbeat_period=0.5,
                                  suppression_range=None))
        manager.start()
        agent = MtpAgent(mote, router, manager, directory=directory)
        agent.start()
        routers[i], groups[i], agents[i] = router, manager, agent
    return sim, field, sensing, groups, agents


def current_leader(groups):
    for node, manager in groups.items():
        if manager.role("t") is Role.LEADER:
            return node
    return None


def test_stale_destination_forwarded_to_current_leader():
    sim, field, sensing, groups, agents = build()
    sensing.update({1, 2})
    sim.run(until=3.0)
    old_leader = current_leader(groups)
    label = groups[old_leader].label("t")

    # Leadership migrates: the old leader stops sensing and a neighbour
    # claims the label.
    sensing.discard(old_leader)
    sim.run(until=sim.now + 3.0)
    new_leader = current_leader(groups)
    assert new_leader is not None and new_leader != old_leader
    assert groups[new_leader].label("t") == label

    # A remote endpoint with a stale table sends to the OLD leader.
    received = []
    for agent in agents.values():
        agent.register_port(
            "t", 5, lambda args, src_label, src_port, src_leader:
            received.append(args))
    invocation = Invocation(src_label="x#9.9", src_port=0, src_leader=7,
                            dest_label=label, dest_port=5,
                            args={"ping": 1})
    agents[7]._transmit(old_leader, invocation)
    sim.run(until=sim.now + 5.0)

    assert received == [{"ping": 1}]
    # The old leader forwarded along its last-known-leader pointer
    # (learned from the successor's heartbeats).
    assert list(sim.trace_records("mtp.forward", old_leader))
    assert agents[new_leader].delivered == 1


def test_chain_limit_bounds_forwarding():
    sim, field, sensing, groups, agents = build()
    sensing.update({1, 2})
    sim.run(until=3.0)
    leader = current_leader(groups)
    label = groups[leader].label("t")
    # Poison node 6's pointer to point at node 7, and 7's back at 6.
    agents[6].table.update(label, 7, sim.now + 100.0)
    agents[7].table.update(label, 6, sim.now + 100.0)
    invocation = Invocation(src_label="x#9.9", src_port=0, src_leader=5,
                            dest_label=label, dest_port=5,
                            args={}, chain=3)
    agents[5]._transmit(6, invocation)
    sim.run(until=sim.now + 5.0)
    drops = [r for r in sim.trace
             if r.category == "mtp.drop"
             and r.detail.get("reason") == "chain_exhausted"]
    assert drops, "forwarding loop was not bounded"
