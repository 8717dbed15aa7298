"""Tests for heartbeat flooding: member rebroadcast and h-hop forwarding."""

from repro.groups import GroupConfig, GroupManager, HEARTBEAT_KIND, Role
from repro.node import Mote
from repro.sensing import SensorField
from repro.sim import Simulator


def build(config, count=8, communication_radius=1.5, sensing=None):
    sim = Simulator(seed=13)
    field = SensorField(sim, communication_radius=communication_radius)
    sensing = sensing if sensing is not None else set()
    managers = {}
    for i in range(count):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing, config)
        manager.start()
        managers[i] = manager
    return sim, field, managers, sensing


def heartbeat_frames(field):
    return field.medium.stats.sent_by_kind[HEARTBEAT_KIND]


def test_member_rebroadcast_multiplies_heartbeats():
    sensing = {1, 2, 3}
    config_on = GroupConfig(heartbeat_period=0.5, member_rebroadcast=True,
                            suppression_range=None)
    config_off = GroupConfig(heartbeat_period=0.5,
                             member_rebroadcast=False,
                             suppression_range=None)
    counts = {}
    for name, config in (("on", config_on), ("off", config_off)):
        sim, field, managers, s = build(config, communication_radius=6.0,
                                        sensing=set(sensing))
        sim.run(until=10.0)
        counts[name] = heartbeat_frames(field)
    # Two members forwarding each heartbeat roughly triples traffic.
    assert counts["on"] >= 2 * counts["off"]


def test_member_rebroadcast_dedupes_by_seq():
    config = GroupConfig(heartbeat_period=0.5, member_rebroadcast=True,
                         suppression_range=None)
    sim, field, managers, sensing = build(config,
                                          communication_radius=6.0)
    sensing.update({1, 2})
    sim.run(until=10.0)
    sent = heartbeat_frames(field)
    # 1 leader + 1 member: each original heartbeat forwarded at most once
    # → at most ~2 frames per period (plus formation traffic).
    periods = 10.0 / 0.5
    assert sent <= 2 * periods + 8


def test_flood_hops_extend_reach_across_sparse_radio():
    """With radio range 1.5 and h=2, a node 3 hops from the leader still
    hears (forwarded) heartbeats and keeps wait memory; with h=0 it never
    does."""
    for hops, expect_reach in ((0, False), (2, True)):
        config = GroupConfig(heartbeat_period=0.5,
                             member_rebroadcast=False, flood_hops=hops,
                             suppression_range=None)
        sim, field, managers, sensing = build(
            config, communication_radius=1.2)
        sensing.add(0)  # leader at one end of the line
        sim.run(until=5.0)
        # Node 3 is 3 radio hops away from node 0.
        state = managers[3]._types["t"]
        heard = state.wait_memory is not None
        assert heard == expect_reach, f"h={hops}"


def test_forwarded_heartbeats_preserve_leader_identity():
    config = GroupConfig(heartbeat_period=0.5, member_rebroadcast=False,
                         flood_hops=2, suppression_range=None)
    sim, field, managers, sensing = build(config,
                                          communication_radius=1.2)
    sensing.add(0)
    sim.run(until=5.0)
    state = managers[2]._types["t"]
    assert state.wait_memory is not None
    assert state.wait_memory.leader == 0


def test_far_node_joins_label_via_forwarded_heartbeat():
    config = GroupConfig(heartbeat_period=0.5, member_rebroadcast=False,
                         flood_hops=2, suppression_range=None)
    sim, field, managers, sensing = build(config,
                                          communication_radius=1.2)
    sensing.add(0)
    sim.run(until=5.0)
    label = managers[0].label("t")
    sensing.add(2)  # starts sensing; has wait memory from the flood
    sim.run(until=8.0)
    assert managers[2].label("t") == label
    assert managers[2].role("t") in (Role.MEMBER, Role.LEADER)


def test_each_node_forwards_each_heartbeat_once_by_its_role(monkeypatch):
    """Members pass a heartbeat on with its hop budget, non-members with
    one hop fewer, and no node sends a ``(label, seq)`` twice, whichever
    role it holds when further copies arrive."""
    sent = []
    send = Mote.send

    def recording_send(mote, frame):
        if frame.kind == HEARTBEAT_KIND:
            sent.append((mote.sim.now, mote.node_id, frame.payload))
        send(mote, frame)

    monkeypatch.setattr(Mote, "send", recording_send)
    config = GroupConfig(heartbeat_period=0.5, member_rebroadcast=True,
                         flood_hops=2, suppression_range=None)
    sim, field, managers, sensing = build(config, communication_radius=1.2,
                                          sensing={0, 1})
    sim.run(until=6.0)

    def fields(beat):
        return (beat.label, beat.leader, beat.weight, beat.seq, beat.state,
                beat.leader_pos)

    originals = {(beat.label, beat.seq): beat
                 for _, node, beat in sent if node == beat.leader}
    forwards = [(t, node, beat) for t, node, beat in sent
                if node != beat.leader]
    keys = [(node, beat.label, beat.seq) for _, node, beat in forwards]
    assert len(keys) == len(set(keys))
    for t, node, beat in forwards:
        assert beat.hops >= 0
        assert fields(beat) == fields(originals[beat.label, beat.seq])
        heard = {other.hops for when, sender, other in sent
                 if when < t and sender != node
                 and (other.label, other.seq) == (beat.label, beat.seq)
                 and abs(sender - node) <= 1}
        # Motes sit one unit apart and the radio reaches 1.2 units.
        expected = beat.hops if node in sensing else beat.hops + 1
        assert expected in heard, (node, beat, heard)
    by_role = {(node in sensing, beat.hops) for _, node, beat in forwards}
    assert {(True, 2), (False, 1), (False, 0)} <= by_role
