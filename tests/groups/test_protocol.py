"""Unit tests for the group management protocol (§5.2).

The harness drives sensing directly through a mutable set of node ids, so
each test controls exactly which motes "sense the entity" when — no
targets or sensor models involved.
"""

import pytest

from repro.groups import GroupConfig, GroupListener, GroupManager, Role
from repro.sensing import SensorField
from repro.sim import Simulator


class Harness:
    """A line of motes whose sensing is controlled by a set of ids."""

    def __init__(self, count=6, seed=1, config=None, spacing=1.0,
                 communication_radius=10.0, base_loss_rate=0.0):
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius,
            base_loss_rate=base_loss_rate)
        self.sensing = set()
        self.config = config or GroupConfig(heartbeat_period=0.5)
        self.managers = {}
        for i in range(count):
            mote = self.field.add_mote((i * spacing, 0.0))
            manager = GroupManager(mote)
            manager.track(
                "tracker",
                lambda m: m.node_id in self.sensing,
                self.config)
            manager.start()
            self.managers[i] = manager

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def leaders(self):
        # A crash ends a node's roles, so dead motes lead nothing.
        return sorted(node for node, manager in self.managers.items()
                      if manager.role("tracker") is Role.LEADER)

    def members(self):
        return sorted(node for node, manager in self.managers.items()
                      if manager.role("tracker") is Role.MEMBER)

    def labels(self):
        return {manager.label("tracker")
                for manager in self.managers.values()
                if manager.label("tracker") is not None}


def test_single_sensor_creates_label_and_leads():
    h = Harness()
    h.sensing = {2}
    h.run(2.0)
    assert h.leaders() == [2]
    assert h.members() == []
    label = h.managers[2].label("tracker")
    assert label is not None and label.startswith("tracker#")


def test_concurrent_sensors_form_one_group():
    h = Harness()
    h.sensing = {1, 2, 3}
    h.run(3.0)
    assert len(h.leaders()) == 1
    assert len(h.members()) == 2
    assert len(h.labels()) == 1


def test_joiner_adopts_existing_label():
    h = Harness()
    h.sensing = {2}
    h.run(2.0)
    label = h.managers[2].label("tracker")
    h.sensing = {2, 3}
    h.run(2.0)
    assert h.managers[3].role("tracker") is Role.MEMBER
    assert h.managers[3].label("tracker") == label


def test_member_leaves_when_it_stops_sensing():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    h.sensing = {2}
    h.run(2.0)
    roles = {n: h.managers[n].role("tracker") for n in (2, 3)}
    assert Role.LEADER in roles.values()
    assert h.managers[3].role("tracker") is not Role.MEMBER or \
        h.managers[2].role("tracker") is not Role.MEMBER


def test_relinquish_hands_label_to_member():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    label = next(iter(h.labels()))
    leader = h.leaders()[0]
    other = 3 if leader == 2 else 2
    h.sensing = {other}  # the leader stops sensing
    h.run(3.0)
    assert h.leaders() == [other]
    assert h.managers[other].label("tracker") == label


def test_takeover_after_leader_failure_keeps_label():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    label = next(iter(h.labels()))
    leader = h.leaders()[0]
    follower = 3 if leader == 2 else 2
    h.field.fail_node(leader)
    # Receive timer is 2.1 × heartbeat period = 1.05s; allow margin.
    h.run(3.0)
    assert h.leaders() == [follower]
    assert h.managers[follower].label("tracker") == label
    takeovers = list(h.sim.trace_records("gm.takeover"))
    assert len(takeovers) >= 1


def test_wait_memory_prevents_spurious_label():
    """A node that recently heard a heartbeat joins the existing label
    when it starts sensing, instead of minting a new one."""
    h = Harness()
    h.sensing = {2}
    h.run(3.0)
    label = h.managers[2].label("tracker")
    h.sensing = {2, 4}
    h.run(1.0)
    assert h.managers[4].label("tracker") == label
    created = list(h.sim.trace_records("gm.label_created"))
    assert len(created) == 1


def test_separate_stimuli_without_heartbeat_reach_get_two_labels():
    """Nodes out of radio range of any leader mint their own label."""
    h = Harness(count=8, communication_radius=2.0)
    h.sensing = {0, 7}  # 7 grid units apart, radio reach 2
    h.run(3.0)
    assert len(h.labels()) == 2
    assert h.leaders() == [0, 7]


def test_duplicate_leaders_same_label_resolve_by_yield():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    label = next(iter(h.labels()))
    # Force a second leader on the same label.
    manager = h.managers[3] if h.leaders() == [2] else h.managers[2]
    state = manager._types["tracker"]
    manager._become_leader(state, label, weight=0, inherited_state=None,
                           via="takeover")
    assert len(h.leaders()) == 2
    h.run(3.0)
    assert len(h.leaders()) == 1


def test_weight_grows_with_member_reports():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    leader = h.leaders()[0]
    manager = h.managers[leader]
    label = manager.label("tracker")
    before = manager.weight("tracker")
    for _ in range(5):
        manager.note_member_report("tracker", label)
    assert manager.weight("tracker") == before + 5
    # Reports for other labels do not count.
    manager.note_member_report("tracker", "tracker#99.99")
    assert manager.weight("tracker") == before + 5


def test_heavier_label_suppresses_lighter_duplicate():
    h = Harness()
    h.sensing = {1, 2}
    h.run(3.0)
    label = next(iter(h.labels()))
    leader = h.leaders()[0]
    # Give the established label weight.
    for _ in range(10):
        h.managers[leader].note_member_report("tracker", label)
    # A node nearby spawns a spurious duplicate label.
    deletions_before = len(list(h.sim.trace_records("gm.label_deleted")))
    spurious = h.managers[3]
    h.sensing = {1, 2, 3}
    state = spurious._types["tracker"]
    state.sensing = True
    state.wait_memory = None
    spurious._create_label(state)
    h.run(3.0)
    assert len(h.labels()) == 1
    assert next(iter(h.labels())) == label
    deleted = list(h.sim.trace_records("gm.label_deleted"))
    assert len(deleted) == deletions_before + 1


def test_persistent_state_carried_across_takeover():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    leader = h.leaders()[0]
    follower = 3 if leader == 2 else 2
    h.managers[leader].set_persistent_state("tracker", {"count": 42})
    h.run(2.0)  # heartbeats distribute the state
    h.field.fail_node(leader)
    h.run(3.0)
    assert h.leaders() == [follower]
    assert h.managers[follower].persistent_state("tracker") == \
        {"count": 42}


def test_multiple_context_types_independent():
    h = Harness()
    fire_sensing = set()
    for manager in h.managers.values():
        manager.track("fire", lambda m: m.node_id in fire_sensing,
                      GroupConfig(heartbeat_period=0.5))
    h.sensing = {1}
    fire_sensing.add(4)
    h.run(3.0)
    assert h.managers[1].is_leading("tracker")
    assert h.managers[4].is_leading("fire")
    assert not h.managers[4].is_leading("tracker")
    assert h.managers[4].labels_led() == [h.managers[4].label("fire")]


def test_duplicate_type_tracking_rejected():
    h = Harness(count=1)
    with pytest.raises(ValueError):
        h.managers[0].track("tracker", lambda m: False)


def test_listener_callbacks_fire():
    events = []

    class Recorder(GroupListener):
        def on_leader_start(self, context_type, label, inherited_state,
                            inherited_weight, via):
            events.append(("leader_start", via))

        def on_member_join(self, context_type, label, leader):
            events.append(("member_join", leader))

        def on_member_leave(self, context_type, label):
            events.append(("member_leave", None))

        def on_leader_stop(self, context_type, label, reason):
            events.append(("leader_stop", reason))

    h = Harness()
    h.managers[2].add_listener(Recorder())
    h.sensing = {2, 3}
    h.run(3.0)
    h.sensing = set()
    h.run(3.0)
    kinds = [kind for kind, _ in events]
    assert kinds[0] in ("leader_start", "member_join")
    assert "leader_stop" in kinds or "member_leave" in kinds


def test_config_validation():
    with pytest.raises(ValueError):
        GroupConfig(heartbeat_period=0.0)
    with pytest.raises(ValueError):
        GroupConfig(receive_ratio=0.9)
    with pytest.raises(ValueError):
        GroupConfig(wait_ratio=2.0, receive_ratio=2.1)
    with pytest.raises(ValueError):
        GroupConfig(flood_hops=-1)
    config = GroupConfig(heartbeat_period=0.25)
    assert config.receive_timeout == pytest.approx(0.525)
    assert config.wait_timeout == pytest.approx(1.05)
    assert config.with_heartbeat_period(1.0).receive_timeout == \
        pytest.approx(2.1)


@pytest.mark.parametrize("field", [
    "heartbeat_period", "receive_ratio", "heartbeat_tx_range",
    "suppression_range", "join_range"])
def test_config_rejects_nan(field):
    # Regression: ``nan <= 0`` is False, so NaN used to pass every
    # positivity check and failed much later (a NaN heartbeat reach
    # crashed the medium's first transmit).
    with pytest.raises(ValueError):
        GroupConfig(**{field: float("nan")})


@pytest.mark.parametrize("field,value", [
    ("heartbeat_tx_range", 0.0), ("heartbeat_tx_range", -1.0),
    ("join_range", -1.0)])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        GroupConfig(**{field: value})
