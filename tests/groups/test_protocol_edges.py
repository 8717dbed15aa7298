"""Edge-case tests for the group management state machine."""

from repro.groups import GroupConfig, GroupManager, Role
from repro.sensing import SensorField
from repro.sim import Simulator


class Harness:
    def __init__(self, count=6, seed=3, config=None,
                 communication_radius=10.0):
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius)
        self.sensing = set()
        self.config = config or GroupConfig(heartbeat_period=0.5,
                                            suppression_range=None)
        self.managers = {}
        for i in range(count):
            mote = self.field.add_mote((float(i), 0.0))
            manager = GroupManager(mote)
            manager.track("t", lambda m: m.node_id in self.sensing,
                          self.config)
            manager.start()
            self.managers[i] = manager

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def roles(self):
        return {n: m.role("t") for n, m in self.managers.items()}


def test_relinquish_with_no_claimants_dissolves_label():
    """The last sensing node relinquishes into silence: the label dies
    and the node keeps only wait memory."""
    h = Harness()
    h.sensing = {2}
    h.run(3.0)
    assert h.managers[2].role("t") is Role.LEADER
    h.sensing = set()
    h.run(3.0)
    assert all(role is Role.IDLE for role in h.roles().values())
    relinquishes = list(h.sim.trace_records("gm.relinquish"))
    assert len(relinquishes) == 1
    claims = list(h.sim.trace_records("gm.claim"))
    assert claims == []


def test_wait_memory_expiry_creates_fresh_label():
    """After the wait timer expires, a returning stimulus gets a NEW
    label — 'the choice of the wait timer depends on how far to maintain
    memory of nearby events'."""
    h = Harness()
    h.sensing = {2}
    h.run(3.0)
    first_label = h.managers[2].label("t")
    h.sensing = set()
    # Wait timeout = 4.2 × 0.5 = 2.1 s; run far past it.
    h.run(10.0)
    h.sensing = {2}
    h.run(3.0)
    second_label = h.managers[2].label("t")
    assert second_label is not None
    assert second_label != first_label


def test_quick_return_within_wait_window_keeps_label():
    h = Harness()
    h.sensing = {2}
    h.run(3.0)
    first_label = h.managers[2].label("t")
    h.sensing = set()
    h.run(0.6)  # well inside the 2.1 s wait window
    h.sensing = {2}
    h.run(2.0)
    assert h.managers[2].label("t") == first_label


def test_takeover_only_mode_never_relinquishes():
    h = Harness(config=GroupConfig(heartbeat_period=0.5,
                                   relinquish=False,
                                   suppression_range=None))
    h.sensing = {2, 3}
    h.run(3.0)
    h.sensing = {3}
    h.run(3.0)
    assert list(h.sim.trace_records("gm.relinquish")) == []
    # The silent stepdown is recorded instead, and 3 recovers by timeout.
    if h.managers[2].role("t") is Role.IDLE:
        assert (list(h.sim.trace_records("gm.silent_stepdown"))
                or h.managers[3].role("t") is Role.LEADER)
    h.run(3.0)
    assert h.managers[3].role("t") is Role.LEADER


def test_simultaneous_mass_sensing_converges():
    """Every node starts sensing in the same instant (a field-wide event):
    formation jitter + suppression still converge to one label."""
    h = Harness(count=8)
    h.sensing = set(range(8))
    h.run(8.0)
    leaders = [n for n, r in h.roles().items() if r is Role.LEADER]
    assert len(leaders) == 1
    labels = {m.label("t") for m in h.managers.values()}
    assert len(labels) == 1


def test_flapping_sensor_does_not_leak_labels():
    """A node whose sensing flaps on/off every second stays on one label
    (wait memory bridges the gaps)."""
    h = Harness()
    labels_seen = set()
    for cycle in range(6):
        h.sensing = {2}
        h.run(1.0)
        label = h.managers[2].label("t")
        if label:
            labels_seen.add(label)
        h.sensing = set()
        h.run(1.0)
    assert len(labels_seen) == 1


def test_heartbeat_tx_range_limits_wait_memory_reach():
    config = GroupConfig(heartbeat_period=0.5, heartbeat_tx_range=1.5,
                         member_rebroadcast=False,
                         suppression_range=None)
    h = Harness(config=config)
    h.sensing = {0}
    h.run(3.0)
    near = h.managers[1]._types["t"]
    far = h.managers[4]._types["t"]
    assert near.wait_memory is not None
    assert far.wait_memory is None


def test_member_of_node_zeros_group_rejoins_with_leader_zero():
    """Node id 0 is a leader like any other: a member that stops sensing
    and senses again before the next heartbeat rejoins under leader 0
    from its wait memory (it once remembered leader -1, "no node")."""
    h = Harness(count=4, config=GroupConfig(heartbeat_period=2.0,
                                            suppression_range=None))
    h.sensing = {0}
    h.run(1.0)
    h.sensing = {0, 1}
    h.run(2.5)  # node 0's heartbeats go out at 0.35 s, 2.35 s, 4.35 s
    assert h.roles()[0] is Role.LEADER and h.roles()[1] is Role.MEMBER
    h.sensing = {0}
    h.run(0.2)
    assert h.roles()[1] is Role.IDLE
    h.sensing = {0, 1}
    h.run(0.2)  # t = 3.9 s: rejoined from memory, no heartbeat since
    assert h.roles()[1] is Role.MEMBER
    assert h.managers[1].leader_of("t") == 0


def test_crash_ends_the_roles_and_reboot_restarts_from_idle():
    h = Harness()
    h.sensing = {2, 3}
    h.run(3.0)
    leader = next(n for n, role in h.roles().items()
                  if role is Role.LEADER)
    label = h.managers[leader].label("t")
    h.field.fail_node(leader)
    manager = h.managers[leader]
    assert not manager.is_leading("t")
    assert manager.role("t") is Role.IDLE
    assert manager.label("t") is None and manager.labels_led() == []
    h.run(3.0)  # the survivor takes the label over
    survivor = ({2, 3} - {leader}).pop()
    assert h.managers[survivor].is_leading("t")
    assert h.managers[survivor].label("t") == label
    h.field.motes[leader].reboot()
    assert manager.role("t") is Role.IDLE
    h.run(3.0)  # back in the protocol: one leader between the two
    assert [role for role in h.roles().values()
            if role is Role.LEADER] == [Role.LEADER]
    assert manager.role("t") is not Role.IDLE


def test_wait_timers_are_built_on_first_use():
    """Only the sense timer exists until the protocol needs a wait: an
    unbuilt timer is never armed and cancelling it does nothing."""
    sim = Simulator(seed=1)
    mote = SensorField(sim).add_mote((0.0, 0.0))
    created = []
    create = sim.timers.create

    def recording_create(callback, label):
        created.append(label)
        return create(callback, label)

    sim.timers.create = recording_create
    manager = GroupManager(mote)
    manager.track("t", lambda m: False)
    manager.start()
    assert created == ["gm.sense.t@0"]
    state = manager._types["t"]
    for timer in (state.receive_timer, state.wait_timer, state.claim_timer,
                  state.formation_timer):
        assert not timer.armed
        timer.cancel()
    sim.run(until=5.0)
    assert created == ["gm.sense.t@0"]


def test_a_receive_timer_built_after_a_clock_skew_takes_the_skewed_timeout():
    h = Harness(count=2)
    for mote in h.field.motes.values():
        mote.skew_clock(2.0)
    h.sensing = {0, 1}
    h.run(3.0)
    member = next(n for n, role in h.roles().items()
                  if role is Role.MEMBER)
    timer = h.managers[member]._types["t"].receive_timer
    assert timer.armed
    assert timer.timeout == h.config.receive_timeout * 2.0


def test_a_recovered_manager_builds_no_timers():
    """A rebooted manager comes back with the timers it had: the crash
    stops them and the reboot restarts the same ones, so a mote's timer
    list does not grow with its power cycles."""
    h = Harness()
    h.sensing = {2}
    h.run(3.0)
    mote = h.field.motes[2]
    assert h.managers[2].is_leading("t")
    timers = list(mote._timers)
    for _ in range(3):
        h.field.fail_node(2)
        mote.reboot()
        h.run(3.0)
        assert h.managers[2].is_leading("t")
    assert mote._timers == timers
