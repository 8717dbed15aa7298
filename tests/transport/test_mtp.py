"""Unit tests for MTP remote method invocation (§5.4)."""

from repro.groups import GroupConfig, GroupManager
from repro.naming import DirectoryService, FieldBounds
from repro.sensing import SensorField
from repro.sim import Simulator
from repro.transport import MtpAgent
from repro.transport import GeoRouter


class Net:
    """A grid where each node has router, groups, directory and MTP."""

    def __init__(self, columns=8, rows=4, communication_radius=2.5,
                 seed=4):
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius)
        self.field.deploy_grid(columns, rows)
        self.sensing = {}  # type name -> set of node ids
        bounds = FieldBounds(0.0, 0.0, float(columns - 1), float(rows - 1))
        self.routers = {}
        self.groups = {}
        self.mtp = {}
        for mote in self.field.mote_list():
            router = GeoRouter(mote)
            router.start()
            directory = DirectoryService(mote, router, bounds,
                                         hash_margin=1.0)
            directory.start()
            manager = GroupManager(mote)
            for type_name in ("alpha", "beta"):
                manager.track(
                    type_name,
                    lambda m, t=type_name: m.node_id in
                    self.sensing.get(t, set()),
                    GroupConfig(heartbeat_period=0.5))
            manager.start()
            agent = MtpAgent(mote, router, manager, directory=directory)
            agent.start()
            self.routers[mote.node_id] = router
            self.groups[mote.node_id] = manager
            self.mtp[mote.node_id] = agent

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def leader_of(self, type_name):
        for node, manager in self.groups.items():
            if manager.is_leading(type_name):
                return node
        return None

    def register_label(self, type_name):
        """Register the current leader's label in the directory."""
        leader = self.leader_of(type_name)
        manager = self.groups[leader]
        label = manager.label(type_name)
        mote = self.field.motes[leader]
        directory = self.mtp[leader].directory
        directory.register(type_name, label, mote.position, leader)
        return leader, label


def test_invocation_between_two_labels():
    net = Net()
    net.sensing = {"alpha": {0}, "beta": {31}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    beta_leader, beta_label = net.register_label("beta")
    net.run(2.0)

    received = []
    net.mtp[beta_leader].register_port(
        "beta", 5,
        lambda args, src_label, src_port, src_leader: received.append(
            (args, src_label, src_leader)))
    net.mtp[alpha_leader].invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(5.0)
    assert received == [({"ping": 1}, alpha_label, alpha_leader)]


def test_header_learning_updates_tables():
    net = Net()
    net.sensing = {"alpha": {0}, "beta": {31}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    beta_leader, beta_label = net.register_label("beta")
    net.run(2.0)
    net.mtp[beta_leader].register_port("beta", 1,
                                       lambda *args: None)
    net.mtp[alpha_leader].invoke(alpha_label, beta_label, 1, {})
    net.run(5.0)
    pointer = net.mtp[beta_leader].table.get(alpha_label)
    assert pointer is not None and pointer.leader == alpha_leader


def test_unknown_label_dropped_with_reason():
    net = Net()
    net.sensing = {"alpha": {0}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    net.run(2.0)
    net.mtp[alpha_leader].invoke(alpha_label, "beta#9.99", 1, {})
    net.run(5.0)
    (drop,) = net.sim.trace_records("mtp.drop", alpha_leader)
    assert drop.detail == {"reason": "unknown_label", "dest": "beta#9.99"}


def test_port_registration_conflicts_rejected():
    net = Net(columns=2, rows=2)
    agent = net.mtp[0]
    agent.register_port("alpha", 1, lambda *a: None)
    try:
        agent.register_port("alpha", 1, lambda *a: None)
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_heartbeats_seed_forwarding_pointers():
    net = Net()
    net.sensing = {"alpha": {5}}
    net.run(3.0)
    label = net.groups[5].label("alpha")
    # Any node in radio range of the leader learned the pointer from
    # overheard heartbeats.
    neighbor = 6
    pointer = net.mtp[neighbor].table.get(label)
    assert pointer is not None and pointer.leader == 5
