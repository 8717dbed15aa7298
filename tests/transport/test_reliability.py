"""Tests for reliable MTP delivery: acks, retries, escalation, dedup."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transport.mtp as mtp_module
from repro.groups import GroupConfig, GroupManager
from repro.naming import (DEFAULT_LOOKUP_TIMEOUT, QUERY_KIND,
                          DirectoryService, FieldBounds)
from repro.sensing import SensorField
from repro.sim import Simulator
from repro.transport import (MTP_ACK_KIND, DedupTable, GeoRouter,
                             Invocation, MtpAgent, ReliabilityConfig)
from repro.transport.reliability import DEDUP_CONNECTIONS, DEDUP_WINDOW


# ----------------------------------------------------------------------
# Pure-state primitives
# ----------------------------------------------------------------------
def test_reliability_config_rejects_bad_knobs():
    for kwargs in ({"ack_timeout": 0.0},
                   {"jitter": 1.0}, {"jitter": -0.1},
                   {"max_retries": -1}, {"max_escalations": -1}):
        with pytest.raises(ValueError):
            ReliabilityConfig(**kwargs)


def test_retry_delay_backoff_and_determinism():
    config = ReliabilityConfig(ack_timeout=0.5, jitter=0.1)
    no_jitter = ReliabilityConfig(ack_timeout=0.5, jitter=0.0)
    rng = random.Random(7)
    assert no_jitter.retry_delay(0, rng) == 0.5
    assert no_jitter.retry_delay(2, rng) == 2.0
    # Jittered delays stay within the band and replay exactly from an
    # identically seeded stream.
    first = [config.retry_delay(i, random.Random(7)) for i in range(4)]
    second = [config.retry_delay(i, random.Random(7)) for i in range(4)]
    assert first == second
    for attempt, delay in enumerate(first):
        base = 0.5 * 2.0 ** attempt
        assert 0.9 * base <= delay <= 1.1 * base


def test_dedup_table_at_most_once_and_bounds():
    assert (DEDUP_CONNECTIONS, DEDUP_WINDOW) == (64, 128)
    table = DedupTable()
    conn = ("a#1.1", 0, "b#1.1", 1)
    assert table.mark(conn, 1)
    assert not table.mark(conn, 1)
    # The window forgets the oldest seq at the 129th sequence number.
    for seq in range(2, 129):
        assert table.mark(conn, seq)
    assert not table.mark(conn, 1)  # still the 128th most recent
    assert table.mark(conn, 129)
    assert table.mark(conn, 1)  # aged out of the window
    assert not table.mark(conn, 129)
    # Stream LRU: the 65th stream evicts the least recent one.
    others = [(f"c#{i}.1", 0, "b#1.1", 1) for i in range(64)]
    for other in others[:63]:
        table.mark(other, 1)
    assert len(table) == 64
    assert not table.mark(conn, 5)  # refreshes conn's recency
    table.mark(others[63], 1)  # the 65th stream evicts others[0]
    assert len(table) == 64
    assert not table.mark(conn, 5)
    assert table.mark(others[0], 1)  # forgotten: passes again


def test_dedup_mark_prewarms_without_counting():
    # A dedup share marks the pair; marking is idempotent, and the
    # pre-warmed pair then suppresses the later direct delivery.
    table = DedupTable()
    conn = ("a#1.1", 0, "b#1.1", 1)
    assert table.mark(conn, 5)
    assert not table.mark(conn, 5)
    assert len(table) == 1


# ----------------------------------------------------------------------
# Integration on a small grid
# ----------------------------------------------------------------------
class Net:
    """Grid fixture where every mote gets the full transport stack."""

    def __init__(self, columns=8, rows=4, communication_radius=2.5,
                 seed=4, base_loss_rate=0.0, reliability=None,
                 lookup_timeout=DEFAULT_LOOKUP_TIMEOUT):
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius,
            base_loss_rate=base_loss_rate)
        self.field.deploy_grid(columns, rows)
        self.sensing = {}  # type name -> set of node ids
        bounds = FieldBounds(0.0, 0.0, float(columns - 1),
                             float(rows - 1))
        self.groups = {}
        self.mtp = {}
        for mote in self.field.mote_list():
            router = GeoRouter(mote)
            router.start()
            directory = DirectoryService(mote, router, bounds,
                                         hash_margin=1.0,
                                         lookup_timeout=lookup_timeout)
            directory.start()
            manager = GroupManager(mote)
            for type_name in ("alpha", "beta"):
                manager.track(
                    type_name,
                    lambda m, t=type_name: m.node_id in
                    self.sensing.get(t, set()),
                    GroupConfig(heartbeat_period=0.5))
            manager.start()
            agent = MtpAgent(mote, router, manager, directory=directory,
                             reliability=reliability)
            agent.start()
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
        leader = self.leader_of(type_name)
        manager = self.groups[leader]
        label = manager.label(type_name)
        mote = self.field.motes[leader]
        self.mtp[leader].directory.register(
            type_name, label, mote.position, leader)
        return leader, label

    def records(self, category, node=None):
        return list(self.sim.trace_records(category, node))


RELIABLE = ReliabilityConfig(ack_timeout=0.5, jitter=0.0, max_retries=3,
                             max_escalations=2)


def build_pair(**net_kwargs):
    """Elect alpha at node 0 and beta at the far corner; wire a handler."""
    net = Net(**net_kwargs)
    net.sensing = {"alpha": {0}, "beta": {31}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    beta_leader, beta_label = net.register_label("beta")
    net.run(2.0)
    received = []
    net.mtp[beta_leader].register_port(
        "beta", 5, lambda args, *meta: received.append(args))
    return net, alpha_leader, alpha_label, beta_leader, beta_label, \
        received


def test_reliable_invocation_acked_once():
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(5.0)
    assert received == [{"ping": 1}]
    assert sender.acked == 1
    assert sender.retransmitted == 0
    assert not sender._outbox  # acked sends leave no state behind
    metrics = net.sim.metrics.get("repro_mtp_acks_total")
    assert metrics.value("sent") >= 1.0
    assert metrics.value("received") >= 1.0


def test_lost_frames_are_retransmitted_to_delivery():
    # A lossy channel, pointer pre-seeded so the test isolates the data
    # path: the reliable sender retransmits every lost frame until the
    # invocation lands and its ack returns.
    config = ReliabilityConfig(ack_timeout=0.5, jitter=0.0,
                               max_retries=6, max_escalations=2)
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=config, base_loss_rate=0.1, seed=7,
                   lookup_timeout=1.0)
    sender = net.mtp[alpha_leader]
    sender.table.update(beta_label, beta_leader, net.sim.now)
    for n in range(5):
        sender.invoke(alpha_label, beta_label, 5, {"n": n})
    net.run(30.0)
    assert sorted(args["n"] for args in received) == [0, 1, 2, 3, 4]
    assert sender.acked == 5
    assert sender.retransmitted > 0
    assert net.sim.metrics.get(
        "repro_mtp_retransmits_total").value() == sender.retransmitted


def test_duplicate_deliveries_suppressed_and_reacked():
    # The first ack never reaches the sender, so its outbox retransmits
    # an invocation the receiver already delivered: the receiver must
    # suppress the handler and ack again.
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    sender.table.update(beta_label, beta_leader, net.sim.now)
    handlers = sender.router._handlers
    deliver_ack = handlers[MTP_ACK_KIND]
    lost = []

    def lose_first_ack(ack, origin):
        if lost:
            deliver_ack(ack, origin)
        else:
            lost.append(ack)

    handlers[MTP_ACK_KIND] = lose_first_ack
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(6.0)
    assert received == [{"ping": 1}]  # handler ran exactly once
    assert len(lost) == 1
    assert len(net.records("mtp.retransmit", alpha_leader)) >= 1
    (duplicate,) = net.records("mtp.duplicate", beta_leader)
    assert duplicate.detail["seq"] == 1
    assert sender.acked == 1 and not sender._outbox


def test_delivery_prewarms_neighbor_dedup_tables():
    # After a fresh sequenced delivery the leader broadcasts a one-hop
    # dedup share; radio neighbors (takeover candidates) must then
    # suppress a redelivery of the same (stream, seq).
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(5.0)
    assert received == [{"ping": 1}]
    stream = ((alpha_label, 0, beta_label, 5), alpha_leader, 0)
    neighbor = net.mtp[beta_leader - 1]  # grid neighbor, in radio range
    assert not neighbor._dedup.mark(stream, 1)


def test_retry_exhaustion_escalates_then_dead_letters():
    # Point the sender at a label whose "leader" never answers (dead
    # mote), with no directory fallback able to rescue it.
    net = Net(reliability=RELIABLE)
    net.sensing = {"alpha": {0}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    net.run(2.0)
    sender = net.mtp[alpha_leader]
    sender.table.update("beta#9.9", 31, net.sim.now)
    net.field.fail_node(31)
    sender.invoke(alpha_label, "beta#9.9", 5, {"ping": 1})
    net.run(60.0)
    assert sender.dead_lettered == 1
    assert not sender._outbox
    (letter,) = net.records("mtp.dead_letter", alpha_leader)
    assert letter.detail == {"dest": "beta#9.9", "seq": 1,
                             "reason": "retry_exhausted"}
    # Escalation ran: the stale pointer was evicted along the way.
    assert "beta#9.9" not in sender.table


def test_escalation_recovers_via_fresh_lookup():
    # The sender holds a stale pointer at a dead node, but the directory
    # knows the real leader: escalation must re-resolve and deliver.
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    stale = next(node for node in (14, 15, 21)
                 if node not in (alpha_leader, beta_leader))
    sender.table.update(beta_label, stale, net.sim.now)
    net.field.fail_node(stale)
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(30.0)
    assert received == [{"ping": 1}]
    assert sender.dead_lettered == 0
    assert sender.acked == 1


def test_raw_mode_keeps_fire_and_forget_semantics():
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair()
    sender = net.mtp[alpha_leader]
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(5.0)
    assert received == [{"ping": 1}]
    assert sender.acked == 0  # unsequenced sends are never acked
    assert not sender._outbox


def test_negative_cache_only_on_authoritative_miss():
    from repro.naming import DirectoryEntry
    net = Net()
    agent = net.mtp[0]

    def queue(dest):
        invocation = Invocation(src_label="a#0.1", src_port=0,
                                src_leader=0, dest_label=dest,
                                dest_port=1, args={})
        agent._pending[dest] = [invocation]

    # An empty answer is ambiguous (timeout? nothing registered yet?):
    # it must NOT blackhole the label for the negative TTL.
    queue("ghost#1.1")
    agent._lookup_done("ghost#1.1", [])
    assert not agent._negative.fresh("ghost#1.1", agent.now)
    # A non-empty answer without our label is authoritative: cache it.
    other = DirectoryEntry(label="ghost#2.2", context_type="ghost",
                           location=(0.0, 0.0), leader=3, updated=0.0)
    queue("ghost#1.1")
    agent._lookup_done("ghost#1.1", [other])
    assert agent._negative.fresh("ghost#1.1", agent.now)
    # While fresh, repeat sends fail locally instead of re-querying.
    agent.invoke("a#0.1", "ghost#1.1", 1, {})
    assert [drop.detail["reason"] for drop in net.records("mtp.drop")] \
        == ["unknown_label", "unknown_label", "negative_cache"]
    assert agent._pending.get("ghost#1.1") is None


# ----------------------------------------------------------------------
# Regressions: pending-lookup hygiene, pointers, chain clamp
# ----------------------------------------------------------------------
def test_crashed_sender_stays_silent_with_a_lookup_pending():
    # Regression: a reliable sender that crashed while its lookup was
    # pending kept expiring the queue, escalating and dead-lettering
    # while dead.  The crash now wipes the agent and stops its timers.
    net = Net(reliability=RELIABLE)
    net.sensing = {"alpha": {0}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    net.run(2.0)
    sender = net.mtp[alpha_leader]
    sender.invoke(alpha_label, "ghost#1.1", 5, {})
    assert "ghost#1.1" in sender._pending
    crashed_at = net.sim.now
    net.field.fail_node(alpha_leader)
    assert not sender._pending and not sender._outbox
    net.run(40.0)
    assert [record.category
            for record in net.sim.trace_records(node=alpha_leader)
            if record.time > crashed_at
            and record.category.startswith("mtp.")] == []
    assert sender.dead_lettered == 0


def test_pending_overflow_drops_newest(monkeypatch):
    monkeypatch.setattr(mtp_module, "PENDING_LIMIT", 2)
    net = Net()
    net.sensing = {"alpha": {0}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    sender = net.mtp[alpha_leader]
    sender.directory.lookup = lambda *args, **kwargs: None
    for n in range(4):
        sender.invoke(alpha_label, "ghost#1.1", 5, {"n": n})
    assert len(sender._pending["ghost#1.1"]) == 2
    assert [drop.detail["reason"] for drop in net.records("mtp.drop")] \
        == ["pending_overflow", "pending_overflow"]


def test_forward_evicts_useless_self_pointer():
    net = Net()
    agent = net.mtp[5]
    agent.table.update("ghost#1.1", 5, net.sim.now)  # points at itself
    invocation = Invocation(src_label="x#1.1", src_port=0, src_leader=0,
                            dest_label="ghost#1.1", dest_port=1, args={})
    agent._forward(invocation)
    (drop,) = net.records("mtp.drop")
    assert drop.detail["reason"] == "no_pointer"
    assert "ghost#1.1" not in agent.table  # evicted, not kept


def test_negative_chain_budget_clamped_on_parse():
    # A negative forwarding budget is exhausted, never unlimited.
    net = Net()
    agent = net.mtp[5]
    agent.table.update("y#1.1", 6, net.sim.now)  # a usable pointer
    invocation = Invocation(src_label="x#1.1", src_port=0, src_leader=0,
                            dest_label="y#1.1", dest_port=1, args={},
                            chain=-7)
    agent._forward(invocation)
    assert net.records("mtp.forward") == []
    (drop,) = net.records("mtp.drop")
    assert drop.detail["reason"] == "chain_exhausted"


def test_reboot_wipes_reliable_transport_state():
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    net.field.fail_node(beta_leader)
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    net.run(1.0)
    assert sender._outbox
    net.field.fail_node(alpha_leader)
    net.field.motes[alpha_leader].reboot()
    assert not sender._outbox
    assert not sender._pending
    assert len(sender.table) == 0
    before = sender.retransmitted
    net.run(10.0)  # any armed retransmit timer must have gone quiet
    assert sender.retransmitted == before


def test_an_ack_during_the_escalation_lookup_ends_the_send():
    # Regression: a send escalated while its ack was still on the way
    # back; the late ack ended it, and the lookup's answer then tried to
    # transmit a send the outbox no longer held and aborted the run.
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    handlers = sender.router._handlers
    deliver_ack = handlers[MTP_ACK_KIND]
    held = []
    handlers[MTP_ACK_KIND] = lambda ack, origin: held.append((ack, origin))
    escalate = sender._escalate

    def escalate_then_ack(pending):
        escalate(pending)
        assert beta_label in sender._pending  # the lookup is in flight
        deliver_ack(*held.pop(0))

    sender._escalate = escalate_then_ack
    sender.table.update(beta_label, beta_leader, net.sim.now)
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    # No pointer at the timeout: the send escalates at once.
    sender.table.forget(beta_label)
    net.run(10.0)
    assert len(net.records("mtp.escalate", alpha_leader)) == 1
    assert beta_label not in sender._pending  # the lookup answered
    assert received == [{"ping": 1}]
    assert sender.acked == 1 and not sender._outbox
    assert net.records("mtp.retransmit", alpha_leader) == []


@pytest.mark.parametrize("answer", ["empty", "other_label"])
def test_an_ack_during_the_escalation_lookup_leaves_no_drop(answer):
    # Regression: the late ack ended the send while its escalation
    # lookup was out; an answer of [] or one without the label then
    # recorded an mtp.drop for a send that was delivered and acked.
    from repro.naming import DirectoryEntry
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    handlers = sender.router._handlers
    deliver_ack = handlers[MTP_ACK_KIND]
    held = []
    handlers[MTP_ACK_KIND] = lambda ack, origin: held.append((ack, origin))
    entries = [] if answer == "empty" else [DirectoryEntry(
        label="beta#9.9", context_type="beta", location=(0.0, 0.0),
        leader=3, updated=0.0)]
    sender.directory.lookup = lambda context_type, callback: \
        net.sim.schedule(1.0, callback, entries)
    escalate = sender._escalate

    def escalate_then_ack(pending):
        escalate(pending)
        assert beta_label in sender._pending  # the lookup is in flight
        deliver_ack(*held.pop(0))

    sender._escalate = escalate_then_ack
    sender.table.update(beta_label, beta_leader, net.sim.now)
    sender.invoke(alpha_label, beta_label, 5, {"ping": 1})
    # No pointer at the timeout: the send escalates at once.
    sender.table.forget(beta_label)
    net.run(10.0)
    assert len(net.records("mtp.escalate", alpha_leader)) == 1
    assert beta_label not in sender._pending  # the lookup answered
    assert received == [{"ping": 1}]
    assert sender.acked == 1 and not sender._outbox
    assert net.records("mtp.drop", alpha_leader) == []
    assert net.records("mtp.dead_letter", alpha_leader) == []
    messages = net.sim.metrics.get("repro_mtp_messages_total")
    assert messages.value("delivered") == 1.0
    assert messages.value("dropped") == 0.0


def queue_three_then_power_cycle(reliability=None):
    """Three invocations queue behind one lookup; right after the answer
    sends the first and paces the other two, the sender crashes and
    reboots.  The first send is still in the sender's CPU then."""
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=reliability)
    sender = net.mtp[alpha_leader]
    for n in range(3):
        sender.invoke(alpha_label, beta_label, 5, {"n": n})
    assert len(sender._pending[beta_label]) == 3
    while beta_label in sender._pending:
        net.sim.run(max_events=1)
    net.field.fail_node(alpha_leader)
    net.field.motes[alpha_leader].reboot()
    return net, sender, received


def test_reboot_does_not_resurrect_a_wiped_burst_release():
    # Regression: a crash and reboot of the sender wipes all three from
    # the outbox, but the paced releases still fired and re-tracked the
    # two that waited, so the rebooted sender retransmitted sends its
    # crash had ended.
    net, sender, received = queue_three_then_power_cycle(RELIABLE)
    assert not sender._outbox
    net.run(10.0)
    assert received == []
    assert not sender._outbox
    assert net.records("mtp.retransmit", sender.node_id) == []


def test_reboot_drops_a_raw_burst_release():
    # Regression: fire-and-forget sends have no outbox, so the paced
    # releases of the two that waited outlived the crash and went on
    # the air after the reboot, and the first send, in the CPU at the
    # crash, ran after it too.
    net, sender, received = queue_three_then_power_cycle()
    net.run(10.0)
    assert received == []
    assert [record for record in net.records("radio.tx", sender.node_id)
            if record.detail["kind"] == "geo.data"
            and record.time > net.sim.now - 10.0] == []


def test_rebooted_sender_starts_a_new_stream():
    # Regression: a rebooted sender counts from seq 1 again, and the
    # receiver, which remembered seq 1 from before the crash, suppressed
    # and acked the new send: silent loss reported as success.
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    sender = net.mtp[alpha_leader]
    sender.invoke(alpha_label, beta_label, 5, {"n": 1})
    net.run(5.0)
    net.field.fail_node(alpha_leader)
    net.field.motes[alpha_leader].reboot()
    sender.invoke(alpha_label, beta_label, 5, {"n": 2})
    net.run(10.0)
    assert received == [{"n": 1}, {"n": 2}]
    assert net.records("mtp.duplicate") == []


def test_new_leader_of_the_source_label_starts_a_new_stream():
    # Regression: MTP connects labels, not nodes.  After a handover of
    # the source label its new leader counts from seq 1, and the
    # receiver suppressed and acked that first send as a duplicate of
    # the old leader's seq 1, with no crash at all.
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE)
    net.mtp[alpha_leader].invoke(alpha_label, beta_label, 5, {"n": 1})
    net.sensing["alpha"] = {0, 1}
    net.run(3.0)
    net.sensing["alpha"] = {1}
    net.run(5.0)
    assert net.groups[1].is_leading("alpha")
    assert net.groups[1].label("alpha") == alpha_label
    net.mtp[1].invoke(alpha_label, beta_label, 5, {"n": 2})
    net.run(10.0)
    assert received == [{"n": 1}, {"n": 2}]
    assert net.records("mtp.duplicate") == []


def test_one_escalation_per_directory_verdict():
    # Regression: the agent armed its own lookup deadline next to the
    # directory's, and the two tied (2 x 3 s), so one outage escalated
    # twice at once and left two lookups in flight.  Now each directory
    # verdict spends one escalation.
    net = Net(reliability=RELIABLE)
    net.sensing = {"alpha": {0}}
    net.run(3.0)
    alpha_leader, alpha_label = net.register_label("alpha")
    net.run(2.0)
    for agent in net.mtp.values():  # every directory query vanishes
        agent.router._handlers[QUERY_KIND] = lambda query, origin: None
    sender = net.mtp[alpha_leader]
    start = net.sim.now
    sender.invoke(alpha_label, "ghost#1.1", 5, {})
    net.run(30.0)

    def offsets(category):
        return [record.time - start
                for record in net.records(category, alpha_leader)]

    assert offsets("mtp.escalate") == pytest.approx([6.0, 12.0])
    assert [record.detail["round"] for record in
            net.records("mtp.escalate", alpha_leader)] == [1, 2]
    assert offsets("mtp.dead_letter") == pytest.approx([18.0])
    retries = offsets("dir.lookup_retry")
    assert retries == pytest.approx([3.0, 9.0, 15.0])
    assert all(later - earlier >= 3.0 - 1e-9
               for earlier, later in zip(retries, retries[1:]))
    assert not sender._pending and not sender._outbox


# ----------------------------------------------------------------------
# Property: one lookup per label, one end per send
# ----------------------------------------------------------------------
sends = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=4.0),
              st.sampled_from(["beta", "ghost"])),
    min_size=1, max_size=6)
crashes = st.none() | st.tuples(st.floats(min_value=0.0, max_value=5.0),
                                st.floats(min_value=0.0, max_value=2.0))


@given(sends=sends, loss=st.floats(min_value=0.0, max_value=0.2),
       crash=crashes)
@settings(max_examples=12)
def test_one_lookup_per_label_and_one_end_per_send(sends, loss, crash):
    """Whatever the send times, losses and sender crash: the sender never
    asks the directory about a label it already awaits, and each
    sequenced invocation ends exactly once — acked, dead-lettered or
    wiped by the crash — with no ``mtp.*`` record while the sender is
    dead."""
    net, alpha_leader, alpha_label, beta_leader, beta_label, received = \
        build_pair(reliability=RELIABLE, base_loss_rate=loss)
    sender = net.mtp[alpha_leader]
    mote = net.field.motes[alpha_leader]
    dests = {"beta": beta_label, "ghost": "ghost#1.1"}
    state = {"epoch": 0}
    awaited = set()  # context types (one label each) with a lookup out
    opened, wiped = [], set()
    ends = collections.Counter()
    lookup, track, record = \
        sender.directory.lookup, sender._track, sender.record

    def checked_lookup(context_type, callback):
        assert context_type not in awaited, \
            f"second lookup in flight for {context_type}"
        awaited.add(context_type)

        def answered(entries):
            awaited.discard(context_type)
            callback(entries)

        lookup(context_type, answered)

    def counted_track(invocation):
        opened.append((state["epoch"], invocation.dest_label,
                       invocation.seq))
        return track(invocation)

    def checked_record(category, **detail):
        assert mote.alive, f"dead sender wrote mtp.{category}"
        if category in ("ack", "dead_letter"):
            ends[state["epoch"], detail["dest"], detail["seq"]] += 1
        record(category, **detail)

    sender.directory.lookup = checked_lookup
    sender._track = counted_track
    sender.record = checked_record
    mote.add_fail_hook(awaited.clear)  # the crash drops the lookups

    def send(dest):
        if mote.alive:
            sender.invoke(alpha_label, dest, 5, {})

    for delay, kind in sends:
        net.sim.schedule(delay, send, dests[kind])
    if crash is not None:
        crash_at, down_for = crash

        def fail():
            wiped.update((state["epoch"], conn[2], seq)
                         for (conn, _, _), seq in sender._outbox)
            state["epoch"] += 1
            net.field.fail_node(alpha_leader)

        net.sim.schedule(crash_at, fail)
        net.sim.schedule(crash_at + down_for, mote.reboot)
    net.run(70.0)

    assert not sender._outbox and not sender._pending
    assert len(set(opened)) == len(opened)
    for key in opened:
        assert ends[key] + (key in wiped) == 1, key
    assert sum(ends.values()) + len(wiped) == len(opened)
