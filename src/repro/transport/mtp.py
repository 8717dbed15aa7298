"""MTP — the transport layer protocol (§5.4).

Context labels are "akin to IP addresses"; the group leader of a label
oversees all communication addressed to it.  Remote method invocation
between tracking objects works like this:

1. the source object's leader resolves the destination label to a node:
   first its *last-known-leader* LRU table, falling back to a directory
   lookup ("the directory services ... determine where an object is when
   it is first contacted");
2. the message travels by geographic routing to that node, carrying the
   source's current leader in the header;
3. a node receiving an MTP message for a label it no longer leads forwards
   it along its own last-known-leader pointer — "messages from moderately
   out-of-date remote senders can be forwarded along a chain of past
   leaders to the current leader";
4. every endpoint updates its table from the header, so "the more traffic
   exchanged between the endpoints, the more up-to-date the leader
   information is".

Connections are identified by (source label:port, destination label:port);
port ids map to methods of individual tracking objects.

On top of the paper's fire-and-forget scheme this agent optionally layers
reliable delivery (:mod:`repro.transport.reliability`): per-connection
sequence numbers, ``mtp.ack`` frames from the delivering leader,
deterministic retransmission with exponential backoff + seeded jitter,
receiver-side dedup for at-most-once handler delivery, and — when the
retransmit budget runs out — escalation (invalidate the stale leader
pointer, fresh directory lookup) before the message dead-letters (an
``mtp.dead_letter`` record with its reason).  Pass
``reliability=ReliabilityConfig(...)`` to enable; the receive path
acks/dedups sequenced invocations regardless, so mixed fleets
interoperate.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..groups import GroupManager, HEARTBEAT_KIND, Heartbeat, label_type
from ..node import Component, Mote
from ..telemetry.registry import Counter, RecordFamily, merged, summed

if TYPE_CHECKING:  # avoid the naming↔transport import cycle at runtime
    from ..naming import DirectoryEntry, DirectoryService
from .reliability import (Ack, ConnectionKey, DedupShare, DedupTable,
                          MTP_ACK_KIND, MTP_DEDUP_KIND, PendingTransmission,
                          ReliabilityConfig, RELIABILITY_STREAM, StreamKey)
from .routing import GeoRouter
from .tables import LastKnownLeaderTable, NegativeCache

MTP_KIND = "mtp.invoke"

#: The trace record of each final per-hop outcome.
_OUTCOMES = {"mtp.deliver": "delivered", "mtp.forward": "forwarded",
             "mtp.drop": "dropped", "mtp.dead_letter": "dead_lettered",
             "mtp.duplicate": "duplicate"}

#: MTP's families tallied by trace records.
RECORD_FAMILIES: Tuple[RecordFamily, ...] = (
    (Counter, "repro_mtp_messages_total",
     "MTP invocations by final per-hop outcome.", ("outcome",),
     merged(lambda records: collections.Counter(
         _OUTCOMES[record.category] for record in records
         if record.category in _OUTCOMES))),
    (Counter, "repro_mtp_drops_total", "MTP drops by reason.",
     ("reason",),
     merged(lambda records: collections.Counter(
         record.detail.get("reason") for record in records
         if record.category in ("mtp.drop", "mtp.dead_letter")))),
    (Counter, "repro_mtp_retransmits_total",
     "Reliable-MTP retransmissions.", (),
     summed(lambda records: sum(record.category == "mtp.retransmit"
                                for record in records))),
)
#: Maximum forwarding-chain length before a message is dropped.
DEFAULT_CHAIN_LIMIT = 8

#: Invocations queueable behind one in-flight directory lookup; beyond
#: this the newest send drops with reason ``pending_overflow``.
PENDING_LIMIT = 32

#: Pacing between invocations released from one resolved lookup queue.
#: Releasing a deep backlog in a single instant makes the backlog's own
#: frames collide with each other along the route (hidden terminals);
#: a small fixed spacing keeps the burst off its own toes.
BURST_SPACING = 0.05


#: Handler signature: (args, source_label, source_port, source_leader).
PortHandler = Callable[[Dict[str, Any], str, int, int], None]


@dataclass(frozen=True, slots=True)
class Invocation:
    """One remote method invocation in flight: the ``mtp.invoke`` message.

    Immutable, so one object serves the outbox and every hop's frame;
    forwarding and sequencing make a new one (``dataclasses.replace``).
    """

    src_label: str
    src_port: int
    src_leader: int
    dest_label: str
    dest_port: int
    args: Dict[str, Any]
    chain: int = DEFAULT_CHAIN_LIMIT
    #: Reliable-delivery sequence number; None on fire-and-forget sends.
    seq: Optional[int] = None
    #: The sending leader's boot count when it sent.
    boot: int = 0

    def connection(self) -> ConnectionKey:
        """The §5.4 connection this invocation belongs to."""
        return (self.src_label, self.src_port,
                self.dest_label, self.dest_port)

    def stream(self) -> StreamKey:
        """The sequence this invocation's ``seq`` counts in: the
        connection as sent by one leader in one boot."""
        return (self.connection(), self.src_leader, self.boot)


class MtpAgent(Component):
    """MTP endpoint on one mote.

    Parameters
    ----------
    mote, router, groups:
        Host mote, its geographic router and group manager.
    directory:
        The mote's directory service, asked on first contact with a label
        and when a reliable send escalates.
    reliability:
        Reliable-delivery configuration; None (default) keeps the paper's
        fire-and-forget sends.  Receiving stays reliable-aware either way.

    The last-known-leader table holds :data:`LEADER_TABLE_CAPACITY`
    labels, an "unknown label" verdict is cached for :data:`NEGATIVE_TTL`
    seconds, and at most :data:`PENDING_LIMIT` invocations queue behind
    one directory lookup.  A label has at most one lookup in flight: its
    queue opens with the lookup and closes when the directory calls back,
    which it does exactly once — with the entries, or ``[]`` once its
    timeout and retry budget are spent — so the directory's callback is
    the only deadline on the wait.

    Every outcome is a trace record (``mtp.deliver``, ``mtp.forward``,
    ``mtp.drop``, ``mtp.duplicate``, ``mtp.ack``, ``mtp.retransmit``,
    ``mtp.escalate``, ``mtp.dead_letter``) and the agent keeps no other
    copy of it, except the counts ``perfbench`` reads (``delivered``,
    ``acked``, ``retransmitted``, ``dead_lettered``) and the ack-frame
    tally ``acks``.

    A crash ends every piece of transport RAM — pointers, pending
    queues, unacked sends, sequence counters, dedup memory — and stops
    its timers, and the directory drops the mote's lookups without
    calling back, so a dead mote's agent neither escalates nor
    dead-letters.  Sequence numbers count per stream (PROTOCOL.md §8).
    """

    name = "mtp"

    def __init__(self, mote: Mote, router: GeoRouter, groups: GroupManager,
                 directory: "DirectoryService",
                 reliability: Optional[ReliabilityConfig] = None) -> None:
        super().__init__(mote)
        self.router = router
        self.groups = groups
        self.directory = directory
        self.table = LastKnownLeaderTable()
        self.reliability = reliability
        self._ports: Dict[Tuple[str, int], PortHandler] = {}
        #: Invocations waiting on the one directory lookup of their label.
        self._pending: Dict[str, List[Invocation]] = {}
        #: The last sequence number given out per connection (1-based).
        self._sequences: Dict[ConnectionKey, int] = {}
        self._outbox: Dict[Tuple[StreamKey, int],
                           PendingTransmission] = {}
        self._dedup = DedupTable()
        self._negative = NegativeCache()
        self.delivered = 0
        self.acked = 0
        self.retransmitted = 0
        self.dead_lettered = 0
        #: Ack frames ``sent`` and ``received`` (duplicates included).
        self.acks: "collections.Counter[str]" = collections.Counter()
        metrics = self.sim.metrics
        metrics.record_views(RECORD_FAMILIES, self.sim.trace)
        metrics.view(Counter, "repro_mtp_acks_total",
                     "MTP ack frames by direction.", ("direction",),
                     merged(lambda agent: agent.acks), self)

    def _jitter_rng(self):
        return self.sim.rng.stream(RELIABILITY_STREAM)

    def on_start(self) -> None:
        self.router.register_delivery(MTP_KIND, self._on_invocation)
        self.router.register_delivery(MTP_ACK_KIND, self._on_ack)
        self.handle(MTP_DEDUP_KIND, self._on_dedup_share)
        # Forwarding pointers come for free from overheard heartbeats: a
        # past leader stays in radio range of its successor for a while and
        # keeps its pointer fresh from the successor's keep-alives.
        self.handle(HEARTBEAT_KIND, self._on_heartbeat)
        self.mote.add_fail_hook(self._on_fail)

    # ------------------------------------------------------------------
    # Port registry
    # ------------------------------------------------------------------
    def register_port(self, context_type: str, port: int,
                      handler: PortHandler) -> None:
        """Bind ``port`` of objects attached to ``context_type``.

        The handler runs on whichever node currently leads a label of the
        type when an invocation for that label arrives.
        """
        key = (context_type, port)
        if key in self._ports:
            raise ValueError(f"port {port} of {context_type!r} taken")
        self._ports[key] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def invoke(self, src_label: str, dest_label: str, dest_port: int,
               args: Dict[str, Any], src_port: int = 0) -> None:
        """Invoke ``dest_port`` on the object attached to ``dest_label``."""
        invocation = Invocation(
            src_label=src_label, src_port=src_port,
            src_leader=self.node_id, dest_label=dest_label,
            dest_port=dest_port, args=args, boot=self.mote.boot)
        self._resolve_and_send(invocation)

    def _resolve_and_send(self, invocation: Invocation) -> None:
        dest_label = invocation.dest_label
        if self.reliability is not None and invocation.seq is None:
            # Reliable sends join the outbox *here*, before resolution:
            # a failure during the lookup phase must escalate / dead-letter
            # through the same machinery as a failure on the wire, not
            # vanish as an anonymous drop.  The retransmit timer is armed
            # on first transmission.
            conn = invocation.connection()
            seq = self._sequences.get(conn, 0) + 1
            self._sequences[conn] = seq
            invocation = replace(invocation, seq=seq)
            self._track(invocation)
        if self._negative.fresh(dest_label, self.now):
            self._drop(invocation, "negative_cache")
            return
        pointer = self.table.get(dest_label)
        if pointer is not None:
            self._transmit(pointer.leader, invocation)
            return
        self._enqueue_lookup(invocation)

    def _enqueue_lookup(self, invocation: Invocation) -> None:
        """Park the invocation behind the directory lookup of its
        destination label, opening the queue with a lookup if none is in
        flight."""
        dest_label = invocation.dest_label
        queue = self._pending.setdefault(dest_label, [])
        if len(queue) >= PENDING_LIMIT:
            self._drop(invocation, "pending_overflow")
            return
        queue.append(invocation)
        if len(queue) > 1:
            return  # lookup already in flight
        self.directory.lookup(
            label_type(dest_label),
            lambda entries: self._lookup_done(dest_label, entries))

    def _lookup_done(self, dest_label: str,
                     entries: List["DirectoryEntry"]) -> None:
        # The queue's one lookup answered; a crash would have dropped
        # both, so the queue is still open.
        waiting = self._pending.pop(dest_label)
        match = next((entry for entry in entries
                      if entry.label == dest_label), None)
        if match is None:
            # Negative-cache only the *authoritative* miss: the directory
            # answered with the type's labels and ours is not among them.
            # An empty list is ambiguous — lookup timeout, or a type
            # nobody has registered *yet* — and caching it would blackhole
            # sends for the whole TTL on a transient race.
            if entries and waiting:
                self._negative.store(dest_label, self.now)
            for invocation in waiting:
                if not entries and invocation.seq is not None:
                    # Ambiguous empty answer: reliable sends spend an
                    # escalation on another lookup round instead of
                    # dying on what may just be a timed-out query.
                    pending = self._outbox.get((invocation.stream(),
                                                invocation.seq))
                    if pending is not None:
                        self._escalate(pending)
                        continue
                self._drop(invocation, "unknown_label")
            return
        self.table.update(dest_label, match.leader, match.updated)
        for index, invocation in enumerate(waiting):
            if index == 0:
                self._transmit(match.leader, invocation)
            else:
                self.mote.schedule(index * BURST_SPACING, self._transmit,
                                   match.leader, invocation,
                                   label=f"mtp.burst@{self.node_id}")

    def _transmit(self, node: int, invocation: Invocation) -> None:
        """Put one invocation on the wire; a sequenced one also arms its
        retransmit timer."""
        if invocation.seq is not None:
            pending = self._outbox.get((invocation.stream(),
                                        invocation.seq))
            if pending is None:
                # A late ack of an escalated send ended it while it
                # waited for the lookup or its burst release.
                return
            self._arm_retransmit(pending)
        self.router.route_to_node(node, MTP_KIND, invocation)

    # ------------------------------------------------------------------
    # Reliable delivery: retransmission, escalation, dead letters
    # ------------------------------------------------------------------
    def _track(self, invocation: Invocation) -> PendingTransmission:
        """Open the outbox entry of a sequenced invocation, with its
        (unarmed) retransmit timer."""
        key = (invocation.stream(), invocation.seq)
        pending = PendingTransmission(
            invocation=invocation,
            timer=self.sim.timers.create(
                partial(self._on_retransmit_timeout, key),
                label=f"mtp.rto@{self.node_id}"))
        self._outbox[key] = pending
        return pending

    def _arm_retransmit(self, pending: PendingTransmission) -> None:
        delay = self.reliability.retry_delay(pending.attempts,
                                             self._jitter_rng())
        self.sim.timers.arm(pending.timer, delay)

    def _on_retransmit_timeout(self, key: Tuple[StreamKey, int]) -> None:
        # An ack, a dead letter or a crash cancels the timer, so the
        # pending send is still in the outbox.
        pending = self._outbox[key]
        config = self.reliability
        dest_label = pending.invocation.dest_label
        if pending.attempts >= config.max_retries:
            self._escalate(pending)
            return
        pointer = self.table.get(dest_label)
        if pointer is None or pointer.leader == self.node_id:
            # Nothing sane to retransmit to — skip straight to the
            # directory (a self-pointer cannot make progress either).
            self._escalate(pending)
            return
        pending.attempts += 1
        self.retransmitted += 1
        self.record("retransmit", dest=dest_label,
                    seq=pending.invocation.seq, attempt=pending.attempts,
                    next=pointer.leader)
        self._arm_retransmit(pending)
        self.router.route_to_node(pointer.leader, MTP_KIND,
                                  pending.invocation)

    def _escalate(self, pending: PendingTransmission) -> None:
        """Retry budget exhausted: invalidate the stale pointer and fall
        back to a fresh directory lookup — dead-letter only after that."""
        config = self.reliability
        dest_label = pending.invocation.dest_label
        if pending.escalations >= config.max_escalations:
            self._dead_letter(pending, "retry_exhausted")
            return
        pending.escalations += 1
        pending.attempts = 0
        self.table.forget(dest_label)
        self._negative.forget(dest_label)
        self.record("escalate", dest=dest_label,
                    seq=pending.invocation.seq, round=pending.escalations)
        self._enqueue_lookup(pending.invocation)

    def _dead_letter(self, pending: PendingTransmission,
                     reason: str) -> None:
        invocation = pending.invocation
        self._outbox.pop((invocation.stream(), invocation.seq), None)
        self.sim.timers.cancel(pending.timer)
        self.dead_lettered += 1
        self.record("dead_letter", dest=invocation.dest_label,
                    seq=invocation.seq, reason=reason)

    def _drop(self, invocation: Invocation, reason: str) -> None:
        """Final-drop bookkeeping; sequenced invocations dead-letter, and
        one a late ack already ended leaves no record."""
        if invocation.seq is not None:
            pending = self._outbox.get((invocation.stream(),
                                        invocation.seq))
            if pending is not None:
                self._dead_letter(pending, reason)
            return
        self.record("drop", reason=reason, dest=invocation.dest_label)

    # ------------------------------------------------------------------
    # Receiving / forwarding
    # ------------------------------------------------------------------
    def _on_invocation(self, invocation: Any, origin: int) -> None:
        if not isinstance(invocation, Invocation):
            return
        # Header learning: remember the source's current leader.
        self.table.update(invocation.src_label, invocation.src_leader,
                          self.now)
        if invocation.dest_label in self.groups.labels_led():
            self._deliver(invocation)
            return
        self._forward(invocation)

    def _deliver(self, invocation: Invocation) -> None:
        handler = self._ports.get(
            (label_type(invocation.dest_label), invocation.dest_port))
        if handler is None:
            self.record("drop", reason="no_port",
                        dest=invocation.dest_label,
                        port=invocation.dest_port)
            return
        if invocation.seq is not None:
            if not self._dedup.mark(invocation.stream(), invocation.seq):
                # At-most-once: suppress the handler, re-ack (the first
                # ack evidently never reached the sender).
                self.record("duplicate", dest=invocation.dest_label,
                            seq=invocation.seq, src=invocation.src_label)
                self._send_ack(invocation)
                return
        self.delivered += 1
        self.record("deliver", dest=invocation.dest_label,
                    port=invocation.dest_port, src=invocation.src_label)
        # Each delivery gets its own args: a handler that edits them
        # cannot alter the sender's retransmissions.
        handler(dict(invocation.args), invocation.src_label,
                invocation.src_port, invocation.src_leader)
        if invocation.seq is not None:
            self._send_ack(invocation)
            # One-hop dedup share: takeover candidates are group members,
            # hence in radio range — pre-warming their tables lets a
            # successor leader suppress (and re-ack) a post-crash
            # redelivery instead of handing it to the application twice.
            self.broadcast(MTP_DEDUP_KIND,
                           DedupShare(invocation.stream(), invocation.seq))

    def _send_ack(self, invocation: Invocation) -> None:
        self.acks["sent"] += 1
        self.router.route_to_node(
            invocation.src_leader, MTP_ACK_KIND,
            Ack(invocation.stream(), invocation.seq, self.node_id))

    def _on_dedup_share(self, frame) -> None:
        share = frame.payload
        if isinstance(share, DedupShare):
            self._dedup.mark(share.stream, share.seq)

    def _on_ack(self, ack: Any, origin: int) -> None:
        if not isinstance(ack, Ack):
            return
        self.acks["received"] += 1
        dest_label = ack.stream[0][2]
        # The acker delivered to the handler, so it leads the destination
        # label *now* — fresher than any pointer.
        self.table.update(dest_label, ack.acker, self.now)
        pending = self._outbox.pop((ack.stream, ack.seq), None)
        if pending is None:
            return  # duplicate ack, or one from before the last crash
        self.sim.timers.cancel(pending.timer)
        self.acked += 1
        self.record("ack", dest=dest_label, seq=ack.seq, acker=ack.acker)

    def _forward(self, invocation: Invocation) -> None:
        """Past-leader forwarding: push the message one pointer closer to
        the label's current leader."""
        if invocation.chain <= 0:
            self.record("drop", reason="chain_exhausted",
                        dest=invocation.dest_label)
            return
        pointer = self.table.get(invocation.dest_label)
        if pointer is None or pointer.leader == self.node_id:
            if pointer is not None:
                # A pointer naming *us* for a label we do not lead is a
                # dead end that can never improve on its own; evict it so
                # the next send re-resolves instead of re-dropping.
                self.table.forget(invocation.dest_label)
            self.record("drop", reason="no_pointer",
                        dest=invocation.dest_label)
            return
        self.record("forward", dest=invocation.dest_label,
                    next=pointer.leader)
        self.router.route_to_node(
            pointer.leader, MTP_KIND,
            replace(invocation, chain=invocation.chain - 1))

    # ------------------------------------------------------------------
    def _on_heartbeat(self, frame) -> None:
        beat = frame.payload
        if isinstance(beat, Heartbeat):
            self.table.update(beat.label, beat.leader, self.sim._now)

    def _on_fail(self) -> None:
        """Crash: wipe every piece of volatile transport state and stop
        its timers (a reboot, which always follows a crash, then starts
        from empty RAM)."""
        timers = self.sim.timers
        for pending in self._outbox.values():
            timers.cancel(pending.timer)
        self._outbox.clear()
        self._pending.clear()
        self._sequences.clear()
        self._dedup.clear()
        self.table.clear()
        self._negative.clear()
