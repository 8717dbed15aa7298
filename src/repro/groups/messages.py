"""Group-management wire messages and context-label identity.

A *context label* is the persistent identity of a tracked entity (§3.2):
"even though the vehicles move and the sensor nodes comprising their
corresponding objects will change, the context labels will not".  Labels
are minted by the node that first detects an unclaimed stimulus; the id
embeds the context type, the creator and a creation sequence number, so
labels are globally unique without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..radio import Frame

#: Frame kinds.
HEARTBEAT_KIND = "gm.heartbeat"
RELINQUISH_KIND = "gm.relinquish"
QUERY_KIND = "gm.query"
VOUCH_KIND = "gm.vouch"


def mint_label(context_type: str, creator: int, sequence: int) -> str:
    """Create a globally unique context label id.

    Uniqueness comes from (creator, per-creator sequence), with no global
    state: any two nodes mint distinct labels, and the same node's labels
    are ordered.  Keeping the sequence per-creator (not process-global)
    makes label names deterministic per seed even across multiple
    simulations in one process.
    """
    return f"{context_type}#{creator}.{sequence}"


def label_type(label: str) -> str:
    """Extract the context type from a label id."""
    return label.split("#", 1)[0]


@dataclass(frozen=True)
class Heartbeat:
    """Leader keep-alive (§5.2).

    Carries everything the protocol piggybacks on heartbeats: the leader's
    identity, the label's weight (for spurious-label suppression), optional
    persistent application state (the ``setState`` mechanism), and a
    remaining flood hop count for propagation past the group perimeter.

    Immutable: every receiver of one heartbeat frame shares the single
    decoded instance (:meth:`of_frame`).
    """

    context_type: str
    label: str
    leader: int
    weight: int
    seq: int
    state: Optional[Dict[str, Any]] = None
    hops: int = 0
    #: Leader's field position at send time.  Cross-label decisions
    #: (spurious-label suppression, member switching) use it to check that
    #: two labels plausibly track the *same* physical stimulus — distant
    #: same-type groups must "remain distinct ... as long as the tracked
    #: entities are physically separated".
    leader_pos: Optional[tuple] = None
    #: Original sender when forwarded by a member (for tracing).
    forwarded_by: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "context_type": self.context_type,
            "label": self.label,
            "leader": self.leader,
            "weight": self.weight,
            "seq": self.seq,
            "state": self.state,
            "hops": self.hops,
            "leader_pos": (None if self.leader_pos is None
                           else [self.leader_pos[0], self.leader_pos[1]]),
            "forwarded_by": self.forwarded_by,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> Optional["Heartbeat"]:
        """Parse; None when malformed (never crash on corrupt frames)."""
        try:
            raw_pos = payload.get("leader_pos")
            leader_pos = (None if raw_pos is None
                          else (float(raw_pos[0]), float(raw_pos[1])))
            return cls(
                context_type=payload["context_type"],
                label=payload["label"],
                leader=int(payload["leader"]),
                weight=int(payload["weight"]),
                seq=int(payload["seq"]),
                state=payload.get("state"),
                hops=int(payload.get("hops", 0)),
                leader_pos=leader_pos,
                forwarded_by=payload.get("forwarded_by"),
            )
        except (KeyError, TypeError, ValueError, IndexError):
            return None

    @classmethod
    def of_frame(cls, frame: Frame) -> Optional["Heartbeat"]:
        """The frame's payload parsed once per frame, not per reception.

        The first receiver's parse is memoized on the frame and shared by
        every other receiver (and every handler) of the same broadcast.
        """
        memo = frame.decoded
        if memo is not None and memo[0] is cls:
            return memo[1]
        beat = cls.from_payload(frame.payload)
        frame.decoded = (cls, beat)
        return beat


@dataclass
class Relinquish:
    """Explicit leadership handoff request, sent when the leader no longer
    senses the tracked entity (§5.2's relinquish mechanism)."""

    context_type: str
    label: str
    leader: int
    weight: int
    state: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "context_type": self.context_type,
            "label": self.label,
            "leader": self.leader,
            "weight": self.weight,
            "state": self.state,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]
                     ) -> Optional["Relinquish"]:
        try:
            return cls(
                context_type=payload["context_type"],
                label=payload["label"],
                leader=int(payload["leader"]),
                weight=int(payload["weight"]),
                state=payload.get("state"),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass
class LeaderQuery:
    """Liveness probe a member broadcasts when its receive timer expires.

    Before usurping leadership, the member asks "is the leader of this
    label still alive?".  The leader answers with an immediate (defence)
    heartbeat; fellow members answer with a :class:`LeaderVouch` carrying
    the age of their freshest direct heartbeat.  Either response cancels
    the takeover, so a member that merely lost two heartbeats to channel
    noise no longer creates a duplicate leader.
    """

    context_type: str
    label: str
    sender: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "context_type": self.context_type,
            "label": self.label,
            "sender": self.sender,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]
                     ) -> Optional["LeaderQuery"]:
        try:
            return cls(
                context_type=payload["context_type"],
                label=payload["label"],
                sender=int(payload["sender"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass
class LeaderVouch:
    """Second-hand heartbeat freshness, sent in answer to a LeaderQuery.

    ``age`` is the time since the voucher *directly* heard the leader, so
    the prober can restart its receive timer with the remaining budget
    (``receive_timeout − age``) instead of a full timeout.  Ages only
    grow after a real leader death, which keeps the takeover latency
    bound at one receive timeout measured from the last heartbeat anyone
    heard.
    """

    context_type: str
    label: str
    leader: int
    weight: int
    age: float
    sender: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "context_type": self.context_type,
            "label": self.label,
            "leader": self.leader,
            "weight": self.weight,
            "age": self.age,
            "sender": self.sender,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]
                     ) -> Optional["LeaderVouch"]:
        try:
            age = float(payload["age"])
            if age < 0:
                return None
            return cls(
                context_type=payload["context_type"],
                label=payload["label"],
                leader=int(payload["leader"]),
                weight=int(payload["weight"]),
                age=age,
                sender=int(payload["sender"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
