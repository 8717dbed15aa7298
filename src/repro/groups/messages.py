"""Group-management messages and context-label identity.

Each message is an immutable object: the sender makes one per broadcast
and every receiver of the frame reads that same object.

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


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader keep-alive (§5.2).

    Carries everything the protocol piggybacks on heartbeats: the leader's
    identity, the label's weight (for spurious-label suppression), optional
    persistent application state (the ``setState`` mechanism), and a
    remaining flood hop count for propagation past the group perimeter.
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


@dataclass(frozen=True, slots=True)
class Relinquish:
    """Explicit leadership handoff request, sent when the leader no longer
    senses the tracked entity (§5.2's relinquish mechanism)."""

    context_type: str
    label: str
    leader: int
    weight: int
    state: Optional[Dict[str, Any]] = None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
