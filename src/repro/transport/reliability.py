"""Reliable MTP delivery: sequencing, acknowledgements, dedup, dead letters.

The paper's transport story (§5.4) assumes invocations survive "moderately
out-of-date" leader pointers because messages are forwarded along a chain
of past leaders.  A *lost* frame, a crashed leader mid-chain, or a dropped
directory response is outside that story: fire-and-forget MTP silently
loses the invocation.  This module supplies the end-to-end retry
discipline real deployments layer on top:

* **Connections** — MTP already names conversations by
  ``(src_label:port → dest_label:port)``; reliable delivery gives each
  connection its own monotonically increasing sequence numbers.
* **Acknowledgements** — the node that *delivers* an invocation to a
  handler unicasts an ``mtp.ack`` frame back to the sender's leader.
* **Retransmission** — unacked invocations retransmit on a deterministic
  exponential-backoff schedule.  The jitter that de-synchronizes
  retransmit storms is drawn from the simulation's seeded
  ``mtp.reliability`` stream, so identical seeds replay identical retry
  timelines (digest-stable, serial and ``--jobs N`` alike).
* **Dedup** — receivers remember recently seen ``(stream, seq)`` pairs
  (a stream: a connection as sent by one leader in one boot) in a
  bounded LRU of :data:`DEDUP_CONNECTIONS` streams × :data:`DEDUP_WINDOW`
  sequence numbers, so retransmissions reach the handler *at most once*.
* **Dead letters** — when the retransmit budget and the escalation
  budget (pointer invalidation + fresh directory lookup) are both
  exhausted, the message ends in an ``mtp.dead_letter`` trace record
  with its destination, sequence number and reason instead of
  vanishing.

Caveat worth stating plainly: dedup state is per-node RAM.  A leader
crash between a delivery and its ack can hand the retransmission to the
*successor* leader, whose dedup table has never seen the stream —
end-to-end that is a duplicate.  Delivering leaders therefore broadcast
a one-hop ``mtp.dedup`` share after each fresh delivery: takeover
candidates are group members, hence in radio range, so their tables are
usually pre-warmed and the successor suppresses (and re-acks) the
redelivery.  The window is narrowed, not closed — a lost share plus a
crash still duplicates, and the chaos experiment measures how often
that happens (duplicate count), exactly like production at-least-once
systems do.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Tuple

from ..sim import TimerHandle

#: Frame kind of the acknowledgement leg (routed like ``mtp.invoke``).
MTP_ACK_KIND = "mtp.ack"

#: Frame kind of the one-hop dedup-sharing broadcast a delivering leader
#: emits after each fresh sequenced delivery.  Takeover candidates live
#: in the same sensing group — i.e. in radio range — so pre-warming their
#: dedup tables closes most of the crash-between-delivery-and-ack
#: duplicate window.
MTP_DEDUP_KIND = "mtp.dedup"

#: Named RNG stream every retransmit-jitter draw comes from.
RELIABILITY_STREAM = "mtp.reliability"

#: (src_label, src_port, dest_label, dest_port) — §5.4's connection id.
ConnectionKey = Tuple[str, int, str, int]

#: (connection, src_leader, boot) — the connection as sent by one leader
#: in one boot; sequence numbers count per stream.
StreamKey = Tuple[ConnectionKey, int, int]

#: Multiplier applied to the retransmit timeout per retransmission.
BACKOFF_FACTOR = 2.0

#: Receiver-side dedup memory: streams remembered (LRU), and sequence
#: numbers remembered per stream.
DEDUP_CONNECTIONS = 64
DEDUP_WINDOW = 128


@dataclass(frozen=True, slots=True)
class Ack:
    """The ``mtp.ack`` message: ``acker`` delivered ``(stream, seq)``."""

    stream: StreamKey
    seq: int
    acker: int


@dataclass(frozen=True, slots=True)
class DedupShare:
    """The ``mtp.dedup`` message: a neighbor leader delivered
    ``(stream, seq)``; remember it without counting a duplicate."""

    stream: StreamKey
    seq: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the reliable-delivery state machine.

    Parameters
    ----------
    ack_timeout:
        Initial retransmit timeout (seconds) — the time the sender waits
        for an ack before the first retransmission; each retransmission
        multiplies it by :data:`BACKOFF_FACTOR`.
    jitter:
        Each armed timeout is scaled by ``1 + jitter * u`` with ``u``
        uniform in [-1, 1] from the sim's ``mtp.reliability`` stream;
        0 disables jitter (and the stream is never drawn from).
    max_retries:
        Retransmissions per routing attempt before escalation.
    max_escalations:
        How many times retry exhaustion may invalidate the last-known
        -leader pointer and fall back to a fresh directory lookup before
        the message dead-letters.

    The dedup memory has fixed sizes (:data:`DEDUP_CONNECTIONS`,
    :data:`DEDUP_WINDOW`).
    """

    ack_timeout: float = 0.5
    jitter: float = 0.1
    max_retries: int = 4
    max_escalations: int = 1

    def __post_init__(self) -> None:
        _require(self.ack_timeout > 0,
                 f"ack_timeout must be positive: {self.ack_timeout}")
        _require(0.0 <= self.jitter < 1.0,
                 f"jitter must be in [0, 1): {self.jitter}")
        _require(self.max_retries >= 0,
                 f"max_retries must be >= 0: {self.max_retries}")
        _require(self.max_escalations >= 0,
                 f"max_escalations must be >= 0: {self.max_escalations}")

    def retry_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before retransmission number ``attempt + 1``.

        Deterministic given the stream state: the jitter draw is the only
        randomness, and it comes from the caller's seeded stream.
        """
        base = self.ack_timeout * BACKOFF_FACTOR ** attempt
        if self.jitter <= 0.0:
            return base
        return base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


class DedupTable:
    """Bounded memory of delivered ``(stream, seq)`` pairs.

    The :data:`DEDUP_CONNECTIONS` most recent streams are kept; within a
    stream the remembered window is the last :data:`DEDUP_WINDOW`
    distinct sequence numbers.  ``mark`` returns True exactly once per
    remembered pair, so handler delivery is at-most-once while the pair
    stays in memory.
    """

    def __init__(self) -> None:
        self._seen: "OrderedDict[StreamKey, OrderedDict[int, None]]" = \
            OrderedDict()

    def mark(self, stream: StreamKey, seq: int) -> bool:
        """Remember a pair; True on first sight, False if remembered.

        A local delivery and a neighbor leader's dedup-share broadcast
        both mark the pair; only the delivery acts on the answer.
        """
        seqs = self._seen.get(stream)
        if seqs is None:
            seqs = OrderedDict()
            self._seen[stream] = seqs
            while len(self._seen) > DEDUP_CONNECTIONS:
                self._seen.popitem(last=False)
        else:
            self._seen.move_to_end(stream)
            if seq in seqs:
                return False
        seqs[seq] = None
        while len(seqs) > DEDUP_WINDOW:
            seqs.popitem(last=False)
        return True

    def clear(self) -> None:
        self._seen.clear()

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class PendingTransmission:
    """Sender-side state of one unacked reliable invocation."""

    #: The sequenced ``transport.mtp.Invocation`` (import cycle avoided).
    invocation: Any
    #: The retransmit timer, armed on each transmission.
    timer: TimerHandle = field(repr=False)
    attempts: int = 0
    escalations: int = 0
