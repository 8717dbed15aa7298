"""Radio statistics: the raw counters behind Table 1.

The paper computes *useful link utilization* by dividing the total number of
bits sent per second by the 50 kbps link capacity, under a worst-case
broadcast model in which no two messages can be sent concurrently.  We keep
the same accounting so the Table 1 bench reports the same quantity.

Loss is attributed to a cause (``channel`` for Bernoulli medium loss,
``collision`` for overlapping airtime, ``out_of_range`` is not counted as a
loss — the paper counts a message lost when it was "sent but never received
on any other mote").
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class RadioStats:
    """Aggregate transmit/receive/loss counters for a medium."""

    bits_sent: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    #: frames that reached *no* receiver at all (the paper's loss unit)
    frames_lost: int = 0
    sent_by_kind: Counter = field(default_factory=Counter)
    received_by_kind: Counter = field(default_factory=Counter)
    lost_by_kind: Counter = field(default_factory=Counter)
    receptions_dropped: Counter = field(default_factory=Counter)
    #: Per-kind physical reception opportunities and losses (a broadcast to
    #: N in-range motes counts N attempts).
    reception_attempts_by_kind: Counter = field(default_factory=Counter)
    reception_drops_by_kind: Counter = field(default_factory=Counter)
    #: Unicast delivery accounting: did the *addressed* mote receive it?
    addressed_sent_by_kind: Counter = field(default_factory=Counter)
    addressed_delivered_by_kind: Counter = field(default_factory=Counter)
    bits_sent_by_node: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int))
    started_at: float = 0.0
    last_activity: float = 0.0

    def on_send(self, kind: str, size_bits: int, node: int,
                now: float) -> None:
        self.bits_sent += size_bits
        self.frames_sent += 1
        self.sent_by_kind[kind] += 1
        self.bits_sent_by_node[node] += size_bits
        self.last_activity = now

    def on_receptions(self, kind: str, outcomes: Dict[str, int],
                      now: float) -> None:
        """Account one frame's physical receptions at once.

        ``outcomes`` counts them by outcome: ``"delivered"`` or the drop
        cause (``channel``, ``jam``, ``collision`` …), in first-seen
        order.
        """
        attempts = 0
        for outcome, count in outcomes.items():
            attempts += count
            if outcome != "delivered":
                self.receptions_dropped[outcome] += count
        if not attempts:
            return
        self.reception_attempts_by_kind[kind] += attempts
        delivered = outcomes.get("delivered", 0)
        if attempts > delivered:
            self.reception_drops_by_kind[kind] += attempts - delivered
        if delivered:
            self.frames_received += delivered
            self.received_by_kind[kind] += delivered
            self.last_activity = now

    def on_addressed_outcome(self, kind: str, delivered: bool) -> None:
        self.addressed_sent_by_kind[kind] += 1
        if delivered:
            self.addressed_delivered_by_kind[kind] += 1

    def on_frame_lost(self, kind: str) -> None:
        """Record a frame that no mote received (paper's loss definition)."""
        self.frames_lost += 1
        self.lost_by_kind[kind] += 1

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def loss_fraction(self, kind: Optional[str] = None) -> float:
        """Fraction of sent frames never received anywhere."""
        if kind is None:
            sent, lost = self.frames_sent, self.frames_lost
        else:
            sent, lost = self.sent_by_kind[kind], self.lost_by_kind[kind]
        if sent == 0:
            return 0.0
        return lost / sent

    def reception_loss_fraction(self, kind: str) -> float:
        """Fraction of physical reception opportunities lost (channel +
        collisions).  The Table 1 HB-loss metric: each mote in range that
        misses a heartbeat is a lost heartbeat."""
        attempts = self.reception_attempts_by_kind[kind]
        if attempts == 0:
            return 0.0
        return self.reception_drops_by_kind[kind] / attempts

    def addressed_loss_fraction(self, kind: str) -> float:
        """Fraction of unicast frames the addressed mote never received.
        The Table 1 Msg-loss metric for member→leader reports."""
        sent = self.addressed_sent_by_kind[kind]
        if sent == 0:
            return 0.0
        return 1.0 - self.addressed_delivered_by_kind[kind] / sent

    def link_utilization(self, bitrate: float, now: float) -> float:
        """Paper-style worst-case utilization: bits/s over total capacity."""
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return (self.bits_sent / elapsed) / bitrate

    def reset(self, now: float) -> None:
        """Zero all counters; subsequent utilization measures from ``now``."""
        self.bits_sent = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_lost = 0
        self.sent_by_kind.clear()
        self.received_by_kind.clear()
        self.lost_by_kind.clear()
        self.receptions_dropped.clear()
        self.reception_attempts_by_kind.clear()
        self.reception_drops_by_kind.clear()
        self.addressed_sent_by_kind.clear()
        self.addressed_delivered_by_kind.clear()
        self.bits_sent_by_node.clear()
        self.started_at = now
        self.last_activity = now
