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
    """Aggregate transmit/receive/loss counters for a medium.

    These are the medium's one tally of per-frame and per-reception
    facts; the totals, the per-kind reception counts and the radio
    metric families are computed from them when read.
    """

    sent_by_kind: Counter = field(default_factory=Counter)
    bits_by_kind: Counter = field(default_factory=Counter)
    #: frames that reached *no* receiver at all (the paper's loss unit)
    lost_by_kind: Counter = field(default_factory=Counter)
    #: Physical reception opportunities by ``(kind, outcome)``: the
    #: outcome is ``"delivered"`` or the drop cause (``channel``,
    #: ``jam``, ``collision`` …).  A broadcast to N in-range motes
    #: counts N.
    receptions: Counter = field(default_factory=Counter)
    #: Unicast delivery accounting: did the *addressed* mote receive it?
    addressed_sent_by_kind: Counter = field(default_factory=Counter)
    addressed_delivered_by_kind: Counter = field(default_factory=Counter)
    bits_sent_by_node: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int))
    started_at: float = 0.0

    def on_send(self, kind: str, size_bits: int, node: int) -> None:
        self.sent_by_kind[kind] += 1
        self.bits_by_kind[kind] += size_bits
        self.bits_sent_by_node[node] += size_bits

    def on_receptions(self, kind: str, outcomes: Dict[str, int]) -> None:
        """Account one frame's physical receptions at once.

        ``outcomes`` counts them by outcome, in first-seen order.
        """
        for outcome, count in outcomes.items():
            self.receptions[kind, outcome] += count

    def on_addressed_outcome(self, kind: str, delivered: bool) -> None:
        self.addressed_sent_by_kind[kind] += 1
        if delivered:
            self.addressed_delivered_by_kind[kind] += 1

    def on_frame_lost(self, kind: str) -> None:
        """Record a frame that no mote received (paper's loss definition)."""
        self.lost_by_kind[kind] += 1

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def frames_sent(self) -> int:
        return sum(self.sent_by_kind.values())

    @property
    def bits_sent(self) -> int:
        return sum(self.bits_by_kind.values())

    @property
    def frames_lost(self) -> int:
        return sum(self.lost_by_kind.values())

    def _receptions_by(self, part: int, delivered: bool) -> Counter:
        """Receptions summed by kind (``part`` 0) or by outcome (1),
        keeping the delivered ones or the dropped ones."""
        out: Counter = Counter()
        for key, count in self.receptions.items():
            if (key[1] == "delivered") == delivered:
                out[key[part]] += count
        return out

    @property
    def received_by_kind(self) -> Counter:
        return self._receptions_by(0, delivered=True)

    @property
    def frames_received(self) -> int:
        return sum(self.received_by_kind.values())

    @property
    def reception_drops_by_kind(self) -> Counter:
        return self._receptions_by(0, delivered=False)

    @property
    def reception_attempts_by_kind(self) -> Counter:
        return self.received_by_kind + self.reception_drops_by_kind

    @property
    def receptions_dropped(self) -> Counter:
        """Dropped receptions per cause, across kinds."""
        return self._receptions_by(1, delivered=False)

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
