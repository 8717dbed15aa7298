"""Context-label coherence and handover analysis (Figures 4, 5, 6).

The paper's definitions (§6.1–6.2):

* a **successful handover** — "the context label successfully follows tank
  location by virtue of leadership changeover from one member node to
  another along the target's path";
* an **unsuccessful handover** — "a new context label is spawned at the new
  tank's location, not realizing that it refers to the same tank", which
  violates context label coherence;
* the **maximum trackable speed** — "the highest target speed at which the
  single group abstraction is maintained", i.e. the highest speed at which
  coherence holds.

For a single-target run, every ``gm.takeover``/``gm.claim`` leader start is
a successful handover, and every ``gm.label_created`` beyond the first is a
spawned duplicate — an unsuccessful one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim import Simulator
from .tenures import leader_tenures


@dataclass(frozen=True)
class HandoverStats:
    """Handover and coherence summary of one single-target run.

    The protocol *expects* short-lived spurious labels — "we allow spurious
    (i.e., minority) leaders to emerge.  These leaders, however, are
    unlikely to gather critical mass and hence will not affect system
    behavior."  Coherence therefore counts **effective** labels only:
    created labels that actually represented the target for longer than a
    suppression grace period.  A duplicate killed by the weight rule within
    a heartbeat or two is a non-event; a duplicate that persists (the tank
    "appearing replicated to the application") is a failed handover.
    """

    labels_created: int
    takeovers: int
    claims: int
    yields: int
    suppressions: int
    leader_starts: List[Tuple[float, str, str]]  # (time, label, via)
    #: Cumulative time each label spent with some leader serving it.
    label_led_time: Dict[str, float]
    #: Led time below which a created label counts as suppressed noise.
    grace: float

    def effective_labels(self) -> List[str]:
        return sorted(label for label, led in self.label_led_time.items()
                      if led >= self.grace)

    @property
    def successful_handovers(self) -> int:
        return self.takeovers + self.claims

    @property
    def failed_handovers(self) -> int:
        """Effective duplicate labels spawned for the same target."""
        return max(0, len(self.effective_labels()) - 1)

    @property
    def handover_success_pct(self) -> Optional[float]:
        """Percent of handovers that preserved the label; None when the
        run had no handovers at all."""
        total = self.successful_handovers + self.failed_handovers
        if total == 0:
            return None
        return 100.0 * self.successful_handovers / total

    @property
    def coherent(self) -> bool:
        """Single-group abstraction maintained for the whole run."""
        return len(self.effective_labels()) <= 1

    def distinct_leading_labels(self) -> List[str]:
        return sorted({label for _, label, _ in self.leader_starts})


def analyze_handovers(sim: Simulator, context_type: str,
                      grace: float = 2.0) -> HandoverStats:
    """Extract handover statistics from a finished run's trace.

    ``grace``: minimum cumulative led time for a created label to count as
    effective; set it to a few heartbeat periods (suppression of an entry
    race completes within roughly one period).
    """
    labels_created = 0
    takeovers = 0
    claims = 0
    yields = 0
    suppressions = 0
    leader_starts: List[Tuple[float, str, str]] = []
    led_time: Dict[str, float] = {}
    for rec in sim.trace:
        detail_type = rec.detail.get("type")
        if detail_type != context_type:
            continue
        label = rec.detail.get("label", "")
        if rec.category == "gm.label_created":
            labels_created += 1
            led_time.setdefault(label, 0.0)
        elif rec.category == "gm.takeover":
            takeovers += 1
        elif rec.category == "gm.claim":
            claims += 1
        elif rec.category == "gm.yield":
            yields += 1
        elif rec.category == "gm.label_deleted":
            suppressions += 1
        elif rec.category == "gm.leader_start":
            leader_starts.append((rec.time, label,
                                  rec.detail.get("via", "")))
    for tenure in leader_tenures(sim.trace, sim.now, context_type):
        led_time[tenure.label] = led_time.get(tenure.label, 0.0) \
            + (tenure.end - tenure.start)
    return HandoverStats(labels_created=labels_created,
                         takeovers=takeovers, claims=claims, yields=yields,
                         suppressions=suppressions,
                         leader_starts=leader_starts,
                         label_led_time=led_time, grace=grace)


def handoff_latencies(sim: Simulator, context_type: str
                      ) -> List[float]:
    """Per-handover gap between a label losing its last leader and its
    next leader starting (seconds).  A successor that starts before its
    predecessor stops (a yield) leaves no gap and adds no entry.

    Relinquish handoffs complete in a claim window; takeover handoffs —
    after a leader crash too — in roughly the receive timeout: this is
    the latency that bounds the max trackable speed in §6.2.
    """
    # Starts sort before ends at the same instant: a zero-length tenure
    # opens before it closes, and a successor starting as its
    # predecessor stops leaves no gap.
    edges = []
    for tenure in leader_tenures(sim.trace, sim.now, context_type):
        edges.append((tenure.start, 0, tenure.label))
        edges.append((tenure.end, 1, tenure.label))
    edges.sort(key=lambda edge: edge[:2])
    active: Dict[str, int] = {}
    vacant_since: Dict[str, float] = {}
    latencies: List[float] = []
    for time, ending, label in edges:
        if ending:
            active[label] -= 1
            if not active[label]:
                # The label is now leaderless: the handoff gap starts.
                vacant_since[label] = time
        else:
            if label in vacant_since:
                latencies.append(time - vacant_since.pop(label))
            active[label] = active.get(label, 0) + 1
    return latencies


def tracking_coverage(sim: Simulator, context_type: str,
                      start: float, end: float,
                      max_gap: float) -> float:
    """Fraction of [start, end] during which *some* leader served the
    target, judged by gaps between leader tenures.

    Tenures come from :func:`~repro.metrics.tenures.leader_tenures`; a
    crash ends its leader's tenure.  Coverage below 1.0 means the entity
    went unrepresented — e.g. it escaped during a takeover.
    """
    if end <= start:
        raise ValueError(f"empty interval [{start}, {end}]")
    clipped = [(max(tenure.start, start), min(tenure.end, end))
               for tenure in leader_tenures(sim.trace, sim.now, context_type)
               if min(tenure.end, end) > max(tenure.start, start)]
    if not clipped:
        return 0.0
    clipped.sort()
    # Merge tenures, bridging micro-gaps up to max_gap (handover churn).
    merged = [list(clipped[0])]
    for lo, hi in clipped[1:]:
        if lo <= merged[-1][1] + max_gap:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    covered = sum(hi - lo for lo, hi in merged)
    return min(1.0, covered / (end - start))
