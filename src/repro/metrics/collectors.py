"""Communication metrics — the raw numbers behind Table 1.

Table 1 reports, per target speed: % lost leader heartbeats (HB loss),
% lost sensor messages during data aggregation (Msg loss), and average
useful link utilization against the 50 kbps capacity.  These helpers read
the same quantities off the medium statistics, using the paper's
definitions (a message is lost when it was "sent but never received on any
other mote"; utilization is total bits/s over total capacity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..groups import HEARTBEAT_KIND
from ..aggregation import REPORT_KIND
from ..radio import DEFAULT_BITRATE, Medium


@dataclass(frozen=True)
class CommunicationMetrics:
    """One row of Table 1 (fractions in percent)."""

    heartbeat_loss_pct: float
    report_loss_pct: float
    link_utilization_pct: float
    heartbeats_sent: int
    reports_sent: int
    frames_sent: int

    def as_row(self) -> str:
        return (f"HB loss {self.heartbeat_loss_pct:6.2f}%   "
                f"Msg loss {self.report_loss_pct:6.2f}%   "
                f"Link util {self.link_utilization_pct:5.2f}%")


def communication_metrics(medium: Medium, now: float
                          ) -> CommunicationMetrics:
    """Extract the Table 1 metrics from a finished run's medium."""
    stats = medium.stats
    return CommunicationMetrics(
        # HB loss: fraction of heartbeat reception opportunities lost — a
        # mote in range missing a heartbeat is a lost heartbeat (each miss
        # delays timers exactly as on the testbed).
        heartbeat_loss_pct=100.0 * stats.reception_loss_fraction(
            HEARTBEAT_KIND),
        # Msg loss: member→leader reports the addressed leader never got.
        report_loss_pct=100.0 * stats.addressed_loss_fraction(REPORT_KIND),
        link_utilization_pct=100.0 * stats.link_utilization(
            DEFAULT_BITRATE, now),
        heartbeats_sent=stats.sent_by_kind[HEARTBEAT_KIND],
        reports_sent=stats.sent_by_kind[REPORT_KIND],
        frames_sent=stats.frames_sent,
    )


def mean_metrics(samples: Sequence[CommunicationMetrics]
                 ) -> CommunicationMetrics:
    """Average rows across independent runs ("averaged over three
    independent runs")."""
    if not samples:
        raise ValueError("no samples to average")
    n = len(samples)
    return CommunicationMetrics(
        heartbeat_loss_pct=sum(s.heartbeat_loss_pct for s in samples) / n,
        report_loss_pct=sum(s.report_loss_pct for s in samples) / n,
        link_utilization_pct=sum(s.link_utilization_pct
                                 for s in samples) / n,
        heartbeats_sent=round(sum(s.heartbeats_sent for s in samples) / n),
        reports_sent=round(sum(s.reports_sent for s in samples) / n),
        frames_sent=round(sum(s.frames_sent for s in samples) / n),
    )
