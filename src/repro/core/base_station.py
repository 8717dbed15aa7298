"""Base station / pursuer endpoint.

The evaluation wires a "preselected mote interfaced to a mobile pursuer
(a laptop)" that "monitors all vehicles at all times and records their
tracks", identifying vehicles by context label.  This class is that
endpoint: a mote that collects ``MySend`` application reports and exposes
the per-label tracks the Figure 3 analysis plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..node import Mote
from ..transport import GeoRouter

Position = Tuple[float, float]

APP_REPORT_KIND = "app.report"


@dataclass(frozen=True, slots=True)
class AppReport:
    """The ``app.report`` message: one ``MySend`` from the leader
    ``reporter`` of ``label``.  ``values`` are the application's, kept
    apart from the envelope so no value name can collide with it."""

    label: str
    context_type: str
    reporter: int
    reported_at: float
    values: Dict[str, Any]


@dataclass
class ReportRecord:
    """One application report received by the base station."""

    received_at: float
    reported_at: float
    label: str
    context_type: str
    reporter: int
    values: Dict[str, Any]


class BaseStation:
    """Report sink on a dedicated mote.

    Attach it to the mote nearest the operator; it registers for
    application reports both on the geographic router (multi-hop) and the
    raw radio (single-hop fallback when no router is installed).
    """

    def __init__(self, mote: Mote, router: Optional[GeoRouter] = None) -> None:
        self.mote = mote
        self.reports: List[ReportRecord] = []
        if router is not None:
            router.register_delivery(APP_REPORT_KIND, self._on_routed)
        mote.register_handler(APP_REPORT_KIND, self._on_frame)

    @property
    def node_id(self) -> int:
        return self.mote.node_id

    # ------------------------------------------------------------------
    def _on_routed(self, report: Any, origin: int) -> None:
        self._store(report)

    def _on_frame(self, frame) -> None:
        self._store(frame.payload)

    def _store(self, report: Any) -> None:
        if not isinstance(report, AppReport):
            return
        self.reports.append(ReportRecord(
            received_at=self.mote.sim.now, reported_at=report.reported_at,
            label=report.label, context_type=report.context_type,
            reporter=report.reporter, values=report.values))

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def labels_seen(self) -> List[str]:
        return sorted({record.label for record in self.reports})

    def reports_for(self, label: str) -> List[ReportRecord]:
        return [record for record in self.reports if record.label == label]

    def track(self, label: str,
              value_key: str = "location") -> List[Tuple[float, Position]]:
        """(report time, position) series for one label — the tracked
        trajectory Figure 3 plots against ground truth."""
        points = []
        for record in self.reports_for(label):
            value = record.values.get(value_key)
            if isinstance(value, (tuple, list)) and len(value) == 2:
                points.append((record.reported_at,
                               (float(value[0]), float(value[1]))))
        return points

    def tracks(self, value_key: str = "location"
               ) -> Dict[str, List[Tuple[float, Position]]]:
        return {label: self.track(label, value_key)
                for label in self.labels_seen()}

    def estimate_velocity(self, label: str,
                          window: int = 4,
                          value_key: str = "location"
                          ) -> Optional[Tuple[float, float]]:
        """Least-squares velocity estimate from the label's last fixes.

        The pursuer's natural next step after recording tracks: fit
        ``position ≈ p0 + v·t`` over the last ``window`` fixes.  Returns
        ``(vx, vy)`` in grid units per second, or None with fewer than two
        fixes.
        """
        points = self.track(label, value_key)[-window:]
        if len(points) < 2:
            return None
        n = len(points)
        mean_t = sum(t for t, _ in points) / n
        mean_x = sum(p[0] for _, p in points) / n
        mean_y = sum(p[1] for _, p in points) / n
        denom = sum((t - mean_t) ** 2 for t, _ in points)
        if denom == 0:
            return None
        vx = sum((t - mean_t) * (p[0] - mean_x) for t, p in points) / denom
        vy = sum((t - mean_t) * (p[1] - mean_y) for t, p in points) / denom
        return (vx, vy)
