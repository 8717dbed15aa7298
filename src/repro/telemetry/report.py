"""Run reports: text summary, SVG dashboard, Prometheus export.

``python -m repro report`` (or :class:`RunReport` directly) renders what
a run *did* — message rates per subsystem, the leadership/takeover
timeline, energy use and hot event handlers — from either of two
sources:

* a **live simulator** (``RunReport.from_sim``): trace + metrics
  registry + span tracker + optional profiler, everything available;
* a **saved JSONL trace** (``RunReport.from_trace_file``): trace records
  only.  Everything derivable from the trace (counts, rates, the
  takeover timeline, and every metric family tallied by trace records)
  still renders; live-only sections (energy) and profiler sections
  degrade to a note instead of failing.

This module imports :mod:`repro.sim`, :mod:`repro.analysis` and
:mod:`repro.metrics`, so the ``repro.telemetry`` package intentionally
does **not** import it at module level (the engine imports the telemetry
core; importing report back into the package would cycle).  Use
``from repro.telemetry import report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from ..analysis.svg import BarChart, LineChart
from ..metrics import leader_tenures
from ..naming.directory import RECORD_FAMILIES as DIR_RECORD_FAMILIES
from ..radio.medium import RECORD_FAMILIES as RADIO_RECORD_FAMILIES
from ..sim import TraceRecord, load_trace
from ..sim.engine import TRACE_FAMILIES
from ..transport.mtp import RECORD_FAMILIES as MTP_RECORD_FAMILIES
from .profiler import EventLoopProfiler
from .registry import (Gauge, Histogram, MetricsRegistry, RecordFamily,
                       summed)

#: Leadership-transition trace categories, in the order a takeover story
#: unfolds.  ``gm.leader_start``/``gm.leader_stop`` bound tenures;
#: ``gm.takeover``/``gm.claim``/``gm.relinquish`` explain why.
LEADERSHIP_CATEGORIES = ("gm.claim", "gm.takeover", "gm.relinquish",
                         "gm.leader_start", "gm.leader_stop")

#: How many time buckets the rate chart uses across the run.
RATE_BUCKETS = 40

#: Size of each of the dashboard's four panels, in pixels.
PANEL_WIDTH = 620
PANEL_HEIGHT = 420


def _tenures(records):
    return leader_tenures(records, records[-1].time if records else 0.0)


def _observe_ended_tenures(histogram: Histogram, sources) -> None:
    for records in sources:
        for tenure in _tenures(records):
            if tenure.reason is not None:
                histogram.observe(tenure.end - tenure.start, tenure.reason)


#: The leadership families, computed from the trace's tenures
#: (:func:`repro.metrics.leader_tenures`) for every source.
LEADERSHIP_FAMILIES: Tuple[RecordFamily, ...] = (
    (Gauge, "repro_gm_active_leaderships",
     "Labels currently led, fleet-wide.", (),
     summed(lambda records: sum(tenure.reason is None
                                for tenure in _tenures(records)))),
    (Histogram, "repro_gm_leader_tenure_seconds",
     "How long leaderships lasted, by ending reason.", ("reason",),
     _observe_ended_tenures),
)

#: Every family a saved trace exports: the ones tallied by trace
#: records, computed by the functions a live run uses.
SAVED_TRACE_FAMILIES: Tuple[RecordFamily, ...] = (
    TRACE_FAMILIES + RADIO_RECORD_FAMILIES + MTP_RECORD_FAMILIES
    + DIR_RECORD_FAMILIES)


def _subsystem(category: str) -> str:
    """The part of a trace category before the first dot."""
    return category.split(".", 1)[0]


@dataclass
class RunReport:
    """A rendered view of one run, from a live sim or a saved trace."""

    title: str
    source: str
    records: List[TraceRecord]
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[EventLoopProfiler] = None
    span_count: int = 0
    span_root_count: int = 0
    span_top_names: List[Tuple[str, int]] = field(default_factory=list)
    #: Live runs only: events fired, events dispatched, and sense polls
    #: charged without events (``docs/ENGINE.md`` §7).
    events_fired: Optional[int] = None
    events_dispatched: Optional[int] = None
    implicit_polls: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sim(cls, sim, title: str = "simulation run") -> "RunReport":
        """Build a report from a live simulator (full telemetry)."""
        spans = sim.spans
        names: Dict[str, int] = {}
        for record in spans.spans():
            key = record.name.split(".", 1)[0]
            names[key] = names.get(key, 0) + 1
        return cls(title=title, source="live run",
                   events_fired=sim.events_fired,
                   events_dispatched=sim.events_dispatched,
                   implicit_polls=sim.implicit_polls,
                   records=list(sim.trace), metrics=sim.metrics,
                   profiler=sim.profiler, span_count=len(spans),
                   span_root_count=len(spans.roots()),
                   span_top_names=sorted(
                       names.items(),
                       key=lambda item: (-item[1], item[0]))[:8])

    @classmethod
    def from_trace_file(cls, path: str,
                        title: Optional[str] = None) -> "RunReport":
        """Build a report from a saved JSONL trace (records only)."""
        return cls(title=title or f"trace {path}", source=path,
                   records=load_trace(path))

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Simulated seconds covered by the trace."""
        if not self.records:
            return 0.0
        return self.records[-1].time - self.records[0].time

    def subsystem_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records:
            key = _subsystem(record.category)
            out[key] = out.get(key, 0) + 1
        return out

    def frames_by_kind(self) -> Dict[str, int]:
        """Transmitted frames per kind (from ``radio.tx`` records)."""
        out: Dict[str, int] = {}
        for record in self.records:
            if record.category == "radio.tx":
                kind = str(record.detail.get("kind", "?"))
                out[kind] = out.get(kind, 0) + 1
        return out

    def leadership_events(self) -> List[TraceRecord]:
        wanted = set(LEADERSHIP_CATEGORIES)
        return [record for record in self.records
                if record.category in wanted]

    def rate_series(self, subsystems: Sequence[str]
                    ) -> Dict[str, List[Tuple[float, float]]]:
        """Events/second over time, bucketed, per subsystem."""
        if not self.records or self.duration <= 0:
            return {name: [] for name in subsystems}
        start = self.records[0].time
        width = self.duration / RATE_BUCKETS
        wanted = set(subsystems)
        counts: Dict[str, List[int]] = {
            name: [0] * RATE_BUCKETS for name in subsystems}
        for record in self.records:
            name = _subsystem(record.category)
            if name not in wanted:
                continue
            index = min(int((record.time - start) / width),
                        RATE_BUCKETS - 1)
            counts[name][index] += 1
        return {name: [(start + (i + 0.5) * width, count / width)
                       for i, count in enumerate(buckets)]
                for name, buckets in counts.items()}

    def energy_breakdown(self) -> Dict[str, float]:
        """Joules by activity up to now, from the registry gauge (live
        runs with an attached :class:`~repro.node.energy.EnergyMeter`
        only)."""
        if self.metrics is None:
            return {}
        gauge = self.metrics.get("repro_energy_joules")
        if gauge is None:
            return {}
        return {key[0]: value for key, value in gauge.series().items()}

    def derived_registry(self) -> MetricsRegistry:
        """The registry to export: the live families, or, for a saved
        trace, every family tallied by trace records, computed from its
        records by the same functions; plus the leadership series every
        source derives from the trace's tenures."""
        if self.metrics is not None:
            registry = self.metrics.copy()
        else:
            registry = MetricsRegistry()
            registry.record_views(SAVED_TRACE_FAMILIES, self.records)
        registry.record_views(LEADERSHIP_FAMILIES, self.records)
        return registry

    # ------------------------------------------------------------------
    # Text rendering
    # ------------------------------------------------------------------
    def format_text(self) -> str:
        lines = [f"Run report — {self.title}",
                 f"source: {self.source}",
                 f"{len(self.records)} trace records over "
                 f"{self.duration:.1f} simulated seconds"]
        if self.events_fired is not None:
            lines.append(f"{self.events_fired} events fired, "
                         f"{self.events_dispatched} dispatched; "
                         f"{self.implicit_polls} sense polls run "
                         f"implicitly")
        duration = self.duration or 1.0
        lines.append("")
        lines.append("Per-subsystem trace records")
        lines.append(f"{'subsystem':<12} {'records':>8} {'rate':>10}")
        for name, count in sorted(self.subsystem_counts().items(),
                                  key=lambda item: (-item[1], item[0])):
            lines.append(f"{name:<12} {count:8d} "
                         f"{count / duration:8.1f}/s")
        kinds = self.frames_by_kind()
        if kinds:
            lines.append("")
            lines.append("Transmitted frames by kind")
            lines.append(f"{'kind':<20} {'frames':>8}")
            for kind, count in sorted(kinds.items(),
                                      key=lambda item: (-item[1],
                                                        item[0])):
                lines.append(f"{kind:<20} {count:8d}")
        events = self.leadership_events()
        lines.append("")
        lines.append(f"Leadership timeline ({len(events)} transitions)")
        shown = events[:12]
        for record in shown:
            node = "-" if record.node is None else record.node
            label = record.detail.get("label", "")
            lines.append(f"  t={record.time:8.2f}  node {node:>4}  "
                         f"{record.category:<17} {label}")
        if len(events) > len(shown):
            lines.append(f"  … {len(events) - len(shown)} more")
        energy = self.energy_breakdown()
        if energy:
            lines.append("")
            lines.append("Energy by activity (joules, fleet-wide)")
            for activity, joules in sorted(energy.items()):
                lines.append(f"  {activity:<8} {joules:10.3f} J")
        lines.append("")
        if self.profiler is not None:
            lines.append("Hot event handlers (host wall time)")
            lines.append(self.profiler.format_table(10))
        else:
            lines.append("Hot handlers: profiler not enabled for this "
                         "source (sim.enable_profiler() on a live run).")
        if self.span_count:
            lines.append("")
            lines.append(f"Causal spans: {self.span_count} "
                         f"({self.span_root_count} roots); top names: "
                         + ", ".join(f"{name} ({count})"
                                     for name, count
                                     in self.span_top_names))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # SVG dashboard
    # ------------------------------------------------------------------
    def dashboard_svg(self) -> str:
        """A 2×2 dashboard: subsystem volume, message rate over time,
        takeover timeline, and energy or hot handlers."""
        panels = [self._subsystem_chart(), self._rate_chart(),
                  self._leadership_chart(), self._cost_chart()]
        width, height = 2 * PANEL_WIDTH, 2 * PANEL_HEIGHT + 28
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="sans-serif">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<text x="{width / 2}" y="18" text-anchor="middle" '
            f'font-size="16" font-weight="bold">'
            f'{escape(self.title)} — {escape(self.source)}</text>',
        ]
        for index, panel in enumerate(panels):
            x = (index % 2) * PANEL_WIDTH
            y = 28 + (index // 2) * PANEL_HEIGHT
            parts.append(f'<svg x="{x}" y="{y}" width="{PANEL_WIDTH}" '
                         f'height="{PANEL_HEIGHT}">')
            parts.append(panel)
            parts.append('</svg>')
        parts.append('</svg>')
        return "\n".join(parts)

    def _subsystem_chart(self) -> str:
        counts = sorted(self.subsystem_counts().items(),
                        key=lambda item: (-item[1], item[0]))[:8]
        if not counts:
            return _placeholder("Trace records", "no trace records")
        chart = BarChart(title="Trace records by subsystem",
                         groups=[name for name, _ in counts],
                         series_names=["records"],
                         values=[[float(count) for _, count in counts]],
                         y_label="records", width=PANEL_WIDTH,
                         height=PANEL_HEIGHT)
        return chart.to_svg()

    def _rate_chart(self) -> str:
        top = [name for name, _ in
               sorted(self.subsystem_counts().items(),
                      key=lambda item: (-item[1], item[0]))[:5]]
        series = self.rate_series(top)
        if not any(series.values()):
            return _placeholder("Message rate", "trace too short to bucket")
        chart = LineChart(title="Trace record rate over time",
                          x_label="simulated time (s)",
                          y_label="records/s", width=PANEL_WIDTH,
                          height=PANEL_HEIGHT)
        for name in top:
            if series[name]:
                chart.add_series(name, series[name], draw_markers=False)
        return chart.to_svg()

    def _leadership_chart(self) -> str:
        events = self.leadership_events()
        if not events:
            return _placeholder("Takeover timeline",
                                "no leadership transitions in trace")
        chart = LineChart(title="Leadership transitions (cumulative)",
                          x_label="simulated time (s)",
                          y_label="transitions", width=PANEL_WIDTH,
                          height=PANEL_HEIGHT)
        for category in LEADERSHIP_CATEGORIES:
            points = [(record.time, index + 1)
                      for index, record in enumerate(
                          r for r in events if r.category == category)]
            if points:
                chart.add_series(category.split(".", 1)[1], points,
                                 draw_markers=len(points) <= 40)
        return chart.to_svg()

    def _cost_chart(self) -> str:
        if self.profiler is not None and self.profiler.events_profiled:
            hot = self.profiler.hot(8)
            chart = BarChart(
                title="Hot event handlers (host ms)",
                groups=[profile.label[-18:] for profile in hot],
                series_names=["wall ms"],
                values=[[profile.total_seconds * 1e3
                         for profile in hot]],
                y_label="wall ms", width=PANEL_WIDTH,
                height=PANEL_HEIGHT)
            return chart.to_svg()
        energy = self.energy_breakdown()
        if energy:
            items = sorted(energy.items())
            chart = BarChart(title="Energy by activity (J)",
                             groups=[name for name, _ in items],
                             series_names=["joules"],
                             values=[[value for _, value in items]],
                             y_label="joules", width=PANEL_WIDTH,
                             height=PANEL_HEIGHT)
            return chart.to_svg()
        return _placeholder("Cost",
                            "no profiler or energy data for this source")

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def save_dashboard(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dashboard_svg())

    def save_prometheus(self, path: str) -> None:
        """Write the registry in Prometheus text exposition format."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.derived_registry().render_prometheus())


def _placeholder(title: str, message: str) -> str:
    """An empty panel that says why it is empty."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_WIDTH}" '
        f'height="{PANEL_HEIGHT}" font-family="sans-serif" font-size="12">'
        f'<rect width="{PANEL_WIDTH}" height="{PANEL_HEIGHT}" fill="white"/>'
        f'<text x="{PANEL_WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{escape(title)}</text>'
        f'<text x="{PANEL_WIDTH / 2}" y="{PANEL_HEIGHT / 2}" '
        f'text-anchor="middle" fill="#888">{escape(message)}</text></svg>')
