"""Telemetry substrate: metrics, causal spans, profiling, reports.

Four pieces, all strictly outside the deterministic simulation state
(no RNG draws, no scheduled events, no trace records, so they never
change ``trace_digest``).  Every simulator carries a live registry and
span tracker; there is no off switch:

* :mod:`~repro.telemetry.registry` — labelled Counter/Gauge/Histogram
  families, each built by its fill from a layer's tallies when read,
  with Prometheus text export, owned per-``Simulator``;
* :mod:`~repro.telemetry.spans` — causal span trees propagated across
  frames, handlers and scheduled continuations, kept as one table of
  span records from which the queries derive children and frames;
* :mod:`~repro.telemetry.profiler` — opt-in wall-time attribution per
  event-loop handler, read as one hot-handler table;
* :mod:`~repro.telemetry.report` — the ``repro report`` renderer (text
  summary, SVG dashboard, Prometheus dump) for live runs and saved
  JSONL traces.

``report`` is imported lazily (``from repro.telemetry import report``)
because it depends on :mod:`repro.sim`, which itself imports this
package for the registry and span tracker.
"""

from .profiler import EventLoopProfiler, HandlerProfile, normalize_label
from .registry import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                       MetricsRegistry)
from .spans import SpanRecord, SpanTracker

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventLoopProfiler",
    "Gauge",
    "HandlerProfile",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "SpanTracker",
    "normalize_label",
]
