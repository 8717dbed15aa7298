"""Event-loop profiler: wall-time and event counts per handler.

The profiler answers "where does a run's real time go?" — which timer,
delivery or CPU-service path burns the host CPU — without perturbing the
simulation at all.  It measures *wall* time with ``time.perf_counter``
around each event dispatch, keyed by the event's label; simulated time,
RNG streams and the trace are untouched, so ``trace_digest`` is identical
with the profiler on or off.

Caveats (see ``docs/OBSERVABILITY.md``):

* wall times are host-machine noise — compare shapes, not nanoseconds,
  and never feed them back into simulation decisions;
* the profiler is opt-in (``sim.enable_profiler()``) because the two
  ``perf_counter`` calls per event cost real time on large runs; when it
  is off the engine pays a single ``is None`` check per event.

Labels like ``gm.heartbeat@12`` aggregate under ``gm.heartbeat`` — the
``@node`` suffix convention keeps per-node timers from exploding the
table.  The one readout is the hot-handler table
(:meth:`EventLoopProfiler.hot`, :meth:`EventLoopProfiler.format_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Events scheduled without a label land here.
UNLABELED = "(unlabeled)"


@dataclass
class HandlerProfile:
    """Aggregate cost of one event label."""

    label: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def normalize_label(label: str) -> str:
    """Strip the ``@node`` suffix; map empty labels to a sentinel."""
    if not label:
        return UNLABELED
    at = label.rfind("@")
    return label[:at] if at > 0 else label


class EventLoopProfiler:
    """Accumulates per-label dispatch counts and wall time.

    The engine calls :meth:`note` once per fired event; everything else
    is read-side.
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, HandlerProfile] = {}
        self.events_profiled = 0
        self.total_seconds = 0.0

    def note(self, label: str, seconds: float) -> None:
        """Record one event dispatch (engine hook)."""
        key = normalize_label(label)
        profile = self._profiles.get(key)
        if profile is None:
            profile = HandlerProfile(label=key)
            self._profiles[key] = profile
        profile.count += 1
        profile.total_seconds += seconds
        if seconds > profile.max_seconds:
            profile.max_seconds = seconds
        self.events_profiled += 1
        self.total_seconds += seconds

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def hot(self, n: int = 10) -> List[HandlerProfile]:
        """The ``n`` hottest handlers (most total wall time first)."""
        return sorted(self._profiles.values(),
                      key=lambda p: (-p.total_seconds, p.label))[:n]

    def format_table(self, n: int = 15) -> str:
        """Human-readable hot-handler table."""
        lines = [f"{'handler':<32} {'events':>8} {'total':>10} "
                 f"{'mean':>10} {'max':>10}"]
        for profile in self.hot(n):
            lines.append(
                f"{profile.label:<32} {profile.count:8d} "
                f"{profile.total_seconds * 1e3:9.2f}ms "
                f"{profile.mean_seconds * 1e6:9.2f}us "
                f"{profile.max_seconds * 1e6:9.2f}us")
        return "\n".join(lines)
