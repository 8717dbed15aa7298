"""Sliding-window stores implementing approximate aggregate state.

Section 3.2.3 defines the guarantee a successful read must provide:

* the value aggregates readings of *group members*;
* every contributing reading was measured within the freshness ``L_e``;
* at least the critical mass ``N_e`` distinct devices contributed.

A :class:`SlidingWindow` holds timestamped readings per sender and exposes
``evaluate(now)`` returning a :class:`ReadResult` whose ``valid`` flag is
the paper's valid/null flag; reads of an invalid variable return the null
flag and no value.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry.registry import Counter, MetricsRegistry, merged
from .functions import AggregationFn


@dataclass(frozen=True)
class AggregateVarSpec:
    """Declaration of one aggregate state variable.

    Mirrors the DSL line ``location : avg(position) confidence=2,
    freshness=1s``.
    """

    name: str
    function: str
    sensor: str
    confidence: int = 1
    freshness: float = 1.0

    def __post_init__(self) -> None:
        if self.confidence < 1:
            raise ValueError(
                f"critical mass must be >= 1: {self.confidence}")
        if not self.freshness > 0:
            raise ValueError(
                f"freshness must be positive: {self.freshness}")


@dataclass
class ReadResult:
    """Outcome of reading an aggregate state variable."""

    name: str
    valid: bool
    value: Any = None
    contributors: int = 0
    oldest_reading_age: Optional[float] = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass
class _StoredReading:
    time: float
    value: Any


class SlidingWindow:
    """Per-variable reading store with freshness + critical-mass semantics.

    Only the newest reading per sender counts: critical mass is a count of
    *distinct devices*, not messages.
    """

    def __init__(self, spec: AggregateVarSpec, fn: AggregationFn) -> None:
        self.spec = spec
        self._fn = fn
        self._readings: Dict[int, _StoredReading] = {}

    def add(self, sender: int, value: Any, time: float) -> None:
        """Record a reading from ``sender`` measured at ``time``."""
        existing = self._readings.get(sender)
        if existing is not None and existing.time > time:
            return  # stale reordering; keep the newer reading
        self._readings[sender] = _StoredReading(time=time, value=value)

    def prune(self, now: float) -> None:
        """Drop readings older than the freshness horizon."""
        horizon = now - self.spec.freshness
        stale = [sender for sender, reading in self._readings.items()
                 if reading.time < horizon]
        for sender in stale:
            del self._readings[sender]

    def fresh_readings(self, now: float) -> List[Tuple[int, Any]]:
        """(sender, value) pairs within the freshness horizon at ``now``."""
        horizon = now - self.spec.freshness
        return sorted(
            (sender, reading.value)
            for sender, reading in self._readings.items()
            if reading.time >= horizon)

    def evaluate(self, now: float) -> ReadResult:
        """Aggregate the fresh readings; valid iff critical mass is met."""
        self.prune(now)
        fresh = self.fresh_readings(now)
        if len(fresh) < self.spec.confidence:
            return ReadResult(name=self.spec.name, valid=False,
                              contributors=len(fresh))
        values = [value for _, value in fresh]
        oldest = min(self._readings[sender].time for sender, _ in fresh)
        return ReadResult(name=self.spec.name, valid=True,
                          value=self._fn(values), contributors=len(fresh),
                          oldest_reading_age=now - oldest)

    def clear(self) -> None:
        self._readings.clear()

    def __len__(self) -> int:
        return len(self._readings)


class AggregateStore:
    """All sliding windows of one context label, owned by its leader."""

    def __init__(self, specs: List[AggregateVarSpec],
                 registry, metrics: MetricsRegistry) -> None:
        self._windows: Dict[str, SlidingWindow] = {}
        for spec in specs:
            if spec.name in self._windows:
                raise ValueError(f"duplicate aggregate var {spec.name!r}")
            self._windows[spec.name] = SlidingWindow(
                spec, registry.get(spec.function))
        #: Member readings folded in, by variable, and reads, by
        #: variable and validity.
        self.reports: "collections.Counter[str]" = collections.Counter()
        self.reads: "collections.Counter[Tuple[str, str]]" = \
            collections.Counter()
        metrics.view(Counter, "repro_agg_reports_total",
                     "Member readings folded into aggregate windows, by "
                     "variable.", ("var",),
                     merged(lambda store: store.reports), self)
        metrics.view(Counter, "repro_agg_reads_total",
                     "Aggregate variable reads, by variable and validity.",
                     ("var", "valid"), merged(lambda store: store.reads),
                     self)

    def window(self, name: str) -> SlidingWindow:
        return self._windows[name]

    def names(self) -> List[str]:
        return sorted(self._windows)

    def add_report(self, sender: int, readings: Dict[str, Any],
                   time: float) -> None:
        """Fan a member report out to the matching windows."""
        for name, value in readings.items():
            window = self._windows.get(name)
            if window is not None:
                window.add(sender, value, time)
                self.reports[name] += 1

    def read(self, name: str, now: float) -> ReadResult:
        """Read one aggregate variable with full QoS semantics."""
        result = self._windows[name].evaluate(now)
        self.reads[name, "true" if result.valid else "false"] += 1
        return result

    def read_all(self, now: float) -> Dict[str, ReadResult]:
        return {name: self.read(name, now) for name in self._windows}

    def max_freshness(self) -> float:
        """The loosest freshness bound across variables (report period
        derivation uses the per-variable bound; this is a helper)."""
        return max(w.spec.freshness for w in self._windows.values())

    def clear(self) -> None:
        for window in self._windows.values():
            window.clear()
