"""Labelled metric instruments and the registry that owns them.

Every :class:`~repro.sim.engine.Simulator` carries a
:class:`MetricsRegistry`; instrumented subsystems (radio medium, group
manager, transport, naming, aggregation, energy meters) publish counters,
gauges and histograms into it as they run.  The registry is *pure
side-state*: reading or writing a metric never draws randomness, never
schedules an event and never writes a trace record, so a run's
``trace_digest`` does not depend on it.

Instruments follow the Prometheus data model — a metric family has a
name, a help string and a fixed tuple of label names; each distinct label
value combination is a separate child series.  :meth:`MetricsRegistry.render_prometheus`
emits the standard text exposition format.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]

#: Default histogram buckets (seconds) — tuned for protocol latencies:
#: sub-heartbeat to multi-minute recovery tails.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0, 30.0, 60.0)


def _check_labels(label_names: Sequence[str],
                  label_values: Sequence[str]) -> LabelValues:
    if len(label_values) != len(label_names):
        raise ValueError(
            f"expected {len(label_names)} label value(s) "
            f"{tuple(label_names)!r}, got {tuple(label_values)!r}")
    return tuple(str(value) for value in label_values)


def _format_labels(label_names: Sequence[str],
                   label_values: Sequence[str],
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{value}"'
             for name, value in zip(label_names, label_values)]
    pairs.extend(f'{name}="{value}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        # Hot path: a previously seen key skips label validation — the
        # radio medium and trace log inc counters per frame/record.
        try:
            self._values[label_values] += amount
            return
        except KeyError:
            pass
        key = _check_labels(self.label_names, label_values)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, *label_values: str) -> "_BoundCounter":
        """Bind label values once; returns an inc-only handle."""
        return _BoundCounter(self, _check_labels(self.label_names,
                                                 label_values))

    def value(self, *label_values: str) -> float:
        """Current count for the labelled series (0 when never touched)."""
        key = _check_labels(self.label_names, label_values)
        return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def series(self) -> Dict[LabelValues, float]:
        """Snapshot of every labelled series."""
        return dict(self._values)

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._values):
            labels = _format_labels(self.label_names, key)
            lines.append(
                f"{self.name}{labels} {_format_value(self._values[key])}")
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


class _BoundCounter:
    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelValues) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter.inc(amount, *self._key)


class Gauge:
    """A value that can go up and down (queue depths, joules, weights)."""

    kind = "gauge"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, *label_values: str) -> None:
        key = _check_labels(self.label_names, label_values)
        self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        key = _check_labels(self.label_names, label_values)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, *label_values: str) -> None:
        self.inc(-amount, *label_values)

    def value(self, *label_values: str) -> float:
        key = _check_labels(self.label_names, label_values)
        return self._values.get(key, 0.0)

    def series(self) -> Dict[LabelValues, float]:
        return dict(self._values)

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._values):
            labels = _format_labels(self.label_names, key)
            lines.append(
                f"{self.name}{labels} {_format_value(self._values[key])}")
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


class Histogram:
    """Cumulative-bucket distribution (Prometheus semantics).

    Tracks per-series bucket counts, a running sum and the observation
    count; ``quantile()`` interpolates from the buckets for quick
    in-process summaries (exact enough for dashboards, not for proofs).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._bucket_counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._counts: Dict[LabelValues, int] = {}

    def observe(self, value: float, *label_values: str) -> None:
        key = _check_labels(self.label_names, label_values)
        counts = self._bucket_counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
            self._bucket_counts[key] = counts
        counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, *label_values: str) -> int:
        key = _check_labels(self.label_names, label_values)
        return self._counts.get(key, 0)

    def sum(self, *label_values: str) -> float:
        key = _check_labels(self.label_names, label_values)
        return self._sums.get(key, 0.0)

    def mean(self, *label_values: str) -> float:
        count = self.count(*label_values)
        return self.sum(*label_values) / count if count else 0.0

    def quantile(self, q: float, *label_values: str) -> float:
        """Approximate q-quantile by linear interpolation in the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        key = _check_labels(self.label_names, label_values)
        counts = self._bucket_counts.get(key)
        total = self._counts.get(key, 0)
        if not counts or not total:
            return 0.0
        rank = q * total
        seen = 0
        lower = 0.0
        for bound, bucket_count in zip(self.buckets, counts):
            if seen + bucket_count >= rank and bucket_count:
                fraction = (rank - seen) / bucket_count
                return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
            seen += bucket_count
            lower = bound
        return self.buckets[-1]  # landed in the +Inf bucket

    def series(self) -> Dict[LabelValues, int]:
        return dict(self._counts)

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._bucket_counts):
            counts = self._bucket_counts[key]
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _format_labels(self.label_names, key,
                                        (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += counts[-1]
            labels = _format_labels(self.label_names, key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            plain = _format_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} "
                         f"{_format_value(self._sums[key])}")
            lines.append(f"{self.name}_count{plain} {self._counts[key]}")
        return lines


class MetricsRegistry:
    """Owns every instrument of one simulation run.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a name registers the instrument, later calls return the same
    object (and reject conflicting redefinitions), so independent
    subsystems can share a family safely.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_existing(existing, Histogram, name, label_names)
            return existing  # type: ignore[return-value]
        metric = Histogram(name, help, label_names, buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: Sequence[str]):
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_existing(existing, cls, name, label_names)
            return existing
        metric = cls(name, help, label_names)
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _check_existing(existing, cls, name: str,
                        label_names: Sequence[str]) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {cls.__name__}")
        if existing.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names!r}, not {tuple(label_names)!r}")

    def copy(self) -> "MetricsRegistry":
        """A new registry holding the same instrument objects; adding an
        instrument to the copy leaves this registry unchanged."""
        registry = MetricsRegistry()
        registry._metrics.update(self._metrics)
        return registry

    def get(self, name: str):
        """Look up a registered instrument, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[str]:
        return iter(sorted(self._metrics))

    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, Mapping[LabelValues, float]]]:
        """Plain-dict dump of every series, for reports and tests."""
        out: Dict[str, Dict[str, Mapping[LabelValues, float]]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[name] = {"kind": metric.kind,  # type: ignore[dict-item]
                         "series": metric.series()}
        return out
