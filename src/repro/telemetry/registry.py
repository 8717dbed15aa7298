"""Labelled metric instruments and the registry that owns them.

Every :class:`~repro.sim.engine.Simulator` carries a
:class:`MetricsRegistry`, and every family in it is a *view*: each layer
(engine, radio medium, group manager, transport, naming, aggregation,
energy meters) keeps one tally per fact, either the trace record of a
rare event or a plain counter of a per-frame one, and registers a
function that computes the family's series from that tally when the
family is read (:meth:`MetricsRegistry.view`).  Families computed from
trace records take the records as their source, so a saved trace
exports them through the same function as a live run.  The registry is
*pure side-state*: reading a metric never draws randomness, never
schedules an event and never writes a trace record, so a run's
``trace_digest`` does not depend on it.

Instruments follow the Prometheus data model — a metric family has a
name, a help string and a fixed tuple of label names; each distinct label
value combination is a separate child series.  :meth:`MetricsRegistry.render_prometheus`
emits the standard text exposition format.
"""

from __future__ import annotations

import bisect
from typing import (Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Sequence, Tuple)

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


class _Series:
    """A family's labelled series: what counters and gauges share."""

    kind = ""

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelValues, float] = {}

    def value(self, *label_values: str) -> float:
        """Current value of the labelled series (0 when never touched)."""
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


class Counter(_Series):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _check_labels(self.label_names, label_values)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Series):
    """A value that can go up and down (queue depths, joules, weights)."""

    kind = "gauge"

    def set(self, value: float, *label_values: str) -> None:
        key = _check_labels(self.label_names, label_values)
        self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        key = _check_labels(self.label_names, label_values)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, *label_values: str) -> None:
        self.inc(-amount, *label_values)


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


#: Writes a view family's series into an empty instrument, from the
#: family's sources (see :meth:`MetricsRegistry.view`).
Fill = Callable[[Any, List[Any]], None]

#: A family computed from trace records: ``(kind, name, help,
#: label_names, fill)``, where ``fill`` reads each source as an iterable
#: of :class:`~repro.sim.events.TraceRecord` (see
#: :meth:`MetricsRegistry.record_views`).
RecordFamily = Tuple[type, str, str, Tuple[str, ...], Fill]


def summed(read: Callable[[Any], float]) -> Fill:
    """A fill for an unlabelled family: the sum of ``read(source)`` over
    the family's sources."""
    def fill(metric, sources: List[Any]) -> None:
        metric.inc(sum(read(source) for source in sources))
    return fill


def merged(read: Callable[[Any], Mapping[Any, float]]) -> Fill:
    """A fill for a labelled family: the sum over the family's sources
    of ``read(source)``, a mapping from label value (a tuple of them
    when the family has several labels) to value."""
    def fill(metric, sources: List[Any]) -> None:
        for source in sources:
            for key, value in read(source).items():
                metric.inc(value,
                           *(key if isinstance(key, tuple) else (key,)))
    return fill


class _View(NamedTuple):
    """A family whose series are computed from its sources on each read."""

    kind: type
    help: str
    label_names: LabelValues
    fill: Fill
    #: Each source once, keyed by ``id`` (the view holds it, so the id
    #: stays unique), in registration order.
    sources: Dict[int, Any]


class MetricsRegistry:
    """Owns every metric family of one simulation run.

    Every family is a view (:meth:`view`): the registry holds, per
    family, the function that computes its series and the objects whose
    tallies it reads, and builds the family's instrument on each read.
    """

    def __init__(self) -> None:
        self._views: Dict[str, _View] = {}

    def view(self, kind: type, name: str, help: str,
             label_names: Sequence[str], fill: Fill, source: Any) -> None:
        """Register family ``name`` as a view over ``source``, or add
        ``source`` to the view already registered under that name.

        Every read of the family (:meth:`get`, :meth:`snapshot`,
        :meth:`render_prometheus`) builds an empty ``kind(name, help,
        label_names)`` instrument and calls ``fill(instrument, sources)``
        to write its series, ``sources`` being each object registered
        with the family, once, in registration order.  A family is
        registered once: a later call only adds its source, and rejects
        another kind or label set.
        """
        existing = self._views.get(name)
        if existing is None:
            existing = _View(kind, help, tuple(label_names), fill, {})
            self._views[name] = existing
        elif existing.kind is not kind \
                or existing.label_names != tuple(label_names):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{existing.kind.__name__} with labels "
                             f"{existing.label_names!r}")
        existing.sources.setdefault(id(source), source)

    def record_views(self, families: Iterable[RecordFamily],
                     records: Iterable[Any]) -> None:
        """Register each of ``families`` as a view over ``records``: a
        live trace or a saved trace's records."""
        for kind, name, help, label_names, fill in families:
            self.view(kind, name, help, label_names, fill, records)

    def copy(self) -> "MetricsRegistry":
        """A new registry holding the same views (and so the same
        sources); adding a family to the copy leaves this registry
        unchanged."""
        registry = MetricsRegistry()
        registry._views.update(self._views)
        return registry

    def get(self, name: str):
        """The instrument of family ``name``, computed now, or None."""
        view = self._views.get(name)
        if view is None:
            return None
        metric = view.kind(name, view.help, view.label_names)
        view.fill(metric, list(view.sources.values()))
        return metric

    def names(self) -> List[str]:
        return sorted(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __iter__(self) -> Iterable[str]:
        return iter(sorted(self._views))

    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in self.names():
            lines.extend(self.get(name).render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, Mapping[LabelValues, float]]]:
        """Plain-dict dump of every series, for reports and tests."""
        out: Dict[str, Dict[str, Mapping[LabelValues, float]]] = {}
        for name in self.names():
            metric = self.get(name)
            out[name] = {"kind": metric.kind,  # type: ignore[dict-item]
                         "series": metric.series()}
        return out
