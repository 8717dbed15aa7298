"""Trace export and query tooling.

Simulation traces are the ground truth every analysis reads.  This module
exports them as JSON-lines files (one record per line, grep- and
jq-friendly), loads them back, and offers a small query helper for
interactive debugging of protocol behaviour.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, List, Optional, Union

from ..telemetry.spans import SpanTracker
from .engine import Simulator
from .events import TraceRecord


def record_to_dict(record: TraceRecord) -> dict:
    """Serialize a record for JSONL export.

    Detail lives under its own ``"detail"`` key so that a detail field
    named ``t``, ``category`` or ``node`` can never shadow the record's
    own envelope fields (the old flattened form silently corrupted such
    records on roundtrip).
    """
    return {"t": record.time, "category": record.category,
            "node": record.node, "detail": record.detail}


def dict_to_record(data: dict) -> TraceRecord:
    """Rebuild a record from its JSONL dict form (:func:`record_to_dict`).

    Raises ValueError on the old flattened form, which kept detail keys
    beside the envelope, and on a ``detail`` that is not a dict.
    """
    detail = data.get("detail", {})
    if not data.keys() <= {"t", "category", "node", "detail"} \
            or not isinstance(detail, dict):
        raise ValueError("detail must be a dict under the 'detail' key")
    node = data.get("node")
    return TraceRecord(time=float(data["t"]), category=str(data["category"]),
                       node=None if node is None else int(node),
                       detail=detail)


def trace_digest(source: Union[Simulator, Iterable[TraceRecord]]) -> str:
    """SHA-256 hex digest of a trace's canonical JSONL serialization.

    Two runs are behaviourally identical exactly when their digests match:
    every record's time, category, node and detail participate.  The
    determinism suite uses this to compare whole runs across repeats and
    worker processes, and the golden table pins one per scenario family,
    without shipping full traces around.
    """
    records = source.trace if isinstance(source, Simulator) else source
    digest = hashlib.sha256()
    for record in records:
        digest.update(_canonical(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


#: ``json.dumps(..., default=str, sort_keys=True)`` builds a new
#: encoder per call; one serves every record.
_ENCODER = json.JSONEncoder(default=str, sort_keys=True)


def _canonical(record: TraceRecord) -> str:
    """The record's line in a dumped trace, which the digest hashes."""
    return _ENCODER.encode(record_to_dict(record))


def first_divergence(a: Iterable[TraceRecord],
                     b: Iterable[TraceRecord]) -> Optional[str]:
    """Where two traces first differ, as text; None when they are equal.

    Records compare as the digest sees them (:func:`trace_digest`).  The
    text names the first differing record of each trace after the five
    records both share before it, then every category whose record
    count differs, with its count in ``b`` minus its count in ``a``.
    """
    a, b = list(a), list(b)
    for index, (left, right) in enumerate(zip_longest(a, b)):
        if left is None or right is None \
                or _canonical(left) != _canonical(right):
            break
    else:
        return None
    lines = [f"first divergence at record {index}"]
    lines += [f"  = [{i}] {_canonical(a[i])}"
              for i in range(max(0, index - 5), index)]
    for side, records in (("a", a), ("b", b)):
        shown = (_canonical(records[index]) if index < len(records)
                 else f"(end of trace: {len(records)} records)")
        lines.append(f"  {side} [{index}] {shown}")
    deltas = Counter(r.category for r in b)
    deltas.subtract(r.category for r in a)
    lines.append("category count deltas (b - a):")
    lines += [f"  {category} {delta:+d}"
              for category, delta in sorted(deltas.items()) if delta]
    return "\n".join(lines)


def dump_trace(sim: Simulator, path: str) -> int:
    """Write the whole simulation trace as JSONL; returns the record
    count.

    Non-JSON-serializable detail values are stringified rather than
    dropped, so traces always export completely.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for record in sim.trace:
            handle.write(_canonical(record))
            handle.write("\n")
    return len(sim.trace)


def load_trace(path: str) -> List[TraceRecord]:
    """Read a JSONL trace back into records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(dict_to_record(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed trace line: {exc}"
                ) from exc
    return records


@dataclass
class TraceQuery:
    """Chainable filters over a list of trace records.

    >>> TraceQuery(records).category("gm.takeover").between(10, 20).count()

    A query built by :func:`query` from a live simulator also carries the
    run's span tracker, enabling the causal filters :meth:`span` and
    :meth:`causes`.  Queries over loaded trace files have no tracker —
    the causal filters raise a helpful error there.
    """

    records: List[TraceRecord]
    spans: Optional[SpanTracker] = None

    def _chain(self, records: List[TraceRecord]) -> "TraceQuery":
        return TraceQuery(records, spans=self.spans)

    def category(self, name: str) -> "TraceQuery":
        """Keep records of exactly this category."""
        return self._chain([r for r in self.records
                            if r.category == name])

    def category_prefix(self, prefix: str) -> "TraceQuery":
        """Keep records whose category starts with ``prefix``."""
        return self._chain([r for r in self.records
                            if r.category.startswith(prefix)])

    def node(self, node_id: int) -> "TraceQuery":
        """Keep records emitted by one node."""
        return self._chain([r for r in self.records if r.node == node_id])

    def between(self, start: float, end: float) -> "TraceQuery":
        """Keep records in the closed time interval."""
        return self._chain([r for r in self.records
                            if start <= r.time <= end])

    def where(self, predicate: Callable[[TraceRecord], bool]
              ) -> "TraceQuery":
        return self._chain([r for r in self.records if predicate(r)])

    def detail(self, key: str, value) -> "TraceQuery":
        """Keep records whose detail ``key`` equals ``value``."""
        return self._chain([r for r in self.records
                            if r.detail.get(key) == value])

    # -- causal filters (need the run's span tracker) --------------------
    def _tracker(self, method: str):
        if self.spans is None:
            raise ValueError(
                f"TraceQuery.{method}() needs the run's span tracker; "
                "build the query with query(sim) on a live simulator "
                "(loaded trace files carry no spans)")
        return self.spans

    def span(self, span_id: int) -> "TraceQuery":
        """Keep records caused by the span's subtree.

        A record belongs to a span when its ``frame_id`` detail names a
        frame transmitted anywhere in the tree rooted at ``span_id`` —
        the full downstream story of the operation (rebroadcasts,
        handler replies, forwarded hops).
        """
        frames = self._tracker("span").subtree_frames(span_id)
        return self._chain([r for r in self.records
                            if r.detail.get("frame_id") in frames])

    def causes(self, span_id: int) -> "TraceQuery":
        """Keep records on the span's causal ancestry.

        The mirror of :meth:`span`: records whose ``frame_id`` was sent
        on the root→span path — "what chain of frames led here?".
        """
        frames = self._tracker("causes").ancestor_frames(span_id)
        return self._chain([r for r in self.records
                            if r.detail.get("frame_id") in frames])

    # -- terminals -------------------------------------------------------
    def count(self) -> int:
        """Number of matching records."""
        return len(self.records)

    def first(self) -> Optional[TraceRecord]:
        """Earliest matching record, or None."""
        return self.records[0] if self.records else None

    def last(self) -> Optional[TraceRecord]:
        """Latest matching record, or None."""
        return self.records[-1] if self.records else None

    def times(self) -> List[float]:
        """Timestamps of the matching records."""
        return [r.time for r in self.records]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def query(sim: Simulator) -> TraceQuery:
    """Entry point: ``query(sim).category("gm.takeover").count()``."""
    return TraceQuery(list(sim.trace), spans=sim.spans)
