"""Causal span tracing across frames and scheduled work.

A *span* is one step of a causal story: "node 7 sent a heartbeat",
"node 3 replied with a defence".  Spans form trees at frame granularity:
a frame sent by a handler, or by work the handler scheduled, is a child
of the frame that triggered the handler.  The tree for a takeover probe
therefore reads like the protocol narrative: query frame → defence
heartbeat.
Besides frames, a component may open a named operation span (the
directory's ``dir.register.*`` and ``dir.lookup.*``) whose subtree holds
the frames the operation caused.

Every span is instantaneous: simulated time cannot advance inside one
event, so a span carries no times, only ``(id, name, node, parent,
frame_id)``: a frame span notes the one frame it sent, an operation span
none.

Propagation works through two channels:

* **frames** carry ``Frame.span_id`` (assigned at send time, never
  serialized into the trace); the receiving mote runs all of a frame's
  handlers under that span, so a reception on another node knows its
  cause;
* **scheduled continuations** (CPU task completions, jittered
  rebroadcasts, timer-driven replies) inherit the span that was current
  when :meth:`~repro.sim.engine.Simulator.schedule` (or a timer's arm)
  was called — the engine captures the current span into each heap
  entry and makes it current while the entry runs.

Like the metrics registry, the tracker is pure side-state: it never draws
randomness, schedules events or writes trace records, so it leaves
``trace_digest`` unaffected.  Span ids come from a plain
deterministic counter, so they are reproducible run-to-run as well.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set


@dataclass
class SpanRecord:
    """One node of a span tree."""

    span_id: int
    name: str
    node: Optional[int]
    parent_id: Optional[int]
    frame_id: Optional[int] = None


class SpanTracker:
    """Records span trees for one simulation run.

    The tracker holds a *current span* — the causal context of whatever
    code is executing right now.  Instrumentation opens child spans with
    :meth:`span`; hot paths (the engine's dispatch, the mote's frame
    spans) pair :meth:`start` with plain writes of :attr:`current`
    instead of a generator-based context manager.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._spans: Dict[int, SpanRecord] = {}
        self._children: Dict[int, List[int]] = {}
        self._frame_spans: Dict[int, int] = {}
        #: Span id of the executing causal context, or None.  A plain
        #: attribute (not a property): the engine writes it for every
        #: event it dispatches and the mote around every frame's
        #: handlers, so it must stay cheap.
        self.current: Optional[int] = None

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def swap(self, span_id: Optional[int]) -> Optional[int]:
        """Set the current span; return the previous one."""
        previous = self.current
        self.current = span_id
        return previous

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(self, name: str, node: Optional[int] = None,
              frame_id: Optional[int] = None) -> int:
        """Open a child of the current span (a root when there is none)
        and return its id; a frame span names the frame it sends."""
        parent = self.current
        span_id = next(self._ids)
        self._spans[span_id] = SpanRecord(span_id, name, node, parent,
                                          frame_id)
        if parent is not None:
            self._children.setdefault(parent, []).append(span_id)
        if frame_id is not None:
            self._frame_spans[frame_id] = span_id
        return span_id

    @contextmanager
    def span(self, name: str, node: Optional[int] = None) -> Iterator[int]:
        """Open a child span and make it current until the block exits."""
        span_id = self.start(name, node)
        previous = self.swap(span_id)
        try:
            yield span_id
        finally:
            self.swap(previous)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, span_id: int) -> SpanRecord:
        return self._spans[span_id]

    def __contains__(self, span_id: int) -> bool:
        return span_id in self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> List[SpanRecord]:
        """Every span, in creation (= id) order."""
        return [self._spans[sid] for sid in sorted(self._spans)]

    def roots(self) -> List[SpanRecord]:
        return [record for record in self.spans()
                if record.parent_id is None]

    def children(self, span_id: int) -> List[SpanRecord]:
        return [self._spans[child]
                for child in self._children.get(span_id, [])]

    def find(self, name_prefix: str) -> List[SpanRecord]:
        """Spans whose name starts with ``name_prefix``, in id order."""
        return [record for record in self.spans()
                if record.name.startswith(name_prefix)]

    def span_of_frame(self, frame_id: int) -> Optional[int]:
        """The span a frame was sent under, or None."""
        return self._frame_spans.get(frame_id)

    def subtree(self, span_id: int) -> List[int]:
        """Preorder span ids of the tree rooted at ``span_id``."""
        if span_id not in self._spans:
            raise KeyError(f"unknown span {span_id}")
        out: List[int] = []
        stack = [span_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self._children.get(current, [])))
        return out

    def ancestors(self, span_id: int) -> List[int]:
        """Span ids from the tree root down to ``span_id`` (inclusive)."""
        if span_id not in self._spans:
            raise KeyError(f"unknown span {span_id}")
        path: List[int] = []
        cursor: Optional[int] = span_id
        while cursor is not None:
            path.append(cursor)
            cursor = self._spans[cursor].parent_id
        path.reverse()
        return path

    def _frames(self, span_ids: List[int]) -> Set[int]:
        """The frame ids the given spans noted."""
        spans = self._spans
        return {spans[sid].frame_id for sid in span_ids
                if spans[sid].frame_id is not None}

    def subtree_frames(self, span_id: int) -> Set[int]:
        """Every frame id sent anywhere in the span's subtree."""
        return self._frames(self.subtree(span_id))

    def ancestor_frames(self, span_id: int) -> Set[int]:
        """Every frame id sent on the root→span causal path."""
        return self._frames(self.ancestors(span_id))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_tree(self, span_id: int) -> str:
        """Indented text rendering of one span tree (for reports/REPL)."""
        lines: List[str] = []

        def visit(sid: int, depth: int) -> None:
            record = self._spans[sid]
            node = "-" if record.node is None else str(record.node)
            frame = ("" if record.frame_id is None
                     else f" frame={record.frame_id}")
            lines.append(f"{'  ' * depth}{record.name} "
                         f"[span {sid}, node {node}]{frame}")
            for child in self._children.get(sid, []):
                visit(child, depth + 1)

        visit(span_id, 0)
        return "\n".join(lines)
