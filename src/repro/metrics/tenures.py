"""Leadership tenures, read from a run's trace.

The trace is the one ledger of who led what and when.  A tenure opens at
a ``gm.leader_start`` record and ends at the first of:

* its ``gm.leader_stop`` (the stop's ``reason``: ``yield``,
  ``relinquish``, ``suppressed``, ``stopped_sensing``);
* its holder's ``node.fail`` (reason ``crash``) — a dying leader writes
  no stop record, and its group manager forgets the role at the crash;
* the end of the run (reason ``None``: still leading).

The handover, coverage and recovery analyses and the report's
``repro_gm_*`` export all read tenures from here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..sim import TraceRecord


class Tenure(NamedTuple):
    """One node's leadership of one label."""

    node: int
    type: str
    label: str
    start: float
    end: float
    #: How the tenure began: ``created``, ``takeover`` or ``claim``.
    via: str
    #: Why it ended; ``crash`` for a ``node.fail``, None while still open
    #: at the end of the run.
    reason: Optional[str]


def leader_tenures(records: Iterable[TraceRecord], end: float,
                   context_type: Optional[str] = None) -> List[Tenure]:
    """Every leader tenure in ``records`` (of ``context_type`` only, when
    given), in the order the tenures ended; tenures still open at ``end``
    (the end of the run) come last, in the order they began."""
    # Open tenures: (node, label) → their gm.leader_start record.
    starts: Dict[Tuple[int, str], TraceRecord] = {}
    tenures: List[Tenure] = []

    def close(start: TraceRecord, when: float,
              reason: Optional[str]) -> None:
        detail = start.detail
        tenures.append(Tenure(start.node, detail.get("type", ""),
                              detail.get("label", ""), start.time, when,
                              detail.get("via", ""), reason))

    for rec in records:
        category = rec.category
        if category == "node.fail":
            for key in [key for key in starts if key[0] == rec.node]:
                close(starts.pop(key), rec.time, "crash")
            continue
        if category != "gm.leader_start" and category != "gm.leader_stop":
            continue
        detail = rec.detail
        if context_type is not None and detail.get("type") != context_type:
            continue
        key = (rec.node, detail.get("label"))
        if category == "gm.leader_start":
            starts[key] = rec
        else:
            start = starts.pop(key, None)
            if start is not None:
                close(start, rec.time, detail.get("reason"))
    for start in starts.values():
        close(start, end, None)
    return tenures
