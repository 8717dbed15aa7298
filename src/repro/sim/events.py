"""Trace primitives for the discrete-event simulation engine.

The engine (:mod:`repro.sim.engine`) dispatches its heap entries in
nondecreasing time order.  Ties are broken deterministically by a
monotonically increasing sequence number assigned at scheduling time, so two
runs with the same seed and the same scheduling order produce identical
traces.  Each run writes its trace as :class:`TraceRecord` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TraceRecord:
    """One structured record in the simulation trace log."""

    time: float
    category: str
    node: Optional[int]
    detail: dict

    def matches(self, category: Optional[str] = None,
                node: Optional[int] = None) -> bool:
        """Return True when the record matches the given filters."""
        if category is not None and self.category != category:
            return False
        if node is not None and self.node != node:
            return False
        return True
