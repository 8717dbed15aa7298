"""TinyOS-style components.

TinyOS structures node software as components wired into a protocol graph,
each made of command handlers, event handlers and tasks.  Our protocol
layers (group management, data collection, transport, the EnviroTrack
middleware agent) subclass :class:`Component`: they register frame handlers
on their mote, create mote-bound timers, and send frames — all through one
small base class so every layer shares the same CPU/radio discipline.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..radio import BROADCAST, DEFAULT_FRAME_BITS, Frame
from .mote import Mote


class Component:
    """Base class for protocol components hosted on a mote."""

    #: Subclasses set this to their frame-kind namespace (trace labels).
    name = "component"

    def __init__(self, mote: Mote) -> None:
        self.mote = mote
        self.sim = mote.sim
        self._started = False

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """Host mote's node id."""
        return self.mote.node_id

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Activate the component.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.on_start()

    def on_start(self) -> None:
        """Subclass hook: register handlers, start timers."""

    # ------------------------------------------------------------------
    # Messaging helpers
    # ------------------------------------------------------------------
    def handle(self, kind: str, handler: Callable[[Frame], None]) -> None:
        """Register a frame handler for ``kind`` on the host mote."""
        self.mote.register_handler(kind, handler)

    def broadcast(self, kind: str, payload: Any = None,
                  size_bits: int = DEFAULT_FRAME_BITS,
                  tx_range: Optional[float] = None) -> None:
        """Broadcast a frame carrying ``payload`` from this component's
        mote; every receiver gets the same object."""
        self.mote.send(Frame(src=self.node_id, dst=BROADCAST, kind=kind,
                             payload=payload, size_bits=size_bits,
                             tx_range=tx_range))

    def unicast(self, dst: int, kind: str, payload: Any = None,
                size_bits: int = DEFAULT_FRAME_BITS) -> None:
        """Unicast a frame carrying ``payload`` to ``dst`` from this
        component's mote."""
        self.mote.send(Frame(src=self.node_id, dst=dst, kind=kind,
                             payload=payload, size_bits=size_bits))

    # ------------------------------------------------------------------
    def record(self, category: str, **detail: Any) -> None:
        """Emit a namespaced trace record for this component."""
        self.sim.record(f"{self.name}.{category}", node=self.node_id,
                        **detail)
