"""Radio frame model.

Frames carry protocol messages between motes.  Sizes are in bits because
the evaluation accounts for link utilization against the MICA motes' 50 kbps
channel; airtime is ``size_bits / bitrate``.

Default sizes approximate TinyOS active-message packets (a 36-byte TOS_Msg:
7 bytes header + up to 29 bytes payload).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

#: Broadcast destination sentinel.
BROADCAST = -1

#: Default frame size: a full 36-byte TinyOS packet.
DEFAULT_FRAME_BITS = 36 * 8

_frame_ids = itertools.count(1)


def reset_frame_ids() -> None:
    """Restart frame-id numbering at 1.

    Scenario drivers call this before each independent run so that frame
    ids in trace records depend only on the run itself — never on how many
    runs the process executed before, or on which worker process a
    parallel sweep placed the run in.  (Ids must only be unique within one
    simulation; nothing correlates them across runs.)
    """
    global _frame_ids
    _frame_ids = itertools.count(1)


@dataclass
class Frame:
    """One over-the-air frame.

    Parameters
    ----------
    src:
        Sending mote id.
    dst:
        Receiving mote id, or :data:`BROADCAST`.
    kind:
        Protocol dispatch key (e.g. ``"heartbeat"``, ``"report"``, ``"mtp"``).
    payload:
        The protocol's message object, shared by every receiver; never
        inspected (or serialized) by the radio layer.
    size_bits:
        On-air size used for airtime and utilization accounting.
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    size_bits: int = DEFAULT_FRAME_BITS
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    sent_at: Optional[float] = None
    #: Optional per-frame transmit power control: reception range in grid
    #: units.  ``None`` uses the medium's communication radius.  The Fig. 4
    #: experiment limits heartbeat reach to/past the sensing radius with it.
    tx_range: Optional[float] = None
    #: Causal span this frame was sent under (telemetry only).  Assigned
    #: at send time and carried to receivers, whose handlers run under
    #: it; never serialized into trace records.
    span_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"frame size must be positive: {self.size_bits}")
        if self.tx_range is not None and not self.tx_range > 0:
            raise ValueError(f"tx range must be positive: {self.tx_range}")

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def addressed_to(self, node_id: int) -> bool:
        """True when ``node_id`` should deliver this frame up the stack."""
        return self.is_broadcast or self.dst == node_id
