"""Radio frame model.

Frames carry protocol messages between motes.  Sizes are in bits because
the evaluation accounts for link utilization against the MICA motes' 50 kbps
channel; airtime is ``size_bits / bitrate``.

Default sizes approximate TinyOS active-message packets (a 36-byte TOS_Msg:
7 bytes header + up to 29 bytes payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Broadcast destination sentinel.
BROADCAST = -1

#: Default frame size: a full 36-byte TinyOS packet.
DEFAULT_FRAME_BITS = 36 * 8


def reset_frame_ids() -> None:
    """No-op kept for old callers: each simulator numbers its own frames
    (:meth:`repro.node.Mote.send`)."""


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
    frame_id:
        0 until :meth:`repro.node.Mote.send` stamps the frame with the
        next id of its simulator (1, 2, …).
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    size_bits: int = DEFAULT_FRAME_BITS
    frame_id: int = 0
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
