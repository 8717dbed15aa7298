"""Wireless substrate: frames, broadcast medium, MAC and statistics."""

from .frames import BROADCAST, DEFAULT_FRAME_BITS, Frame, reset_frame_ids
from .mac import CsmaMac
from .medium import (DEFAULT_BITRATE, Disturbance, Medium, TransceiverPort,
                     distance)
from .stats import RadioStats

__all__ = [
    "BROADCAST",
    "CsmaMac",
    "DEFAULT_BITRATE",
    "DEFAULT_FRAME_BITS",
    "Disturbance",
    "Frame",
    "Medium",
    "RadioStats",
    "TransceiverPort",
    "distance",
    "reset_frame_ids",
]
