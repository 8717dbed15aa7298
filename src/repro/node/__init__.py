"""Mote runtime: CPU model, node, and TinyOS-style components."""

from .component import Component
from .cpu import DEFAULT_QUEUE_LIMIT, DEFAULT_TASK_COST, Cpu
from .energy import EnergyLedger, EnergyMeter
from .mote import Mote

__all__ = [
    "Component",
    "Cpu",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_TASK_COST",
    "EnergyLedger",
    "EnergyMeter",
    "Mote",
]
