"""Discrete-event simulation substrate.

The simulator replaces the paper's MICA-mote testbed with a deterministic
laptop-scale model: a single virtual clock, an event heap with stable
tie-breaking, named seeded random streams and a structured trace log.
"""

from .engine import SimulationError, Simulator, TimerHandle, TimerService
from .events import TraceRecord
from .rng import RandomStreams, derive_seed
from .timers import OneShotTimer, PeriodicTimer, WatchdogTimer
from .tracefile import (TraceQuery, dump_trace, first_divergence,
                        load_trace, query, trace_digest)

__all__ = [
    "OneShotTimer",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "TimerHandle",
    "TimerService",
    "TraceQuery",
    "TraceRecord",
    "WatchdogTimer",
    "derive_seed",
    "dump_trace",
    "first_divergence",
    "load_trace",
    "query",
    "trace_digest",
]
