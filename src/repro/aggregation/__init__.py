"""Approximate aggregate state: windows, functions, collection protocol."""

from .collection import (REPORT_KIND, MemberReport, report_period,
                         sample_readings)
from .functions import (DEFAULT_REGISTRY, AggregationError,
                        AggregationRegistry, default_registry)
from .window import AggregateStore, AggregateVarSpec, ReadResult, SlidingWindow

__all__ = [
    "AggregateStore",
    "AggregateVarSpec",
    "AggregationError",
    "AggregationRegistry",
    "DEFAULT_REGISTRY",
    "MemberReport",
    "REPORT_KIND",
    "ReadResult",
    "SlidingWindow",
    "default_registry",
    "report_period",
    "sample_readings",
]
