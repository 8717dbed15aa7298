"""Approximate aggregate state: windows, functions, collection protocol."""

from .collection import (REPORT_KIND, REPORT_SIZE_BITS, MemberReport,
                         report_period, sample_readings)
from .functions import (AggregationError, AggregationRegistry,
                        default_registry)
from .window import AggregateStore, AggregateVarSpec, ReadResult, SlidingWindow

__all__ = [
    "AggregateStore",
    "AggregateVarSpec",
    "AggregationError",
    "AggregationRegistry",
    "MemberReport",
    "REPORT_KIND",
    "REPORT_SIZE_BITS",
    "ReadResult",
    "SlidingWindow",
    "default_registry",
    "report_period",
    "sample_readings",
]
