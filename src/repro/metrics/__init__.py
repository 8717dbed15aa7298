"""Analysis of finished runs: Table 1, Figures 3–6 metrics."""

from .collectors import (CommunicationMetrics, communication_metrics,
                         mean_metrics)
from .handover import (HandoverStats, analyze_handovers,
                       handoff_latencies, tracking_coverage)
from .recovery import CrashRecovery, RecoveryReport, analyze_recovery
from .speed_search import (CoherenceProbe, SpeedSearchResult,
                           max_trackable_speed)
from .tenures import Tenure, leader_tenures
from .timeline import TimelineSample, TimelineSampler
from .tracking_error import TrajectoryComparison, compare_track

__all__ = [
    "TimelineSample",
    "TimelineSampler",
    "CoherenceProbe",
    "CommunicationMetrics",
    "CrashRecovery",
    "HandoverStats",
    "RecoveryReport",
    "SpeedSearchResult",
    "Tenure",
    "TrajectoryComparison",
    "analyze_handovers",
    "analyze_recovery",
    "handoff_latencies",
    "leader_tenures",
    "communication_metrics",
    "compare_track",
    "max_trackable_speed",
    "mean_metrics",
    "tracking_coverage",
]
