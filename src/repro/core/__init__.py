"""The EnviroTrack middleware core: declarations, runtime and assembly."""

from .app import EnviroTrackApp
from .base_station import (APP_REPORT_KIND, AppReport, BaseStation,
                           ReportRecord)
from .context import (ContextTypeDef, MethodDef, PortInvocation,
                      TimerInvocation, TrackingObjectDef, WhenInvocation)
from .middleware import EnviroTrackAgent
from .runtime import ObjectContext

__all__ = [
    "APP_REPORT_KIND",
    "AppReport",
    "BaseStation",
    "ContextTypeDef",
    "EnviroTrackAgent",
    "EnviroTrackApp",
    "MethodDef",
    "ObjectContext",
    "PortInvocation",
    "ReportRecord",
    "TimerInvocation",
    "TrackingObjectDef",
    "WhenInvocation",
]
