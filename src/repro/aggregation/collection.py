"""The raw-data collection protocol (§3.2.3).

Members of a sensor group periodically send their relevant local sensor
readings to the leader.  The paper sets the report period
``P_e = L_e − d`` where ``d`` estimates the maximum in-group message delay
plus processing time, so every window of ``P_e`` seconds at the leader is
guaranteed to contain a fresh reading from each live member.

The protocol is deliberately independent of the aggregation function — it
only moves ``{variable: reading}`` maps; the leader's
:class:`repro.aggregation.window.AggregateStore` applies the functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .window import AggregateVarSpec

#: Frame kind used by member→leader reports.
REPORT_KIND = "etrack.report"

#: On-air size of a member→leader report frame.
REPORT_SIZE_BITS = 36 * 8


def report_period(specs: List[AggregateVarSpec],
                  delay_estimate: float) -> float:
    """Compute P_e = min_var(L_e) − d, floored to stay positive.

    The tightest freshness across the context's variables drives the
    period: reporting at that rate satisfies every variable's bound.
    """
    if not specs:
        raise ValueError("context declares no aggregate variables")
    tightest = min(spec.freshness for spec in specs)
    period = tightest - delay_estimate
    if period <= 0:
        # Degenerate configuration: freshness tighter than the delay bound.
        # Report as fast as half the freshness rather than rejecting.
        period = tightest / 2.0
    return period


@dataclass(frozen=True, slots=True)
class MemberReport:
    """The member→leader report message: ``sender``'s ``readings`` of
    the label's aggregate variables, sampled at ``time``."""

    context_type: str
    label: str
    sender: int
    time: float
    readings: Dict[str, Any]


def sample_readings(mote, specs: List[AggregateVarSpec]
                    ) -> Dict[str, Any]:
    """Sample this mote's sensors for every declared aggregate variable.

    Variables whose sensor is not installed on the mote are skipped —
    heterogeneous deployments are allowed (§3.2: "A sensor node can be part
    of multiple groups at one time").
    """
    readings: Dict[str, Any] = {}
    for spec in specs:
        if mote.has_sensor(spec.sensor):
            readings[spec.name] = mote.read_sensor(spec.sensor)
    return readings

