"""Regression: every duration, cost, radius, speed and limit validator
rejects NaN.

``nan <= 0`` and ``nan < 0`` are both False, so a check written as
``if x <= 0: raise`` lets NaN through.  The value then fails far from
its source — inside the event loop, or never: a NaN signature radius
makes a target silently undetectable.  The validators use
``not x > 0`` / ``not x >= 0`` instead.
"""

import pytest

from repro.aggregation import AggregateVarSpec
from repro.core import ContextTypeDef, TimerInvocation, WhenInvocation
from repro.naming import FieldBounds
from repro.node import Cpu
from repro.radio import Medium
from repro.sensing import (LineTrajectory, RandomWalkTrajectory,
                           SensorField, StaticPoint, Target,
                           WaypointTrajectory)
from repro.sim import PeriodicTimer, Simulator, WatchdogTimer

NAN = float("nan")


def _mote_skew(factor):
    field = SensorField(Simulator())
    field.add_mote((0.0, 0.0)).skew_clock(factor)


def _busy_cpu_post(cost):
    cpu = Cpu(Simulator(), 0)
    cpu.post(lambda: None)  # in service: the next post queues
    cpu.post(lambda: None, cost=cost)


def _mote_periodic(cost):
    field = SensorField(Simulator())
    field.add_mote((0.0, 0.0)).periodic(0.1, lambda: None, cost=cost)


def _disturbance(**window):
    medium = Medium(Simulator(), communication_radius=2.0)
    medium.add_disturbance(extra_loss=0.5, **window)


CASES = {
    "Target.signature_radius": lambda: Target(
        "t", "vehicle", StaticPoint((0.0, 0.0)), signature_radius=NAN),
    "LineTrajectory.speed": lambda: LineTrajectory((0.0, 0.0), NAN),
    "Cpu.task_cost": lambda: Cpu(Simulator(), 0, task_cost=NAN),
    "Cpu.queue_limit": lambda: Cpu(Simulator(), 0, queue_limit=NAN),
    "Cpu.post.cost": lambda: _busy_cpu_post(NAN),
    "Mote.periodic.cost": lambda: _mote_periodic(NAN),
    "PeriodicTimer.period": lambda: PeriodicTimer(
        Simulator(), NAN, lambda: None),
    "WatchdogTimer.timeout": lambda: WatchdogTimer(
        Simulator(), NAN, lambda: None),
    "AggregateVarSpec.freshness": lambda: AggregateVarSpec(
        "location", "avg", "position", freshness=NAN),
    "TimerInvocation.period": lambda: TimerInvocation(NAN),
    "WhenInvocation.poll_period": lambda: WhenInvocation(
        lambda ctx: True, poll_period=NAN),
    "ContextTypeDef.delay_estimate": lambda: ContextTypeDef(
        name="tracker", activation="tank_detect", delay_estimate=NAN),
    "Mote.skew_clock": lambda: _mote_skew(NAN),
    "WaypointTrajectory.speed": lambda: WaypointTrajectory(
        [(0.0, 0.0), (1.0, 0.0)], NAN),
    "RandomWalkTrajectory.speed": lambda: RandomWalkTrajectory(
        (0.0, 0.0), NAN, (0.0, 0.0, 4.0, 4.0)),
    "Medium.add_disturbance.end": lambda: _disturbance(start=1.0, end=NAN),
    "Medium.add_disturbance.radius": lambda: _disturbance(
        start=1.0, end=2.0, center=(0.0, 0.0), radius=NAN),
    "FieldBounds.x_lo": lambda: FieldBounds(NAN, 0.0, 7.0, 7.0),
    "FieldBounds.y_hi": lambda: FieldBounds(0.0, 0.0, 7.0, NAN),
    "FieldBounds.shrunk.margin": lambda: FieldBounds(
        0.0, 0.0, 7.0, 7.0).shrunk(NAN),
}


@pytest.mark.parametrize("build", CASES.values(), ids=list(CASES))
def test_nan_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [lambda: _busy_cpu_post(-0.5),
                                   lambda: _mote_periodic(-0.5)],
                         ids=["Cpu.post.cost", "Mote.periodic.cost"])
def test_negative_task_cost_rejected(build):
    """A negative cost would schedule a service in the past."""
    with pytest.raises(ValueError):
        build()
