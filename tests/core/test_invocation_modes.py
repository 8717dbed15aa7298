"""Tests for invocation-condition modes on the live middleware."""

from repro.aggregation import AggregateVarSpec
from repro.core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                        TrackingObjectDef, WhenInvocation)
from repro.groups import GroupConfig
from repro.sensing import StaticPoint, Target


def build(method, directory_update_period=None):
    app = EnviroTrackApp(seed=91)
    app.field.deploy_grid(5, 2)
    app.field.add_target(Target("thing", "thing", StaticPoint((2.0, 0.5)),
                                signature_radius=1.2))
    app.field.install_detection_sensors("seen", kinds=["thing"])
    app.add_context_type(ContextTypeDef(
        name="t", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("o", [method])],
        group=GroupConfig(heartbeat_period=0.5, suppression_range=None),
        directory_update_period=directory_update_period))
    return app


def test_level_triggered_when_fires_every_poll():
    fires = []
    method = MethodDef(
        "alarm",
        WhenInvocation(lambda ctx: ctx.valid("location"),
                       poll_period=1.0, edge_triggered=False),
        lambda ctx: fires.append(ctx.now))
    app = build(method)
    app.run(until=20.0)
    # Level-triggered: fires on (almost) every poll once the state holds.
    assert len(fires) >= 10


def test_edge_triggered_when_fires_once_per_transition():
    fires = []
    method = MethodDef(
        "alarm",
        WhenInvocation(lambda ctx: ctx.valid("location"),
                       poll_period=1.0, edge_triggered=True),
        lambda ctx: fires.append(ctx.now))
    app = build(method)
    app.run(until=20.0)
    assert 1 <= len(fires) <= 2


def test_directory_registration_disabled_when_period_none():
    method = MethodDef(
        "noop",
        WhenInvocation(lambda ctx: False, poll_period=5.0),
        lambda ctx: None)
    app = build(method, directory_update_period=None)
    app.run(until=20.0)
    stored = [r for r in app.sim.trace if r.category == "dir.stored"]
    assert stored == []


def test_directory_registration_enabled_with_period():
    method = MethodDef(
        "noop",
        WhenInvocation(lambda ctx: False, poll_period=5.0),
        lambda ctx: None)
    app = build(method, directory_update_period=5.0)
    app.run(until=20.0)
    stored = [r for r in app.sim.trace if r.category == "dir.stored"]
    assert stored
