"""Integration-grade unit tests for the EnviroTrack middleware agent."""

import pytest

from repro.aggregation import AggregateVarSpec
from repro.core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                        TimerInvocation, TrackingObjectDef, WhenInvocation)
from repro.experiments import TankScenario
from repro.experiments.scenarios import build_app as build_tank_app
from repro.groups import GroupConfig, Role
from repro.sensing import LineTrajectory, StaticPoint, Target


def build_app(context_types, columns=8, rows=2, target_speed=0.0,
              target_pos=(3.0, 0.5), radius=1.2, seed=5, **app_kwargs):
    app = EnviroTrackApp(seed=seed, base_loss_rate=0.0,
                         enable_transport=False, **app_kwargs)
    app.field.deploy_grid(columns, rows)
    app.field.add_target(Target(
        "t", "vehicle", LineTrajectory(target_pos, target_speed),
        signature_radius=radius))
    app.field.install_detection_sensors("seen", kinds=["vehicle"])
    for definition in context_types:
        app.add_context_type(definition)
    return app


def tracker_def(objects=(), confidence=2, freshness=1.0,
                deactivation=None):
    return ContextTypeDef(
        name="tracker", activation="seen", deactivation=deactivation,
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=confidence,
                                     freshness=freshness)],
        objects=list(objects),
        group=GroupConfig(heartbeat_period=0.5))


def current_leader(app, context_type="tracker"):
    for node_id, agent in app.agents.items():
        if agent.groups.is_leading(context_type):
            return node_id, agent
    return None, None


def test_members_report_and_leader_aggregates():
    app = build_app([tracker_def()])
    app.run(until=5.0)
    _, agent = current_leader(app)
    assert agent is not None
    runtime = agent.runtime_of("tracker")
    result = runtime.store.read("location", app.sim.now)
    assert result.valid
    assert result.contributors >= 2
    # avg(position) of sensing motes around (3.0, 0.5) lands near x=3.
    assert result.value[0] == pytest.approx(3.0, abs=0.6)


def test_member_reports_bump_leader_weight():
    app = build_app([tracker_def()])
    app.run(until=10.0)
    _, agent = current_leader(app)
    assert agent.groups.weight("tracker") > 3


def test_timer_object_runs_only_on_leader():
    runs = []

    def tick(ctx):
        runs.append((ctx.node_id, ctx.now))

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("tick", TimerInvocation(1.0), tick)])])
    app = build_app([definition])
    app.run(until=6.0)
    leader, _ = current_leader(app)
    assert runs, "timer method never ran"
    assert {node for node, _ in runs} == {leader}


def test_when_invocation_edge_triggered():
    fires = []

    def alarm(ctx):
        fires.append(ctx.now)

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("alarm",
                  WhenInvocation(lambda ctx: ctx.valid("location"),
                                 poll_period=0.5), alarm)])])
    app = build_app([definition])
    app.run(until=10.0)
    # Edge-triggered: the condition holds continuously after formation but
    # the method fires once per leader incarnation, not every poll.
    assert 1 <= len(fires) <= 3


def test_app_error_recorded_not_raised():
    def boom(ctx):
        raise RuntimeError("application bug")

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("boom", TimerInvocation(1.0), boom)])])
    app = build_app([definition])
    app.run(until=5.0)  # must not raise
    errors = list(app.sim.trace_records("etrack.app_error"))
    assert errors
    assert errors[0].detail["method"] == "boom"


def test_deactivation_hysteresis():
    """With an explicit deactivation condition, a node stays in the group
    between the activation and deactivation thresholds."""
    app = EnviroTrackApp(seed=5, enable_transport=False)
    app.field.deploy_grid(4, 1)
    readings = {"value": 300.0}
    for mote in app.field.mote_list():
        mote.install_sensor("temperature", lambda: readings["value"])
    definition = ContextTypeDef(
        name="hot",
        activation=lambda mote: mote.read_sensor("temperature") > 250,
        deactivation=lambda mote: mote.read_sensor("temperature") < 150,
        group=GroupConfig(heartbeat_period=0.5))
    app.add_context_type(definition)
    app.run(until=3.0)
    roles = [agent.groups.role("hot") for agent in app.agents.values()]
    assert any(role is not Role.IDLE for role in roles)
    # Drop into the hysteresis band: still active.
    readings["value"] = 200.0
    app.sim.run(until=6.0)
    roles = [agent.groups.role("hot") for agent in app.agents.values()]
    assert any(role is not Role.IDLE for role in roles)
    # Below the deactivation threshold: groups dissolve.
    readings["value"] = 100.0
    app.sim.run(until=12.0)
    roles = [agent.groups.role("hot") for agent in app.agents.values()]
    assert all(role is Role.IDLE for role in roles)


def test_reboot_clears_deactivation_hysteresis():
    """The hysteresis latch is RAM: a node rebooted inside the band comes
    back unlatched, stays idle, and does not found a second group."""
    app = EnviroTrackApp(seed=5, enable_transport=False)
    app.field.deploy_grid(4, 1)
    readings = {"value": 300.0}
    for mote in app.field.mote_list():
        mote.install_sensor("temperature", lambda: readings["value"])
    app.add_context_type(ContextTypeDef(
        name="hot",
        activation=lambda mote: mote.read_sensor("temperature") > 250,
        deactivation=lambda mote: mote.read_sensor("temperature") < 150,
        group=GroupConfig(heartbeat_period=0.5)))
    app.run(until=3.0)
    readings["value"] = 200.0
    app.sim.run(until=4.0)
    rebooted = app.field.motes[3]
    rebooted.fail()
    app.sim.run(until=5.0)
    rebooted.reboot()
    app.sim.run(until=10.0)
    roles = {node: agent.groups.role("hot")
             for node, agent in app.agents.items()}
    assert [node for node, role in roles.items()
            if role is Role.LEADER] == [1]  # node 1 took over from 3
    assert roles[3] is Role.IDLE


def test_leader_stop_halts_object_timers():
    runs = []

    def tick(ctx):
        runs.append(ctx.node_id)

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("tick", TimerInvocation(0.5), tick)])])
    # Moving target: leadership migrates; old leaders must stop ticking.
    app = build_app([definition], target_speed=0.25, target_pos=(0.0, 0.5))
    # The target's signature clears the 8-column grid at t ≈ 37s.
    app.run(until=45.0)
    total_after = len(runs)
    # The target has left the field; all objects must be quiescent.
    app.sim.run(until=60.0)
    assert len(runs) == total_after


def test_base_station_reports_via_router():
    def report(ctx):
        location = ctx.read("location")
        if location.valid:
            ctx.my_send({"location": location.value})

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("report", TimerInvocation(2.0), report)])])
    app = build_app([definition])
    base = app.place_base_station((0.0, -2.0))
    app.run(until=10.0)
    assert base.reports
    record = base.reports[0]
    assert record.label.startswith("tracker#")
    assert record.context_type == "tracker"
    assert len(record.values["location"]) == 2


def test_values_named_like_the_envelope_reach_the_base_station():
    # A reported value may be called label, context_type, reporter or
    # reported_at: the report keeps the values apart from its envelope.
    values = {"label": "mine", "context_type": "mine", "reporter": "alpha",
              "reported_at": -1.0}

    def report(ctx):
        ctx.my_send(values)

    definition = tracker_def(objects=[TrackingObjectDef("o", [
        MethodDef("report", TimerInvocation(2.0), report)])])
    app = build_app([definition])
    base = app.place_base_station((0.0, -2.0))
    app.run(until=10.0)
    assert base.reports
    for record in base.reports:
        assert record.values == values
        assert record.label.startswith("tracker#")
        assert record.context_type == "tracker"
        assert record.reporter in app.agents
        assert 0.0 < record.reported_at <= record.received_at


def test_duplicate_context_type_rejected():
    app = build_app([tracker_def()])
    with pytest.raises(ValueError):
        app.add_context_type(tracker_def())


def test_add_context_after_install_rejected():
    app = build_app([tracker_def()])
    app.install()
    with pytest.raises(RuntimeError):
        app.add_context_type(ContextTypeDef(name="x", activation="seen"))


def test_reboot_empties_the_leader_runtime():
    # A crash ends the leader's RAM with its leadership: the rebooted
    # mote comes back IDLE with no store, no object context and no
    # object timer running.
    app = build_tank_app(TankScenario(columns=6, rows=2, seed=11))
    app.install()
    app.run(until=12.0)
    agent = app.agents[6]
    assert agent.groups.is_leading("tracker")
    runtime = agent.runtime_of("tracker")
    assert runtime.octx is not None
    app.field.fail_node(6)
    app.run(until=13.0)
    app.field.motes[6].reboot()
    assert agent.groups.role("tracker") is Role.IDLE
    assert runtime.store is None and runtime.octx is None
    assert not any(timer.running for timer in runtime.leader_timers)
