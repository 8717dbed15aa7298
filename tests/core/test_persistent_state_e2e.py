"""End-to-end tests for heartbeat-carried persistent state (setState).

§5.2: heartbeats "may carry any state that must persist across different
timer handler invocations on the leader … This mechanism allows new
leaders to continue computations of failed leaders from the last committed
state received."  (Footnote: "In the present prototype, persistent state
is not yet implemented. It constitutes a trivial extension" — implemented
here.)
"""

from repro.aggregation import AggregateVarSpec
from repro.core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                        TimerInvocation, TrackingObjectDef)
from repro.groups import GroupConfig
from repro.sensing import LineTrajectory, Target


def counting_tracker():
    observed = []

    def count(ctx):
        state = dict(ctx.state or {})
        state["count"] = state.get("count", 0) + 1
        state["by"] = ctx.node_id
        ctx.set_state(state)
        observed.append((ctx.now, ctx.node_id, state["count"]))

    definition = ContextTypeDef(
        name="tracker", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=1, freshness=1.0)],
        objects=[TrackingObjectDef("counter", [
            MethodDef("count", TimerInvocation(2.0), count)])],
        group=GroupConfig(heartbeat_period=0.5))
    return definition, observed


def test_counter_survives_leadership_migration():
    definition, observed = counting_tracker()
    app = EnviroTrackApp(seed=71, base_loss_rate=0.02,
                         enable_transport=False)
    app.field.deploy_grid(12, 2)
    app.field.add_target(Target(
        "car", "vehicle", LineTrajectory((0.0, 0.5), 0.15),
        signature_radius=1.0))
    app.field.install_detection_sensors("seen", kinds=["vehicle"])
    app.add_context_type(definition)
    app.run(until=80.0)

    counts = [count for _, _, count in observed]
    nodes = {node for _, node, _ in observed}
    # Leadership moved across several nodes …
    assert len(nodes) >= 3
    # … yet the counter never reset: strictly increasing by 1.
    assert counts == list(range(1, len(counts) + 1))


def test_counter_survives_leader_crash():
    definition, observed = counting_tracker()
    app = EnviroTrackApp(seed=72, base_loss_rate=0.02,
                         enable_transport=False)
    app.field.deploy_grid(6, 2)
    app.field.add_target(Target(
        "thing", "vehicle", LineTrajectory((2.5, 0.5), 0.0),
        signature_radius=1.4))
    app.field.install_detection_sensors("seen", kinds=["vehicle"])
    app.add_context_type(definition)
    app.install()
    app.run(until=15.0)

    # Crash whoever leads now.
    leader = next(node for node, agent in app.agents.items()
                  if agent.groups.is_leading("tracker"))
    count_at_crash = max(count for _, _, count in observed)
    app.field.fail_node(leader)
    app.sim.run(until=40.0)

    survivors = [(t, node, count) for t, node, count in observed
                 if node != leader]
    assert survivors, "no successor continued the computation"
    # The successor resumed at (or near) the last committed count —
    # the final pre-crash increment may not have reached a heartbeat.
    first_after = min(count for t, node, count in survivors
                      if count > 0 and t > 15.0)
    assert first_after >= count_at_crash
    final = max(count for _, _, count in survivors)
    assert final > count_at_crash
