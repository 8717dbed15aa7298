"""Multihop report relay: members beyond single-hop range of the leader
still contribute readings (§3.2.1's in-group multihop communication)."""

from repro.aggregation import AggregateVarSpec
from repro.core import ContextTypeDef, EnviroTrackApp
from repro.groups import GroupConfig
from repro.sensing import StaticPoint, Target


def build(communication_radius):
    app = EnviroTrackApp(seed=33,
                         communication_radius=communication_radius)
    app.field.deploy_grid(9, 3)
    # A wide stationary phenomenon: sensing span ≈ 6 grid units.
    app.field.add_target(Target(
        "blob", "phenomenon", StaticPoint((4.0, 1.0)),
        signature_radius=3.2))
    app.field.install_detection_sensors("seen", kinds=["phenomenon"])
    app.add_context_type(ContextTypeDef(
        name="blob", activation="seen",
        aggregates=[AggregateVarSpec("center", "centroid", "position",
                                     confidence=4, freshness=2.0)],
        group=GroupConfig(heartbeat_period=0.5, suppression_range=None,
                          member_rebroadcast=True)))
    return app


def leader_agent(app):
    for agent in app.agents.values():
        if agent.groups.is_leading("blob"):
            return agent
    return None


def test_far_members_reach_leader_via_relay():
    # Radio range 2.5 < group span: some members are beyond single-hop
    # range of wherever the leader sits.
    app = build(communication_radius=2.5)
    app.run(until=12.0)
    agent = leader_agent(app)
    assert agent is not None
    store = agent.runtime_of("blob").store
    result = store.read("center", app.sim.now)
    assert result.valid
    # Contributions must span more than one radio hop around the leader:
    # the full group has ~15 sensing motes.
    assert result.contributors >= 8
    # The relay actually ran (geo frames forwarded).
    forwarded = sum(agent.router.forwarded
                    for agent in app.agents.values())
    assert forwarded > 0


def test_no_relay_needed_with_wide_radio():
    app = build(communication_radius=8.0)
    app.run(until=12.0)
    agent = leader_agent(app)
    assert agent is not None
    result = agent.runtime_of("blob").store.read("center", app.sim.now)
    assert result.valid and result.contributors >= 8
