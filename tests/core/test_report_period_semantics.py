"""End-to-end checks of the P_e = L_e − d reporting semantics.

§3.2.3: members report at period ``P_e = L_e − d`` so that aggregation
windows always contain fresh readings from live members.  These tests
verify the *observable* guarantee on the full stack: a leader's successful
reads never aggregate readings older than the declared freshness, and the
report traffic on the air matches the derived period.
"""

import pytest

from repro.aggregation import REPORT_KIND, AggregateVarSpec
from repro.core import ContextTypeDef, EnviroTrackApp
from repro.groups import GroupConfig
from repro.sensing import StaticPoint, Target


def build(freshness, delay_estimate, seed=61):
    app = EnviroTrackApp(seed=seed, enable_transport=False,
                         base_loss_rate=0.0)
    app.field.deploy_grid(5, 2)
    app.field.add_target(Target("thing", "thing",
                                StaticPoint((2.0, 0.5)),
                                signature_radius=1.2))
    app.field.install_detection_sensors("seen", kinds=["thing"])
    app.add_context_type(ContextTypeDef(
        name="t", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=freshness)],
        group=GroupConfig(heartbeat_period=0.5, suppression_range=None),
        delay_estimate=delay_estimate))
    return app


def leader_agent(app):
    for agent in app.agents.values():
        if agent.groups.is_leading("t"):
            return agent
    return None


def test_reads_respect_freshness_bound():
    app = build(freshness=1.0, delay_estimate=0.1)
    app.run(until=20.0)
    agent = leader_agent(app)
    result = agent.runtime_of("t").store.read("location", app.sim.now)
    assert result.valid
    assert result.oldest_reading_age is not None
    assert result.oldest_reading_age <= 1.0


def test_report_rate_matches_derived_period():
    app = build(freshness=2.0, delay_estimate=0.5)
    app.run(until=32.0)
    stats = app.field.medium.stats
    reports = stats.sent_by_kind[REPORT_KIND]
    # P_e = 2.0 − 0.5 = 1.5 s.  Members (≈5 sensing motes minus the
    # leader) each report ~once per period over ~30 s of group life.
    sensing = len(app.field.motes_sensing("thing"))
    expected = (sensing - 1) * (30.0 / 1.5)
    assert reports == pytest.approx(expected, rel=0.35)


def test_tighter_freshness_means_faster_reports():
    def report_count(freshness):
        app = build(freshness=freshness, delay_estimate=0.1)
        app.run(until=20.0)
        return app.field.medium.stats.sent_by_kind[REPORT_KIND]

    assert report_count(0.5) > 1.5 * report_count(2.0)


def test_validity_lost_when_members_die():
    app = build(freshness=1.0, delay_estimate=0.1)
    app.run(until=10.0)
    agent = leader_agent(app)
    assert agent.runtime_of("t").store.read("location",
                                            app.sim.now).valid
    # Kill every mote except the leader: critical mass (2) unreachable.
    for node_id, mote in app.field.motes.items():
        if node_id != agent.node_id:
            mote.fail()
    app.sim.run(until=app.sim.now + 5.0)
    result = agent.runtime_of("t").store.read("location", app.sim.now)
    assert not result.valid
    assert result.contributors <= 1
