"""Tests for the evaluation scenario builders."""

import pytest

from repro.experiments import (SPEED_33_KMH, SPEED_50_KMH, TankScenario,
                               build_app, build_tracker_definition,
                               run_tank_scenario)
from repro.experiments.scenarios import START_MARGIN


class TestScenarioGeometry:
    def test_paper_speed_constants(self):
        # 10 s/hop and 15 s/hop at the 1000:1 / 140 m scale.
        assert SPEED_50_KMH == pytest.approx(0.1)
        assert SPEED_33_KMH == pytest.approx(1.0 / 15.0)

    def test_entry_exit_times(self):
        scenario = TankScenario(columns=12, speed=0.1, sensing_radius=1.0)
        assert START_MARGIN == 1.5
        assert scenario.entry_time == pytest.approx(5.0)
        assert scenario.exit_time == pytest.approx((1.5 + 11 + 1.0) / 0.1)
        assert scenario.duration > scenario.exit_time

    def test_track_y_between_rows(self):
        assert TankScenario(rows=2).track_y == pytest.approx(0.5)
        assert TankScenario(rows=5).track_y == pytest.approx(2.0)


class TestBuildApp:
    def test_deploys_grid_and_target(self):
        scenario = TankScenario(columns=6, rows=2)
        app = build_app(scenario)
        # 12 motes + base station.
        assert len(app.field.motes) == 13
        target = app.field.target("tank")
        assert target.kind == "vehicle"
        x0, y0 = target.position(0.0)
        assert x0 == pytest.approx(-START_MARGIN)
        assert y0 == pytest.approx(scenario.track_y)

    def test_jittered_deployment(self):
        scenario = TankScenario(columns=6, rows=2, deployment_jitter=0.3,
                                with_base_station=False)
        app = build_app(scenario)
        offsets = [abs(mote.position[0] - round(mote.position[0]))
                   for mote in app.field.mote_list()]
        assert any(offset > 0.01 for offset in offsets)

    def test_tracker_definition_matches_scenario(self):
        scenario = TankScenario(heartbeat_period=0.25, relinquish=False)
        definition = build_tracker_definition(scenario)
        assert definition.group.heartbeat_period == 0.25
        assert not definition.group.relinquish

    def test_tracker_definition_is_figure_2s(self):
        # location : avg(position) confidence=2, freshness=1s, and a
        # report_function timer of 5 s.
        definition = build_tracker_definition(TankScenario())
        spec = definition.aggregate("location")
        assert (spec.function, spec.sensor) == ("avg", "position")
        assert spec.confidence == 2
        assert spec.freshness == 1.0
        method, = definition.objects[0].methods
        assert method.name == "report_function"
        assert method.invocation.period == 5.0


class TestRunResult:
    def test_result_structure(self):
        result = run_tank_scenario(TankScenario(columns=8, seed=2))
        assert result.handovers.labels_created >= 1
        assert 0.0 <= result.coverage <= 1.0
        assert result.communication.frames_sent > 0
        assert result.comparison is not None

    def test_determinism(self):
        a = run_tank_scenario(TankScenario(columns=8, seed=5))
        b = run_tank_scenario(TankScenario(columns=8, seed=5))
        assert a.communication == b.communication
        assert a.handovers.labels_created == b.handovers.labels_created
        assert a.coverage == b.coverage

    def test_leader_kill_injection(self):
        scenario = TankScenario(columns=8, seed=2,
                                leader_kill_times=(20.0,))
        result = run_tank_scenario(scenario)
        fails = list(result.app.sim.trace_records("node.fail"))
        assert len(fails) == 1
