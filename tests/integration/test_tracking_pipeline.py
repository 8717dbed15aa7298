"""End-to-end integration tests: the paper's qualitative claims."""

import pytest

from repro.experiments import (SPEED_33_KMH, SPEED_50_KMH, TankScenario,
                               run_tank_scenario)
from repro.lang import compile_source
from repro.core import EnviroTrackApp
from repro.sensing import LineTrajectory, Target


class TestCaseStudy:
    """§6.1: realistic targets are tracked without overloading the net."""

    def test_tank_tracked_coherently_at_case_study_speeds(self):
        for speed in (SPEED_33_KMH, SPEED_50_KMH):
            result = run_tank_scenario(TankScenario(speed=speed, seed=3))
            assert result.coherent, f"incoherent at speed {speed}"
            assert result.coverage > 0.9

    def test_tracking_error_bounded(self):
        result = run_tank_scenario(TankScenario(seed=4))
        assert result.comparison is not None
        assert result.comparison.mean_error < 0.5

    def test_link_utilization_tiny(self):
        result = run_tank_scenario(TankScenario(seed=5))
        assert result.communication.link_utilization_pct < 10.0

    def test_operates_correctly_under_loss(self):
        result = run_tank_scenario(TankScenario(seed=6,
                                                base_loss_rate=0.15))
        assert result.coherent
        assert result.communication.heartbeat_loss_pct > 5.0


class TestStressClaims:
    """§6.2 directional claims at a smoke-test scale."""

    def test_faster_heartbeats_track_faster_targets(self):
        def coherent(speed, heartbeat_period):
            votes = 0
            for seed in range(3):
                scenario = TankScenario(
                    columns=16, rows=3, speed=speed,
                    heartbeat_period=heartbeat_period, relinquish=False,
                    with_base_station=False, seed=30 + seed)
                votes += run_tank_scenario(scenario).coherent
            return votes >= 2

        # 1 hop/s works with a 0.25s heartbeat but not with a 2s one.
        assert coherent(1.0, 0.25)
        assert not coherent(1.0, 2.0)

    def test_crsr_below_one_breaks_coherence(self):
        scenario = TankScenario(
            columns=16, rows=5, speed=0.5, sensing_radius=2.0,
            communication_radius=1.4,  # CR:SR = 0.7
            member_rebroadcast=False, with_base_station=False, seed=9)
        assert not run_tank_scenario(scenario).coherent

    def test_leader_kill_recovers_same_label(self):
        scenario = TankScenario(seed=12, leader_kill_times=(30.0,))
        result = run_tank_scenario(scenario)
        assert result.handovers.takeovers >= 1
        assert result.coherent


class TestDslPipeline:
    def test_figure2_program_tracks_end_to_end(self):
        source = """
        begin context tracker
            activation: magnetic_sensor_reading()
            location : avg(position) confidence=2, freshness=1s
            begin object reporter
                invocation: TIMER(5s)
                report_function() {
                    MySend(pursuer, self:label, location);
                }
            end
        end context
        """
        app = EnviroTrackApp(seed=8, base_loss_rate=0.05)
        app.field.deploy_grid(10, 2)
        app.field.add_target(Target(
            "tank", "vehicle", LineTrajectory((0.0, 0.5), 0.1),
            signature_radius=0.7,
            attributes={"ferrous_mass": 40000.0}))
        app.field.install_magnetometers(threshold=0.8)
        for definition in compile_source(source):
            app.add_context_type(definition)
        base = app.place_base_station((0.0, -3.0))
        app.run(until=100.0)
        assert len(base.labels_seen()) == 1
        track = base.track(base.labels_seen()[0])
        assert len(track) >= 4
        # Reported x positions advance with the vehicle.
        xs = [pos[0] for _, pos in track]
        assert xs == sorted(xs)
        for t, (x, y) in track:
            assert abs(x - 0.1 * t) < 1.0
            assert abs(y - 0.5) < 0.6


class TestMultiTarget:
    def test_two_vehicles_two_labels(self):
        from repro.aggregation import AggregateVarSpec
        from repro.core import (ContextTypeDef, MethodDef, TimerInvocation,
                                TrackingObjectDef)
        from repro.groups import GroupConfig

        app = EnviroTrackApp(seed=14, enable_transport=False)
        app.field.deploy_grid(12, 6)
        app.field.add_target(Target(
            "a", "vehicle", LineTrajectory((0.0, 1.0), 0.1),
            signature_radius=1.0))
        app.field.add_target(Target(
            "b", "vehicle", LineTrajectory((11.0, 4.5), 0.0),
            signature_radius=1.0))
        app.field.install_detection_sensors("seen", kinds=["vehicle"])

        def report(ctx):
            location = ctx.read("location")
            if location.valid:
                ctx.my_send({"location": location.value})

        app.add_context_type(ContextTypeDef(
            name="tracker", activation="seen",
            aggregates=[AggregateVarSpec("location", "avg", "position",
                                         confidence=2, freshness=1.0)],
            objects=[TrackingObjectDef("r", [
                MethodDef("report", TimerInvocation(3.0), report)])],
            group=GroupConfig(suppression_range=2.5, join_range=2.5)))
        base = app.place_base_station((-1.0, -2.0))
        app.run(until=60.0)

        labels = base.labels_seen()
        assert len(labels) == 2
        # One track is static near (11, 4.5); the other moves along y=1.
        finals = {label: base.track(label)[-1][1] for label in labels}
        moving = [l for l, (x, y) in finals.items() if y < 2.5]
        static = [l for l, (x, y) in finals.items() if y > 2.5]
        assert len(moving) == 1 and len(static) == 1
        assert finals[static[0]][0] == pytest.approx(11.0, abs=1.0)
