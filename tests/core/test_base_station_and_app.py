"""Unit tests for the base station and the EnviroTrackApp assembly."""

import pytest

from repro.core import AppReport, BaseStation, ContextTypeDef, EnviroTrackApp
from repro.node import Mote
from repro.radio import Medium
from repro.sim import Simulator


def make_station():
    sim = Simulator(seed=1)
    medium = Medium(sim, communication_radius=5.0)
    mote = Mote(sim, 0, (0.0, 0.0), medium)
    return sim, BaseStation(mote)


def send_report(sim, station, label="tracker#1.1", **values):
    sim.run(until=sim.now + 1.0)
    station.receive(AppReport(label=label, context_type="tracker",
                              reporter=1, reported_at=sim.now,
                              values=values), origin=1)


class TestBaseStation:
    def test_collects_reports(self):
        sim, station = make_station()
        send_report(sim, station, location=[1.0, 2.0])
        assert len(station.reports) == 1
        record = station.reports[0]
        assert record.label == "tracker#1.1"
        assert record.reporter == 1
        assert record.received_at == record.reported_at == 1.0
        assert record.values == {"location": [1.0, 2.0]}

    def test_tracks_grouped_by_label(self):
        sim, station = make_station()
        send_report(sim, station, label="a", location=[1.0, 1.0])
        send_report(sim, station, label="b", location=[5.0, 5.0])
        send_report(sim, station, label="a", location=[2.0, 1.0])
        assert station.labels_seen() == ["a", "b"]
        track = station.track("a")
        assert [pos for _, pos in track] == [(1.0, 1.0), (2.0, 1.0)]
        assert set(station.tracks()) == {"a", "b"}

    def test_non_positional_values_excluded_from_track(self):
        sim, station = make_station()
        send_report(sim, station, label="a", alarm=True)
        assert station.track("a") == []
        assert station.reports_for("a")[0].values["alarm"] is True

    def test_malformed_reports_ignored(self):
        sim, station = make_station()
        station.receive({"no_label": 1}, origin=1)
        station.receive(None, origin=1)
        assert station.reports == []


class TestAppAssembly:
    def test_install_is_idempotent(self):
        app = EnviroTrackApp(seed=1)
        app.field.deploy_grid(3, 2)
        app.add_context_type(ContextTypeDef(name="t", activation="x"))
        app.install()
        agents_before = dict(app.agents)
        app.install()
        assert app.agents == agents_before

    def test_stack_wiring_per_mote(self):
        app = EnviroTrackApp(seed=1)
        app.field.deploy_grid(3, 2)
        app.add_context_type(ContextTypeDef(name="t", activation="x"))
        app.install()
        assert set(app.agents) == set(app.field.motes)
        for agent in app.agents.values():
            assert agent.router.mote is agent.mote
            assert agent.directory.router is agent.router
            assert agent.mtp.router is agent.router
            assert agent.mtp.directory is agent.directory
            assert agent.mtp.groups is agent.groups

    def test_optional_services_disabled(self):
        app = EnviroTrackApp(seed=1, enable_transport=False)
        app.field.deploy_grid(2, 2)
        app.install()
        assert set(app.agents) == set(app.field.motes)
        for agent in app.agents.values():
            assert agent.router.mote is agent.mote
            assert agent.directory is None
            assert agent.mtp is None

    def test_field_bounds_cover_deployment(self):
        app = EnviroTrackApp(seed=1)
        app.field.deploy_grid(5, 3)
        bounds = app.field_bounds()
        for mote in app.field.mote_list():
            assert bounds.contains(mote.position)

    def test_field_bounds_require_motes(self):
        with pytest.raises(RuntimeError):
            EnviroTrackApp(seed=1).field_bounds()

    def test_base_station_placement_after_install_rejected(self):
        app = EnviroTrackApp(seed=1)
        app.field.deploy_grid(2, 2)
        app.install()
        with pytest.raises(RuntimeError):
            app.place_base_station((0.0, -1.0))

    def test_leaders_introspection(self):
        app = EnviroTrackApp(seed=1, enable_transport=False)
        app.field.deploy_grid(4, 1)
        sensing = {1}
        for mote in app.field.mote_list():
            mote.install_sensor(
                "seen", lambda m=mote: m.node_id in sensing)
        app.add_context_type(ContextTypeDef(name="t", activation="seen"))
        app.run(until=3.0)
        leaders = app.leaders("t")
        assert list(leaders) == [1]
        assert leaders[1].startswith("t#")

    def test_leaders_omit_a_crashed_leader(self):
        app = EnviroTrackApp(seed=1, enable_transport=False)
        app.field.deploy_grid(4, 1)
        sensing = {1}
        for mote in app.field.mote_list():
            mote.install_sensor(
                "seen", lambda m=mote: m.node_id in sensing)
        app.add_context_type(ContextTypeDef(name="t", activation="seen"))
        app.run(until=3.0)
        assert list(app.leaders("t")) == [1]
        app.field.fail_node(1)
        assert app.leaders("t") == {}
        assert not app.agents[1].groups.is_leading("t")
